//! A bounded O(1) LRU cache; the serving engine keeps its answers in one,
//! one label per `(address id, history length, generation)`. Implemented as
//! a hash map into a slab of intrusively doubly-linked nodes — no external
//! crates, no per-access allocation. Both grow as entries arrive, so the
//! capacity is a bound, never a reservation.

use std::collections::HashMap;
use std::hash::Hash;

struct Node<K, V> {
    key: K,
    value: V,
    prev: Option<usize>,
    next: Option<usize>,
}

pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most-recently used.
    head: Option<usize>,
    /// Least-recently used.
    tail: Option<usize>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// `capacity == 0` means caching disabled: every insert evicts itself.
    /// Nothing is allocated until the first insert.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            head: None,
            tail: None,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    /// Look up `key`, marking it most-recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if self.head != Some(idx) {
            self.detach(idx);
            self.push_front(idx);
        }
        Some(&self.nodes[idx].value)
    }

    /// Check presence without disturbing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.nodes[idx].value)
    }

    /// Insert (or refresh) `key`. Returns the evicted LRU entry, if the
    /// cache was full and a different key had to make room.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            if self.head != Some(idx) {
                self.detach(idx);
                self.push_front(idx);
            }
            return None;
        }
        if self.map.len() == self.capacity {
            // Reuse the LRU slot for the incoming entry.
            let lru = self.tail.expect("full cache has a tail");
            self.detach(lru);
            let old = std::mem::replace(
                &mut self.nodes[lru],
                Node {
                    key: key.clone(),
                    value,
                    prev: None,
                    next: None,
                },
            );
            self.map.remove(&old.key);
            self.map.insert(key, lru);
            self.push_front(lru);
            return Some((old.key, old.value));
        }
        self.nodes.push(Node {
            key: key.clone(),
            value,
            prev: None,
            next: None,
        });
        let idx = self.nodes.len() - 1;
        self.map.insert(key, idx);
        self.push_front(idx);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 2 is now LRU
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.get(&1), Some(&11));
        // 2 was LRU; inserting 3 evicts it, not 1.
        assert_eq!(c.insert(3, 30), Some((2, 20)));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1, 10), Some((1, 10)));
        assert!(c.get(&1).is_none());
        assert_eq!(c.len(), 0);
    }

    /// A capacity far beyond memory reserves nothing: the cache grows on
    /// insert and, never full, evicts nothing.
    #[test]
    fn unbounded_capacity_grows_on_insert() {
        let mut c = LruCache::new(usize::MAX);
        for i in 0..10_000u64 {
            assert_eq!(c.insert(i, i * 2), None);
        }
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.get(&9_999), Some(&19_998));
    }

    #[test]
    fn heavy_churn_preserves_linkage() {
        let mut c = LruCache::new(8);
        for i in 0..1000u64 {
            c.insert(i % 13, i);
            assert!(c.len() <= 8);
        }
        // The 8 most recent distinct keys of the i%13 stream must be present.
        let mut present = 0;
        for k in 0..13u64 {
            if c.peek(&k).is_some() {
                present += 1;
            }
        }
        assert_eq!(present, 8);
    }
}
