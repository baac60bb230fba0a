//! Labeled dataset extraction: per-address chronological transaction
//! histories with ground-truth behavior labels, plus the stratified
//! sampling/splitting used throughout the paper's evaluation (§IV-B).

use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::block::Chain;
use crate::sim::Simulator;
use crate::tx::{Transaction, Txid};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A transaction as seen by the classifier: resolved input/output address
/// and value pairs plus the timestamp. This is everything BAClassifier's
/// graph construction consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxView {
    pub txid: Txid,
    pub timestamp: u64,
    pub inputs: Vec<(Address, Amount)>,
    pub outputs: Vec<(Address, Amount)>,
}

impl From<&Transaction> for TxView {
    fn from(tx: &Transaction) -> Self {
        TxView {
            txid: tx.txid,
            timestamp: tx.timestamp,
            inputs: tx.inputs.iter().map(|i| (i.address, i.value)).collect(),
            outputs: tx.outputs.iter().map(|o| (o.address, o.value)).collect(),
        }
    }
}

/// One labeled address with its chronological transaction history.
#[derive(Clone, Debug)]
pub struct AddressRecord {
    pub address: Address,
    pub label: Label,
    /// Chronological (block order) transactions involving this address.
    pub txs: Vec<TxView>,
}

impl AddressRecord {
    pub fn num_txs(&self) -> usize {
        self.txs.len()
    }
}

/// The extracted dataset.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    pub records: Vec<AddressRecord>,
}

impl Dataset {
    /// Extract every labeled address with at least `min_txs` transactions.
    pub fn from_simulator(sim: &Simulator, min_txs: usize) -> Self {
        Self::from_chain(sim.chain(), &sim.labels(), min_txs)
    }

    /// Extract from a chain with an explicit label map.
    pub fn from_chain(chain: &Chain, labels: &BTreeMap<Address, Label>, min_txs: usize) -> Self {
        let blocks = chain.blocks();
        let mut records = Vec::new();
        for (&address, &label) in labels {
            let history = chain.address_history(address);
            if history.len() < min_txs {
                continue;
            }
            let txs: Vec<TxView> = history
                .iter()
                .map(|&(h, i)| TxView::from(&blocks[h as usize].txs[i as usize]))
                .collect();
            records.push(AddressRecord {
                address,
                label,
                txs,
            });
        }
        Dataset { records }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Address count per class, in [`Label::ALL`] order (paper Table I).
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for r in &self.records {
            counts[r.label.index()] += 1;
        }
        counts
    }

    /// Random stratified sample of about `total` addresses, preserving the
    /// class proportions (paper §IV-B: "random stratified sampling based on
    /// label types"). Classes with fewer members than their share contribute
    /// everything they have.
    pub fn stratified_sample(&self, total: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = self.class_counts();
        let n = self.len().max(1);
        let mut records = Vec::new();
        for label in Label::ALL {
            let class: Vec<&AddressRecord> =
                self.records.iter().filter(|r| r.label == label).collect();
            let want = ((counts[label.index()] as f64 / n as f64) * total as f64).round() as usize;
            let take = want.min(class.len());
            let mut idx: Vec<usize> = (0..class.len()).collect();
            idx.shuffle(&mut rng);
            for &i in idx.iter().take(take) {
                records.push(class[i].clone());
            }
        }
        Dataset { records }
    }

    /// Stratified train/test split: `test_frac` of each class goes to the
    /// test set (paper: 80/20).
    pub fn stratified_split(&self, test_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&test_frac), "test_frac out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for label in Label::ALL {
            let mut class: Vec<AddressRecord> = self
                .records
                .iter()
                .filter(|r| r.label == label)
                .cloned()
                .collect();
            class.shuffle(&mut rng);
            let n_test = (class.len() as f64 * test_frac).round() as usize;
            for (i, r) in class.into_iter().enumerate() {
                if i < n_test {
                    test.push(r);
                } else {
                    train.push(r);
                }
            }
        }
        // Shuffle across classes so training batches are mixed.
        train.shuffle(&mut rng);
        test.shuffle(&mut rng);
        (Dataset { records: train }, Dataset { records: test })
    }

    /// Labels in record order (classifier targets).
    pub fn labels(&self) -> Vec<usize> {
        self.records.iter().map(|r| r.label.index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;

    fn small_dataset() -> Dataset {
        let sim = Simulator::run_to_completion(SimConfig::tiny(3));
        Dataset::from_simulator(&sim, 2)
    }

    #[test]
    fn extraction_yields_all_classes() {
        let ds = small_dataset();
        assert!(!ds.is_empty());
        let counts = ds.class_counts();
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "class {i} empty: {counts:?}");
        }
    }

    #[test]
    fn histories_are_chronological() {
        let ds = small_dataset();
        for r in &ds.records {
            let ts: Vec<u64> = r.txs.iter().map(|t| t.timestamp).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "history out of order");
        }
    }

    #[test]
    fn every_tx_involves_its_address() {
        let ds = small_dataset();
        for r in &ds.records {
            for tx in &r.txs {
                let involved = tx.inputs.iter().any(|&(a, _)| a == r.address)
                    || tx.outputs.iter().any(|&(a, _)| a == r.address);
                assert!(
                    involved,
                    "tx {:?} does not involve {:?}",
                    tx.txid, r.address
                );
            }
        }
    }

    #[test]
    fn min_txs_filter_applies() {
        let sim = Simulator::run_to_completion(SimConfig::tiny(3));
        let ds5 = Dataset::from_chain(sim.chain(), &sim.labels(), 5);
        assert!(ds5.records.iter().all(|r| r.num_txs() >= 5));
        let ds1 = Dataset::from_chain(sim.chain(), &sim.labels(), 1);
        assert!(ds1.len() >= ds5.len());
    }

    #[test]
    fn stratified_sample_preserves_proportions_roughly() {
        let ds = small_dataset();
        let sample = ds.stratified_sample(ds.len() / 2, 11);
        let full = ds.class_counts();
        let got = sample.class_counts();
        for i in 0..4 {
            if full[i] >= 4 {
                let full_frac = full[i] as f64 / ds.len() as f64;
                let got_frac = got[i] as f64 / sample.len() as f64;
                assert!(
                    (full_frac - got_frac).abs() < 0.15,
                    "class {i}: {full_frac} vs {got_frac}"
                );
            }
        }
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let ds = small_dataset();
        let (train, test) = ds.stratified_split(0.2, 5);
        assert_eq!(train.len() + test.len(), ds.len());
        let train_addrs: std::collections::HashSet<_> =
            train.records.iter().map(|r| r.address).collect();
        assert!(test
            .records
            .iter()
            .all(|r| !train_addrs.contains(&r.address)));
        // Roughly 20% test.
        let frac = test.len() as f64 / ds.len() as f64;
        assert!((frac - 0.2).abs() < 0.1, "test fraction {frac}");
    }

    #[test]
    fn split_is_deterministic() {
        let ds = small_dataset();
        let (a_train, _) = ds.stratified_split(0.2, 5);
        let (b_train, _) = ds.stratified_split(0.2, 5);
        let a: Vec<_> = a_train.records.iter().map(|r| r.address).collect();
        let b: Vec<_> = b_train.records.iter().map(|r| r.address).collect();
        assert_eq!(a, b);
    }
}
