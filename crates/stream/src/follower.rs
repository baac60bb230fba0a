//! The chain follower: per-address incremental state and live
//! reclassification.
//!
//! The follower consumes blocks in height order and keeps each fact about a
//! tracked address once (`AddressState`): its append-only history, one GFN
//! embedding per slice, the label margin of its last classification and —
//! once classified — the raw graph of its open slice, maintained by
//! [`baclassifier::construction::incremental`]. Applying a block only touches
//! the addresses that transacted in it. Dirty addresses are pushed through
//! the classifier head on a configurable cadence, producing a continuously
//! updated label table.
//!
//! Label equivalence with the batch pipeline is structural: histories are
//! accumulated by `Transaction::participants`, the rule `Chain::append`'s
//! address index follows, graphs are maintained by the byte-identical
//! `apply_tx` path, and only dirty slices are re-embedded before the cached
//! sequence (capped to the model's `max_slices` most recent entries, as in
//! `BaClassifier::embed_record`) is handed to `classify_embeddings`.

use crate::metrics::StreamMetrics;
use baclassifier::config::resolve_threads;
use baclassifier::construction::{AddressGraph, IncrementalGraphs};
use baclassifier::{ArtifactError, BaClassifier, ModelArtifact, ShardAssignment};
use btcsim::{Address, Block, Label, TxView};
use numnet::Matrix;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Most addresses one reclassification micro-batch gathers: it bounds the
/// slice graphs held at once, and the split never changes any output.
const RECLASS_BATCH: usize = 128;

/// Follower policy knobs, plus the durability settings of its driver
/// (`bashard::ShardedFollower`): a [`Follower`] is pure state and never
/// opens a journal for writing or decides when to snapshot. What is not a
/// knob is fixed: reclassification runs in micro-batches of
/// `RECLASS_BATCH` addresses, the driver fsyncs every journal frame, and
/// recovery keeps [`SNAPSHOT_GENERATIONS`](crate::recovery::SNAPSHOT_GENERATIONS)
/// snapshot files.
#[derive(Clone, Debug)]
pub struct FollowerConfig {
    /// Addresses with fewer transactions than this are tracked but not
    /// classified (mirrors the dataset extraction threshold).
    pub min_txs: usize,
    /// Reclassify dirty addresses every this many blocks (0 disables the
    /// periodic pass; a final pass still runs when a feed drains).
    pub reclass_every: u64,
    /// The driver snapshots every this many blocks (0 disables).
    pub snapshot_every: u64,
    /// Where snapshots go; required when `snapshot_every > 0`.
    pub snapshot_path: Option<PathBuf>,
    /// Restrict tracking to this address set (`None` tracks every address
    /// seen on chain).
    pub tracked: Option<BTreeSet<Address>>,
    /// Restrict tracking to the addresses owned by one shard of a
    /// deterministic [`ShardAssignment`] (`None` behaves as the trivial
    /// 1-shard layout). Composes with `tracked`: an address must pass both
    /// filters. The assignment is persisted in snapshots so a restored
    /// follower can never silently adopt state from a different layout.
    pub shard: Option<ShardAssignment>,
    /// Where the driver's write-ahead block journal lives (`None` disables
    /// journaling). With a journal, the driver appends and fsyncs every
    /// block — checksummed — before any follower applies it, and after a
    /// crash hands [`Follower::recover`] everything since the last snapshot.
    /// A follower never opens it.
    pub journal_path: Option<PathBuf>,
    /// Worker threads for the batched reclassification stage (0 = auto,
    /// all cores). Labels and embeddings are byte-identical at any thread
    /// count — the stage is an order-preserving
    /// `baclassifier::parallel::parallel_map` over the follower's one
    /// classifier.
    pub reclass_threads: usize,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        Self {
            min_txs: 3,
            reclass_every: 1,
            snapshot_every: 0,
            snapshot_path: None,
            tracked: None,
            shard: None,
            journal_path: None,
            reclass_threads: 0,
        }
    }
}

impl FollowerConfig {
    /// Whether this follower tracks `addr`: it must be owned by the
    /// configured shard (if any) and appear in the tracked set (if any).
    pub fn tracks(&self, addr: Address) -> bool {
        if let Some(shard) = &self.shard {
            if !shard.owns(addr) {
                return false;
            }
        }
        match &self.tracked {
            Some(tracked) => tracked.contains(&addr),
            None => true,
        }
    }
}

/// Everything the follower keeps for one address.
#[derive(Default)]
pub(crate) struct AddressState {
    /// Append-only transaction history, in chain order; a transaction is
    /// one allocation however many tracked addresses it touches.
    pub(crate) history: Vec<Arc<TxView>>,
    /// Raw slice graphs not yet embedded, the open slice last. `None` until
    /// the address is first reclassified (then built from `history`), so an
    /// address under `min_txs` or just restored has none.
    pub(crate) inc: Option<IncrementalGraphs>,
    /// Per-slice embeddings; entries `< embeds_clean` match the history,
    /// the rest are stale or missing and re-embedded on demand.
    pub(crate) embeds: Vec<Matrix>,
    pub(crate) embeds_clean: usize,
    /// Set when the history grew since the last classification.
    pub(crate) dirty: bool,
    /// Label margin of the last classification (winning logit minus
    /// runner-up) — small means near a label boundary. `None` until first
    /// classified.
    pub(crate) margin: Option<f32>,
}

impl AddressState {
    pub(crate) fn apply(&mut self, view: &Arc<TxView>, slice_size: usize) {
        self.history.push(Arc::clone(view));
        if let Some(inc) = &mut self.inc {
            inc.apply_tx(view);
        }
        // The newest slice mutated; any embedding cached for it is stale.
        let open = (self.history.len() - 1) / slice_size;
        self.embeds_clean = self.embeds_clean.min(open);
        self.dirty = true;
    }
}

/// A chain follower with live reclassification. See the module docs.
pub struct Follower {
    pub(crate) cfg: FollowerConfig,
    pub(crate) clf: BaClassifier,
    pub(crate) states: BTreeMap<Address, AddressState>,
    pub(crate) labels: BTreeMap<Address, Label>,
    /// Height the next ingested block must have.
    pub(crate) next_height: u64,
    pub(crate) metrics: StreamMetrics,
}

impl Follower {
    /// Build a follower around trained weights.
    pub fn new(artifact: &ModelArtifact, cfg: FollowerConfig) -> Result<Self, ArtifactError> {
        Ok(Self {
            cfg,
            clf: BaClassifier::from_artifact(artifact)?,
            states: BTreeMap::new(),
            labels: BTreeMap::new(),
            next_height: 0,
            metrics: StreamMetrics::default(),
        })
    }

    /// Mark every tracked address dirty so the next
    /// [`Follower::reclassify_dirty`] re-labels all of them, embedding only
    /// slices with no current embedding (all after a restore, none at the tip).
    /// Recovery identity checks use this to materialize the full embedding
    /// table before comparing against an uninterrupted run byte for byte.
    pub fn mark_all_dirty(&mut self) {
        for state in self.states.values_mut() {
            state.dirty = true;
        }
    }

    pub fn config(&self) -> &FollowerConfig {
        &self.cfg
    }

    /// Height the next block is expected at (= blocks ingested so far).
    pub fn next_height(&self) -> u64 {
        self.next_height
    }

    /// The live label table.
    pub fn labels(&self) -> &BTreeMap<Address, Label> {
        &self.labels
    }

    pub fn metrics(&self) -> &StreamMetrics {
        &self.metrics
    }

    /// Number of addresses with tracked state.
    pub fn num_tracked(&self) -> usize {
        self.states.len()
    }

    /// History length of one tracked address (0 when untracked).
    pub fn history_len(&self, addr: Address) -> usize {
        self.states.get(&addr).map_or(0, |s| s.history.len())
    }

    /// Cached per-slice embeddings of one tracked address. Entries are
    /// current as of the last reclassification (stale tails are re-embedded
    /// there, not here); call [`Follower::reclassify_dirty`] first when the
    /// bytes must reflect the tip.
    pub fn embeddings(&self, addr: Address) -> Option<&[Matrix]> {
        self.states.get(&addr).map(|s| s.embeds.as_slice())
    }

    /// History lengths of every tracked address — cheap identity probe for
    /// comparing a sharded union against an unsharded follower.
    pub fn history_lens(&self) -> BTreeMap<Address, usize> {
        self.states
            .iter()
            .map(|(a, s)| (*a, s.history.len()))
            .collect()
    }

    /// Apply one block to per-address state. Blocks must arrive in height
    /// order; blocks below `next_height` are skipped silently so a resumed
    /// follower can overlap with an already-ingested prefix.
    pub fn ingest_block(&mut self, block: &Block) {
        if block.height < self.next_height {
            return;
        }
        assert_eq!(
            block.height, self.next_height,
            "blocks must arrive in height order"
        );
        let start = Instant::now();
        let slice_size = self.clf.config().construction.slice_size;
        let mut seen = HashSet::new();
        for tx in &block.txs {
            // Made on the first tracked address the transaction touches.
            let mut view: Option<Arc<TxView>> = None;
            // The chain's own history rule, so histories stay byte-identical
            // to Dataset::from_chain.
            for addr in tx.participants(&mut seen) {
                if !self.cfg.tracks(addr) {
                    continue;
                }
                let state = self.states.entry(addr).or_default();
                if state.dirty {
                    // Already awaiting reclassification: this flip coalesces
                    // into the one re-embed the next cadence tick performs.
                    self.metrics.coalesced_flips += 1;
                }
                let view = view.get_or_insert_with(|| Arc::new(TxView::from(tx)));
                state.apply(view, slice_size);
                self.metrics.tx_applications += 1;
            }
            self.metrics.txs_ingested += 1;
        }
        self.next_height = block.height + 1;
        self.metrics.blocks_ingested += 1;
        self.metrics.ingest_time += start.elapsed();
    }

    /// Re-derive, re-embed, and reclassify every dirty address with at
    /// least `min_txs` transactions. Returns how many were reclassified.
    ///
    /// The dirty set is processed as micro-batches: every flip of an
    /// address since the last tick coalesces into one unit of work, the
    /// stale slice graphs of a whole batch are embedded together across
    /// `reclass_threads` workers sharing this follower's classifier, and
    /// the capped embedding sequences go through
    /// `classify_embeddings_batch` — each worker runs its chunk as one
    /// ragged-batch LSTM forward pass (one fused-gate matmul per timestep
    /// over the still-active sequences). Labels and embeddings are
    /// byte-identical to the per-address serial path at any thread count.
    /// Addresses go in address order; every one is processed in this call,
    /// so the order changes no output.
    ///
    /// Addresses still under the `min_txs` threshold keep their dirty bit
    /// — they are deferred, not dropped, so a later cadence (or a restore
    /// with a lowered threshold) picks them up.
    pub fn reclassify_dirty(&mut self) -> usize {
        self.reclassify_in_batches(RECLASS_BATCH)
    }

    /// [`Follower::reclassify_dirty`] with at most `cap` addresses a
    /// micro-batch.
    fn reclassify_in_batches(&mut self, cap: usize) -> usize {
        let start = Instant::now();
        let eligible: Vec<Address> = self
            .states
            .iter()
            .filter(|(_, state)| state.dirty && state.history.len() >= self.cfg.min_txs)
            .map(|(addr, _)| *addr)
            .collect();
        self.metrics.priority_depth = eligible.len() as u64;
        let threads = resolve_threads(self.cfg.reclass_threads);
        let max_slices = self.clf.config().model.max_slices.max(1);
        let mut reclassified = 0;
        for chunk in eligible.chunks(cap) {
            reclassified += self.reclassify_batch(chunk, threads, max_slices);
        }
        self.metrics.reclass_time += start.elapsed();
        reclassified
    }

    /// One micro-batch of the batched reclassification stage: gather every
    /// member's stale slice graphs, embed them together across the
    /// workers, scatter the embeddings back, then classify the capped
    /// sequences together the same way.
    fn reclassify_batch(&mut self, batch: &[Address], threads: usize, max_slices: usize) -> usize {
        let t0 = Instant::now();
        // Gather. Multiple flips of an address since the last tick appear
        // here once: the dirty bit is level-triggered, and the stale range
        // `embeds_clean..` covers every slice any of those flips touched.
        // The derived graphs live until the embed below and no longer.
        let construction = &self.clf.config().construction;
        let mut stale_counts: Vec<usize> = Vec::with_capacity(batch.len());
        let mut graphs: Vec<AddressGraph> = Vec::new();
        for &addr in batch {
            let state = self.states.get_mut(&addr).expect("dirty address tracked");
            state.dirty = false;
            let num_slices = state.history.len().div_ceil(construction.slice_size);
            let stale = num_slices - state.embeds_clean;
            stale_counts.push(stale);
            if stale == 0 {
                continue;
            }
            let inc = state.inc.get_or_insert_with(|| {
                let history = state.history.iter().map(Arc::as_ref);
                IncrementalGraphs::from_history(addr, history, construction.clone())
            });
            // What `inc` retains starts at or before the first stale slice.
            let derived = inc.graphs();
            let current = derived.len() - stale;
            graphs.extend(derived.into_iter().skip(current));
            inc.forget_frozen();
        }
        let total_slices = graphs.len() as u64;

        // Embed the whole batch across the workers, then scatter
        // the results back in gather order.
        let mut embedded = self.clf.embed_graphs(&graphs, threads).into_iter();
        for (&addr, &n) in batch.iter().zip(&stale_counts) {
            let state = self.states.get_mut(&addr).expect("dirty address tracked");
            state.embeds.truncate(state.embeds_clean);
            state.embeds.extend(embedded.by_ref().take(n));
            state.embeds_clean = state.embeds.len();
        }
        let seqs: Vec<&[Matrix]> = batch
            .iter()
            .map(|addr| {
                let embeds = &self.states[addr].embeds;
                &embeds[embeds.len().saturating_sub(max_slices)..]
            })
            .collect();

        // Classify through the batched head and install labels + margins.
        let labeled = self
            .clf
            .classify_embeddings_batch(&seqs, threads)
            .expect("non-empty sequences on a fitted classifier");
        for (&addr, (label, margin)) in batch.iter().zip(labeled) {
            let state = self.states.get_mut(&addr).expect("dirty address tracked");
            state.margin = Some(margin);
            let prev = self.labels.insert(addr, label);
            if prev.is_some() && prev != Some(label) {
                self.metrics.label_flips += 1;
            }
        }
        self.metrics
            .record_reclass_batch(batch.len() as u64, total_slices, t0.elapsed());
        batch.len()
    }

    /// Ingest one block and run the reclassification its height triggers.
    /// Nothing here touches disk: whoever drives the follower makes the
    /// block durable first and decides when to [`Follower::snapshot_to`].
    pub fn step(&mut self, block: &Block) {
        self.ingest_block(block);
        if self.cfg.reclass_every > 0 && self.next_height.is_multiple_of(self.cfg.reclass_every) {
            self.reclassify_dirty();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use baclassifier::BacConfig;
    use btcsim::{BlockCursor, Dataset, SimConfig, Simulator};
    use std::collections::HashMap;

    pub(crate) fn test_sim(seed: u64, blocks: u64) -> SimConfig {
        SimConfig {
            blocks,
            ..SimConfig::tiny(seed)
        }
    }

    /// `(distinct Arc<TxView> allocations, distinct txids)` over every
    /// history: equal when each transaction is held once.
    pub(crate) fn distinct_txs(follower: &Follower) -> (usize, usize) {
        let views = || follower.states.values().flat_map(|s| &s.history);
        let ptrs: HashSet<_> = views().map(Arc::as_ptr).collect();
        let txids: HashSet<_> = views().map(|v| v.txid).collect();
        (ptrs.len(), txids.len())
    }

    /// A follower can be built on one thread and run on another; this did
    /// not compile while its classifier's parameters were thread-bound.
    #[test]
    fn follower_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Follower>();
    }

    #[test]
    fn follower_labels_match_batch_pipeline_at_tip() {
        let cfg = test_sim(11, 30);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(cfg.clone()) {
            follower.step(&block);
        }

        let sim = Simulator::run_to_completion(cfg);
        let ds = Dataset::from_simulator(&sim, follower.cfg.min_txs);
        let clf = BaClassifier::from_artifact(&artifact).unwrap();
        assert!(!ds.is_empty());
        for record in &ds.records {
            let want = clf.predict(record).unwrap();
            assert_eq!(
                follower.labels().get(&record.address),
                Some(&want),
                "address {:?} diverged from the batch pipeline",
                record.address
            );
            assert_eq!(follower.history_len(record.address), record.txs.len());
        }
    }

    #[test]
    fn histories_match_batch_dataset_exactly() {
        let cfg = test_sim(13, 25);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(cfg.clone()) {
            follower.ingest_block(&block);
        }
        let sim = Simulator::run_to_completion(cfg);
        let ds = Dataset::from_simulator(&sim, 1);
        for record in &ds.records {
            let state = follower.states.get(&record.address).unwrap();
            assert!(
                state.history.iter().map(Arc::as_ref).eq(&record.txs),
                "history for {:?}",
                record.address
            );
        }
    }

    #[test]
    fn min_txs_gates_classification_not_tracking() {
        let cfg = test_sim(17, 20);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let follower_cfg = FollowerConfig {
            min_txs: 10_000, // nothing qualifies
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, follower_cfg).unwrap();
        for block in BlockCursor::new(cfg) {
            follower.step(&block);
        }
        assert!(follower.num_tracked() > 0);
        assert!(follower.labels().is_empty());
    }

    #[test]
    fn tracked_filter_restricts_state() {
        let cfg = test_sim(19, 20);
        let sim = Simulator::run_to_completion(cfg.clone());
        let ds = Dataset::from_simulator(&sim, 3);
        let target = ds.records[0].address;
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let follower_cfg = FollowerConfig {
            tracked: Some(BTreeSet::from([target])),
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, follower_cfg).unwrap();
        for block in BlockCursor::new(cfg) {
            follower.step(&block);
        }
        assert_eq!(follower.num_tracked(), 1);
        assert_eq!(follower.history_len(target), ds.records[0].txs.len());
        assert!(follower.labels().contains_key(&target));
    }

    #[test]
    fn already_seen_blocks_are_skipped() {
        let cfg = test_sim(23, 10);
        let blocks: Vec<Block> = BlockCursor::new(cfg).collect();
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for b in &blocks {
            follower.ingest_block(b);
        }
        let applications = follower.metrics().tx_applications;
        // Replaying the whole chain must be a no-op.
        for b in &blocks {
            follower.ingest_block(b);
        }
        assert_eq!(follower.metrics().tx_applications, applications);
        assert_eq!(follower.next_height(), blocks.len() as u64);
    }

    #[test]
    fn streamed_embeddings_match_batch_embed_record_bytewise() {
        // The follower re-embeds through the CSR-prepared GFN path; its
        // per-slice cache must stay byte-identical to the batch
        // `embed_record` pipeline.
        let cfg = test_sim(31, 25);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(cfg.clone()) {
            follower.step(&block);
        }
        follower.reclassify_dirty();
        let sim = Simulator::run_to_completion(cfg);
        let ds = Dataset::from_simulator(&sim, follower.cfg.min_txs);
        let clf = BaClassifier::from_artifact(&artifact).unwrap();
        assert!(!ds.is_empty());
        for record in &ds.records {
            let batch = clf.embed_record(record);
            let state = follower.states.get(&record.address).unwrap();
            assert_eq!(
                state.embeds.len(),
                batch.len(),
                "slice count for {:?}",
                record.address
            );
            for (streamed, reference) in state.embeds.iter().zip(&batch) {
                assert_eq!(
                    streamed.as_slice(),
                    reference.as_slice(),
                    "embedding bytes for {:?}",
                    record.address
                );
            }
        }
    }

    #[test]
    fn engine_cache_keys_are_unaffected_by_embedding_path() {
        // Serving cache keys are (address id, history length, generation) —
        // independent of how embeddings are computed — so a repeat lookup
        // must hit the cache and follower invalidation must still re-key.
        use baserve::{Engine, EngineConfig};
        let cfg = test_sim(37, 20);
        let sim = Simulator::run_to_completion(cfg);
        let ds = Dataset::from_simulator(&sim, 3);
        let record = ds.records[0].clone();
        let engine = Engine::new(
            Arc::new(ModelArtifact::untrained(BacConfig::fast())),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let first = engine.classify(record.clone()).unwrap();
        let second = engine.classify(record.clone()).unwrap();
        assert_eq!(first.label, second.label);
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1, "repeat lookup must be key-cached");
        // Invalidation bumps the generation: the next lookup misses.
        engine.invalidate_address(record.address);
        engine.classify(record).unwrap();
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.invalidations, 1);
        engine.shutdown();
    }

    #[test]
    fn under_threshold_addresses_keep_their_dirty_bit() {
        // Regression: reclassify_dirty used to clear the dirty bit before
        // the min_txs gate, so a skipped address silently lost its pending
        // work and a later cadence (or a restore with a lowered threshold)
        // never picked it up.
        let cfg = test_sim(41, 20);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let follower_cfg = FollowerConfig {
            min_txs: 10_000, // nothing qualifies
            reclass_every: 0,
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, follower_cfg).unwrap();
        for block in BlockCursor::new(cfg) {
            follower.ingest_block(&block);
        }
        assert!(follower.num_tracked() > 0);
        assert_eq!(follower.reclassify_dirty(), 0);
        assert!(
            follower.states.values().all(|s| s.dirty),
            "skipped addresses must stay dirty"
        );
        // Lowering the threshold (as a restore with a smaller min_txs
        // would) must pick the deferred addresses straight up, with no new
        // transactions needed.
        follower.cfg.min_txs = 1;
        let reclassified = follower.reclassify_dirty();
        assert_eq!(reclassified, follower.num_tracked());
        assert!(follower.states.values().all(|s| !s.dirty));
    }

    #[test]
    fn restore_with_a_lower_threshold_picks_up_deferred_addresses() {
        // The same hand-over across a snapshot: nothing qualifies when it is
        // written, so no address has a label, and a restore under a lower
        // `min_txs` must find every one of them still dirty.
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let with_min_txs = |min_txs| FollowerConfig {
            min_txs,
            reclass_every: 0,
            ..FollowerConfig::default()
        };
        let mut deferred = Follower::new(&artifact, with_min_txs(10_000)).unwrap();
        let mut uninterrupted = Follower::new(&artifact, with_min_txs(1)).unwrap();
        for block in BlockCursor::new(test_sim(41, 20)) {
            deferred.ingest_block(&block);
            uninterrupted.ingest_block(&block);
        }
        let path = std::env::temp_dir().join(format!("bstream_lowered_{}", std::process::id()));
        deferred.snapshot_to(&path).unwrap();
        assert!(deferred.labels().is_empty());
        let mut restored = Follower::restore(&artifact, with_min_txs(1), &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(restored.num_tracked() > 0);
        assert_eq!(restored.reclassify_dirty(), restored.num_tracked());
        uninterrupted.reclassify_dirty();
        assert_eq!(restored.labels(), uninterrupted.labels());
        assert!(restored.states.values().all(|s| !s.dirty));
    }

    #[test]
    fn state_holds_each_fact_once() {
        use baclassifier::construction::{Edge, Node};
        use std::mem::size_of;

        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let follower_cfg = FollowerConfig {
            reclass_every: 5,
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, follower_cfg).unwrap();
        for block in BlockCursor::new(test_sim(42, 60)) {
            follower.step(&block);
        }
        follower.reclassify_dirty();
        let min_txs = follower.cfg.min_txs;
        let construction = follower.clf.config().construction.clone();

        let graph_bytes = |gs: &[AddressGraph]| -> usize {
            let of = |g: &AddressGraph| {
                size_of::<AddressGraph>()
                    + g.nodes.len() * size_of::<Node>()
                    + g.edges.len() * size_of::<Edge>()
            };
            gs.iter().map(of).sum()
        };
        let view_bytes = |v: &TxView| {
            size_of::<TxView>()
                + (v.inputs.len() + v.outputs.len()) * size_of::<(Address, btcsim::Amount)>()
        };

        // Histories + graphs as held now, and as the parent layout held the
        // same facts: a `TxView` per application, every slice's raw graph
        // for every address, every slice's derived graph once classified.
        let (mut now, mut parent) = (0, 0);
        let (mut classified, mut applications) = (0, 0);
        for (&addr, state) in &mut follower.states {
            applications += state.history.len();
            now += state.history.len() * size_of::<Arc<TxView>>();
            parent += state.history.iter().map(|v| view_bytes(v)).sum::<usize>();
            let history = state.history.iter().map(Arc::as_ref);
            let mut whole = IncrementalGraphs::from_history(addr, history, construction.clone());
            parent += graph_bytes(whole.raw_graphs());
            if state.history.len() < min_txs {
                assert!(state.inc.is_none(), "{addr:?} is not classified yet");
                continue;
            }
            parent += graph_bytes(&whole.graphs());
            classified += 1;
            let retained = state.inc.as_mut().expect("classified").raw_graphs();
            assert_eq!(retained.len(), 1, "{addr:?} retains its open slice only");
            assert_eq!(retained[0].slice_index + 1, whole.num_slices());
            assert_eq!(state.embeds.len(), whole.num_slices());
            now += graph_bytes(retained);
        }
        assert!(classified > 0 && classified < follower.num_tracked());

        let (ptrs, txids) = distinct_txs(&follower);
        assert_eq!(ptrs, txids, "one Arc<TxView> per transaction");
        assert!(
            txids < applications,
            "some transaction touches two addresses"
        );
        let shared: HashMap<_, _> = follower
            .states
            .values()
            .flat_map(|s| &s.history)
            .map(|v| (Arc::as_ptr(v), view_bytes(v) + 2 * size_of::<usize>()))
            .collect();
        now += shared.values().sum::<usize>();

        let tracked = follower.num_tracked();
        println!(
            "histories + graphs per tracked address: {} B now, {} B in the parent layout \
             ({tracked} tracked, {classified} classified, {applications} applications of \
             {txids} transactions)",
            now / tracked,
            parent / tracked
        );
        assert!(now * 2 <= parent, "{now} B now vs {parent} B at the parent");

        // Every embedding is current: relabelling all of them embeds nothing.
        let (labels, slices) = (
            follower.labels.clone(),
            follower.metrics.reclass_batch_slices,
        );
        follower.mark_all_dirty();
        assert_eq!(follower.reclassify_dirty(), classified);
        assert_eq!(follower.metrics.reclass_batch_slices, slices);
        assert_eq!(follower.labels, labels);
    }

    #[test]
    fn coalesced_flips_and_batch_metrics_are_counted() {
        let cfg = test_sim(43, 30);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let follower_cfg = FollowerConfig {
            reclass_every: 0, // manual ticks
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, follower_cfg).unwrap();
        for block in BlockCursor::new(cfg) {
            follower.ingest_block(&block);
        }
        // Every tracked address was touched at least once; busy ones were
        // touched while already dirty, which must be coalesced.
        let m = follower.metrics();
        assert!(m.coalesced_flips > 0);
        assert_eq!(
            m.tx_applications,
            m.coalesced_flips + follower.num_tracked() as u64,
            "every application either dirtied a clean address or coalesced"
        );
        let n = follower.reclassify_dirty();
        assert!(n > 0);
        let m = follower.metrics();
        assert!(m.reclass_batches > 0);
        assert_eq!(m.reclass_batch_addrs, n as u64);
        assert_eq!(m.priority_depth, n as u64);
        assert!(m.reclass_batch_slices >= n as u64);
    }

    #[test]
    fn batch_size_split_does_not_change_labels_or_embeddings() {
        let blocks: Vec<Block> = BlockCursor::new(test_sim(47, 25)).collect();
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        // Every block is a tick, each cut into micro-batches of at most `cap`.
        let run = |cap: usize, reclass_threads: usize| {
            let cfg = FollowerConfig {
                reclass_every: 0,
                reclass_threads,
                ..FollowerConfig::default()
            };
            let mut follower = Follower::new(&artifact, cfg).unwrap();
            for block in &blocks {
                follower.ingest_block(block);
                follower.reclassify_in_batches(cap);
            }
            follower
        };
        let whole = run(usize::MAX, 1);
        assert!(!whole.labels().is_empty());
        for threads in [1, 4] {
            for cap in [1, 3, usize::MAX] {
                let split = run(cap, threads);
                assert_eq!(
                    split.labels(),
                    whole.labels(),
                    "cap {cap}, threads {threads}"
                );
                assert_eq!(split.num_tracked(), whole.num_tracked());
                for addr in whole.states.keys() {
                    let got = split.embeddings(*addr).expect("tracked by both");
                    let want = whole.embeddings(*addr).expect("tracked");
                    assert_eq!(got.len(), want.len());
                    for (x, y) in got.iter().zip(want) {
                        assert_eq!(x.as_slice(), y.as_slice(), "embeddings for {addr:?}");
                    }
                }
                if cap == 1 {
                    let m = split.metrics();
                    assert_eq!(m.reclass_batches, m.reclass_batch_addrs);
                    assert!(m.reclass_batches > whole.metrics().reclass_batches);
                }
            }
        }
    }

    #[test]
    fn reclassify_only_touches_dirty_addresses() {
        let cfg = test_sim(29, 20);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let follower_cfg = FollowerConfig {
            reclass_every: 0, // manual control
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, follower_cfg).unwrap();
        for block in BlockCursor::new(cfg) {
            follower.ingest_block(&block);
        }
        let first = follower.reclassify_dirty();
        assert!(first > 0);
        // Nothing changed since: the second pass must be free.
        assert_eq!(follower.reclassify_dirty(), 0);
    }
}
