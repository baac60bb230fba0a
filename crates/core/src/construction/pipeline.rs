//! The four-stage address-graph construction pipeline with per-stage timing
//! (paper §IV-E1, Table V).

use crate::config::ConstructionConfig;
use crate::construction::address_graph::{AddressGraph, Edge};
use crate::construction::augment::augment_with_centralities;
use crate::construction::compress::{Merges, MultiCompressParams};
use crate::construction::extract::{raw_slices, seed_slice};
use crate::construction::sfe::seed_sfe;
use crate::parallel::parallel_map;
use btcsim::AddressRecord;
use std::time::{Duration, Instant};

/// Wall-clock spent in each construction stage (Table V rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Stage 1: original graph extraction.
    pub extract: Duration,
    /// Stage 2: single-transaction address compression.
    pub single_compress: Duration,
    /// Stage 3: multi-transaction address compression.
    pub multi_compress: Duration,
    /// Stage 4: graph structure augmentation.
    pub augment: Duration,
}

impl StageTimings {
    pub fn total(&self) -> Duration {
        self.extract + self.single_compress + self.multi_compress + self.augment
    }

    /// Per-stage share of the total, in Table V order.
    pub fn ratios(&self) -> [f64; 4] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            self.extract.as_secs_f64() / total,
            self.single_compress.as_secs_f64() / total,
            self.multi_compress.as_secs_f64() / total,
            self.augment.as_secs_f64() / total,
        ]
    }

    pub fn accumulate(&mut self, other: &StageTimings) {
        self.extract += other.extract;
        self.single_compress += other.single_compress;
        self.multi_compress += other.multi_compress;
        self.augment += other.augment;
    }
}

/// Construct the compressed, augmented graph list for one address,
/// returning the graphs (chronological, one per slice) and stage timings.
pub fn construct_address_graphs(
    record: &AddressRecord,
    cfg: &ConstructionConfig,
) -> (Vec<AddressGraph>, StageTimings) {
    let mut t = StageTimings::default();
    let start = Instant::now();
    let raw = raw_slices(record, cfg.slice_size);
    t.extract = start.elapsed();
    let graphs = raw.iter().map(|g| derive_slice(cfg, g, &mut t)).collect();
    (graphs, t)
}

/// Stages 2–4 on one raw slice, honouring the config's ablation flags; each
/// stage's wall clock is added to `t`. Both the batch pipeline and
/// [`IncrementalGraphs`](crate::construction::IncrementalGraphs) derive a
/// slice through here. Both stages plan on `raw`, one rebuild writes the
/// compressed slice, and one SFE pass seeds every node that survives from
/// `raw`'s edges — `raw`'s own features are never read. That pass counts
/// towards Stage 1, which seeds on the public chain.
pub(crate) fn derive_slice(
    cfg: &ConstructionConfig,
    raw: &AddressGraph,
    t: &mut StageTimings,
) -> AddressGraph {
    let start = Instant::now();
    let mut g = if cfg.compress {
        let mut merges = Merges::new(raw);
        merges.plan_single();
        let between = Instant::now();
        merges.plan_multi(MultiCompressParams {
            psi: cfg.psi,
            sigma: cfg.sigma,
        });
        let (mut g, to) = merges.rebuild();
        let rebuilt = Instant::now();
        let at = |e: &Edge| [Some(to[e.addr_node] as usize), Some(to[e.tx_node] as usize)];
        seed_sfe(&mut g.nodes, &raw.edges, at);
        t.single_compress += between - start;
        t.multi_compress += rebuilt - between;
        t.extract += rebuilt.elapsed();
        g
    } else {
        let mut g = raw.clone();
        seed_slice(&mut g);
        t.extract += start.elapsed();
        g
    };
    if cfg.augment {
        let start = Instant::now();
        augment_with_centralities(&mut g);
        t.augment += start.elapsed();
    }
    g
}

/// Construct graphs for a whole dataset split, in parallel across addresses
/// (the paper notes construction "can be processed in parallel using
/// multiple processes"); timings are summed across workers, so they remain
/// comparable to single-core totals.
pub fn construct_dataset_graphs(
    records: &[AddressRecord],
    cfg: &ConstructionConfig,
    threads: usize,
) -> (Vec<Vec<AddressGraph>>, StageTimings) {
    let mut all = Vec::with_capacity(records.len());
    let mut total = StageTimings::default();
    for (graphs, t) in parallel_map(threads, records, |r| construct_address_graphs(r, cfg)) {
        total.accumulate(&t);
        all.push(graphs);
    }
    (all, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConstructionConfig;
    use btcsim::{Dataset, SimConfig, Simulator};

    fn dataset() -> Dataset {
        let sim = Simulator::run_to_completion(SimConfig::tiny(5));
        Dataset::from_simulator(&sim, 2)
    }

    #[test]
    fn pipeline_produces_valid_graphs_for_real_records() {
        let ds = dataset();
        let cfg = ConstructionConfig::default();
        for r in ds.records.iter().take(40) {
            let (graphs, t) = construct_address_graphs(r, &cfg);
            assert!(!graphs.is_empty());
            assert!(t.extract > Duration::ZERO);
            for g in &graphs {
                assert_eq!(g.check_invariants(), Ok(()));
                assert!(g.num_txs <= cfg.slice_size);
            }
        }
    }

    #[test]
    fn compression_never_grows_the_graph() {
        let ds = dataset();
        let cfg_on = ConstructionConfig::default();
        let cfg_off = ConstructionConfig {
            compress: false,
            ..Default::default()
        };
        for r in ds.records.iter().take(30) {
            let (on, _) = construct_address_graphs(r, &cfg_on);
            let (off, _) = construct_address_graphs(r, &cfg_off);
            for (a, b) in on.iter().zip(&off) {
                assert!(a.num_nodes() <= b.num_nodes());
            }
        }
    }

    #[test]
    fn augment_flag_controls_centralities() {
        let ds = dataset();
        let r = &ds.records[0];
        let (with, _) = construct_address_graphs(r, &ConstructionConfig::default());
        let (without, _) = construct_address_graphs(
            r,
            &ConstructionConfig {
                augment: false,
                ..Default::default()
            },
        );
        assert!(without[0].nodes.iter().all(|n| n.centrality == [0.0; 4]));
        // With augmentation at least some node has a nonzero centrality.
        assert!(with[0].nodes.iter().any(|n| n.centrality[0] > 0.0));
    }

    #[test]
    fn parallel_matches_serial_output_shape() {
        let ds = dataset();
        let records: Vec<_> = ds.records.iter().take(20).cloned().collect();
        let cfg = ConstructionConfig::default();
        let (serial, _) = construct_dataset_graphs(&records, &cfg, 1);
        let (parallel, _) = construct_dataset_graphs(&records, &cfg, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.num_nodes(), y.num_nodes());
                assert_eq!(x.num_edges(), y.num_edges());
            }
        }
    }

    #[test]
    fn timings_ratios_sum_to_one() {
        let ds = dataset();
        let (_, t) = construct_dataset_graphs(&ds.records, &ConstructionConfig::default(), 1);
        let sum: f64 = t.ratios().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ratios sum to {sum}");
    }
}
