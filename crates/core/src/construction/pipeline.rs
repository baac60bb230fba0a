//! The four-stage address-graph construction pipeline (paper §IV-E1).

use crate::config::ConstructionConfig;
use crate::construction::address_graph::{AddressGraph, Edge};
use crate::construction::augment::augment_with_centralities;
use crate::construction::compress::{Merges, MultiCompressParams};
use crate::construction::extract::{raw_slices, seed_slice, AddrNodes};
use crate::construction::sfe::seed_sfe;
use btcsim::AddressRecord;

/// Construct the compressed, augmented graph list for one address: one
/// graph per slice, chronological.
pub fn construct_address_graphs(
    record: &AddressRecord,
    cfg: &ConstructionConfig,
) -> Vec<AddressGraph> {
    let raw = raw_slices(AddrNodes::default(), record, cfg.slice_size);
    raw.iter().map(|g| derive_slice(cfg, g)).collect()
}

/// Stages 2–4 on one raw slice, honouring the config's ablation flags. Both
/// the batch pipeline and
/// [`IncrementalGraphs`](crate::construction::IncrementalGraphs) derive a
/// slice through here. Both stages plan on `raw`, one rebuild writes the
/// compressed slice, and one SFE pass seeds every node that survives from
/// `raw`'s edges — `raw`'s own features are never read.
pub(crate) fn derive_slice(cfg: &ConstructionConfig, raw: &AddressGraph) -> AddressGraph {
    let mut g = if cfg.compress {
        let mut merges = Merges::new(raw);
        merges.plan_single();
        merges.plan_multi(MultiCompressParams {
            psi: cfg.psi,
            sigma: cfg.sigma,
        });
        let (mut g, to) = merges.rebuild();
        let at = |e: &Edge| [Some(to[e.addr_node] as usize), Some(to[e.tx_node] as usize)];
        seed_sfe(&mut g.nodes, &raw.edges, at);
        g
    } else {
        let mut g = raw.clone();
        seed_slice(&mut g);
        g
    };
    if cfg.augment {
        augment_with_centralities(&mut g);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConstructionConfig;
    use crate::parallel::parallel_map;
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
            let graphs = construct_address_graphs(r, &cfg);
            assert!(!graphs.is_empty());
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
            let on = construct_address_graphs(r, &cfg_on);
            let off = construct_address_graphs(r, &cfg_off);
            for (a, b) in on.iter().zip(&off) {
                assert!(a.num_nodes() <= b.num_nodes());
            }
        }
    }

    #[test]
    fn augment_flag_controls_centralities() {
        let ds = dataset();
        let r = &ds.records[0];
        let with = construct_address_graphs(r, &ConstructionConfig::default());
        let without = construct_address_graphs(
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
        let construct =
            |threads| parallel_map(threads, &records, |r| construct_address_graphs(r, &cfg));
        let (serial, parallel) = (construct(1), construct(4));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.num_nodes(), y.num_nodes());
                assert_eq!(x.num_edges(), y.num_edges());
            }
        }
    }
}
