//! Property-style invariants of the construction pipeline on real simulated
//! histories, across parameter settings.

use baclassifier::config::ConstructionConfig;
use baclassifier::construction::{construct_address_graphs, NodeKind};
use baclassifier::features::{graph_tensors, NODE_FEAT_DIM};
use btcsim::{Dataset, SimConfig, Simulator};

fn dataset() -> Dataset {
    let sim = Simulator::run_to_completion(SimConfig::tiny(606));
    Dataset::from_simulator(&sim, 2)
}

#[test]
fn invariants_hold_across_slice_sizes() {
    let ds = dataset();
    for slice_size in [5, 20, 100] {
        let cfg = ConstructionConfig {
            slice_size,
            ..Default::default()
        };
        for r in ds.records.iter().take(25) {
            let graphs = construct_address_graphs(r, &cfg);
            assert_eq!(graphs.len(), r.num_txs().div_ceil(slice_size));
            for g in &graphs {
                assert_eq!(g.check_invariants(), Ok(()), "slice_size {slice_size}");
                assert!(g.num_txs <= slice_size);
                assert_eq!(g.count_kind(NodeKind::Transaction), g.num_txs);
            }
        }
    }
}

#[test]
fn merged_counts_account_for_every_original_address() {
    // Compression may merge but never lose address mass: the sum of
    // merged_count over address-like nodes equals the number of distinct
    // addresses in the uncompressed graph.
    let ds = dataset();
    let on = ConstructionConfig::default();
    let off = ConstructionConfig {
        compress: false,
        ..Default::default()
    };
    for r in ds.records.iter().take(25) {
        let compressed = construct_address_graphs(r, &on);
        let original = construct_address_graphs(r, &off);
        for (c, o) in compressed.iter().zip(&original) {
            let compressed_mass: usize = c
                .nodes
                .iter()
                .filter(|n| n.is_address_like())
                .map(|n| n.merged_count)
                .sum();
            let original_mass = o.nodes.iter().filter(|n| n.is_address_like()).count();
            assert_eq!(compressed_mass, original_mass, "address {}", r.address);
        }
    }
}

#[test]
fn total_edge_value_is_preserved_by_compression() {
    let ds = dataset();
    let on = ConstructionConfig::default();
    let off = ConstructionConfig {
        compress: false,
        ..Default::default()
    };
    for r in ds.records.iter().take(25) {
        let compressed = construct_address_graphs(r, &on);
        let original = construct_address_graphs(r, &off);
        for (c, o) in compressed.iter().zip(&original) {
            let cv: f64 = c.edges.iter().map(|e| e.value).sum();
            let ov: f64 = o.edges.iter().map(|e| e.value).sum();
            assert!((cv - ov).abs() < 1e-6 * (1.0 + ov), "{cv} vs {ov}");
        }
    }
}

#[test]
fn tensors_are_finite_for_every_constructed_graph() {
    let ds = dataset();
    let cfg = ConstructionConfig::default();
    for r in ds.records.iter().take(40) {
        let graphs = construct_address_graphs(r, &cfg);
        for g in &graphs {
            let t = graph_tensors(g);
            assert_eq!(t.x.cols(), NODE_FEAT_DIM);
            assert!(t.x.all_finite());
            assert!((0..t.adj.n()).all(|r| t.adj.row(r).all(|(_, v)| v.is_finite())));
            assert!(t.degrees.iter().all(|d| d.is_finite()));
        }
    }
}

#[test]
fn stricter_psi_merges_less() {
    let ds = dataset();
    // The busiest address exercises multi-compression hardest.
    let r = ds
        .records
        .iter()
        .max_by_key(|r| r.num_txs())
        .expect("non-empty");
    let loose = ConstructionConfig {
        psi: 0.2,
        sigma: 0,
        ..Default::default()
    };
    let strict = ConstructionConfig {
        psi: 0.95,
        sigma: 5,
        ..Default::default()
    };
    let lg = construct_address_graphs(r, &loose);
    let sg = construct_address_graphs(r, &strict);
    let nodes = |gs: &[baclassifier::construction::AddressGraph]| -> usize {
        gs.iter().map(|g| g.num_nodes()).sum()
    };
    assert!(
        nodes(&lg) <= nodes(&sg),
        "loose {} vs strict {}",
        nodes(&lg),
        nodes(&sg)
    );
}
