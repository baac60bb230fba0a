//! Mining-pool analysis: shows how the address-graph construction pipeline
//! (extraction → compression → augmentation) tames the enormous payout
//! fan-out of pool addresses — the motivating case for the paper's
//! multi-transaction address compression (Fig. 4).
//!
//! ```sh
//! cargo run --release -p bac-examples --bin mining_pool_monitor
//! ```

use baclassifier::config::ConstructionConfig;
use baclassifier::construction::{
    compress_multi_tx, compress_single_tx, construct_address_graphs, extract_original_graphs,
    MultiCompressParams, NodeKind,
};
use btcsim::{Dataset, Label, SimConfig, Simulator};

fn main() {
    println!("simulating with large mining pools…");
    let sim = Simulator::run_to_completion(SimConfig {
        blocks: 150,
        miners_per_pool: 250,
        ..SimConfig::tiny(31)
    });
    let dataset = Dataset::from_simulator(&sim, 2);

    // The pool reward address is the busiest Mining-labeled address.
    let pool = dataset
        .records
        .iter()
        .filter(|r| r.label == Label::Mining)
        .max_by_key(|r| r.num_txs())
        .expect("mining addresses exist");
    println!(
        "pool address {}: {} transactions (payout fan-out to ~250 miners each)",
        pool.address,
        pool.num_txs()
    );

    // Walk the compression pipeline slice by slice and show the shrinkage.
    let originals = extract_original_graphs(pool, 100);
    println!(
        "\n{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "slice", "original", "stage2", "stage3", "s-hypers", "m-hypers"
    );
    for (i, g) in originals.iter().enumerate() {
        let s2 = compress_single_tx(g);
        let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            i,
            g.num_nodes(),
            s2.num_nodes(),
            s3.num_nodes(),
            s3.count_kind(NodeKind::SingleHyper),
            s3.count_kind(NodeKind::MultiHyper),
        );
    }

    // The full four-stage pipeline, as `predict` runs it.
    let graphs = construct_address_graphs(pool, &ConstructionConfig::default());
    println!("\nfull pipeline: {} slice graphs", graphs.len());

    // The miner cohort should have been merged into multi-transaction hyper
    // nodes; show the biggest one.
    if let Some((g, node)) = graphs
        .iter()
        .flat_map(|g| g.nodes.iter().map(move |n| (g, n)))
        .filter(|(_, n)| n.kind == NodeKind::MultiHyper)
        .max_by_key(|(_, n)| n.merged_count)
    {
        println!(
            "largest miner cohort: {} addresses merged into one hyper node (slice {}), \
             SFE count={} mean={:.4} BTC",
            node.merged_count,
            g.slice_index,
            node.sfe.count(),
            node.sfe.mean(),
        );
    }
}
