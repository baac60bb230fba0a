//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every table/figure binary accepts `--scale small|paper` (default `paper`)
//! and `--seed N`, nothing else: `small` finishes in seconds for smoke-testing;
//! `paper` matches the evaluation scale recorded in EXPERIMENTS.md.

use baclassifier::config::ConstructionConfig;
use baclassifier::construction::{
    augment_with_centralities, compress_multi_tx, compress_single_tx, construct_address_graphs,
    extract_original_graphs, AddressGraph, MultiCompressParams,
};
use baclassifier::features::graph_tensors;
use baclassifier::models::{GraphModel, PreparedGraph};
use baclassifier::parallel::parallel_map;
use baserve::cli::{usage_error, Args};
use btcsim::actors::retail::RetailConfig;
use btcsim::{AddressRecord, Dataset, SimConfig, Simulator};
use std::time::{Duration, Instant};

/// Experiment scale knobs.
#[derive(Clone, Debug)]
pub struct ExpScale {
    /// Simulated blocks.
    pub blocks: u64,
    /// Stratified sample size fed to train+test (paper: ~10,000).
    pub sample: usize,
    /// Minimum transactions for an address to be classifiable.
    pub min_txs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Cap on slice graphs per address in graph-level training sets.
    pub max_slices_per_address: usize,
}

impl ExpScale {
    /// Seconds-scale smoke configuration.
    pub fn small() -> Self {
        Self {
            blocks: 120,
            sample: 250,
            min_txs: 2,
            seed: 42,
            max_slices_per_address: 4,
        }
    }

    /// The scale used for the recorded EXPERIMENTS.md numbers.
    pub fn paper() -> Self {
        Self {
            blocks: 700,
            sample: 1600,
            min_txs: 2,
            seed: 42,
            max_slices_per_address: 6,
        }
    }

    /// Parse from argv: `--scale small|paper`, `--seed N`. Any other token,
    /// or another scale, exits 2 before anything is simulated.
    pub fn from_args() -> Self {
        let mut args = Args::from_env();
        let mut scale = match args.get::<String>("--scale").as_deref() {
            None | Some("paper") => Self::paper(),
            Some("small") => Self::small(),
            Some(other) => usage_error(format_args!("bad value {other:?} for --scale")),
        };
        scale.seed = args.get("--seed").unwrap_or(scale.seed);
        args.finish();
        scale
    }

    /// The simulator configuration for this scale.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            blocks: self.blocks,
            num_exchanges: 2,
            num_pools: 2,
            num_gambling: 2,
            num_mixers: 2,
            retail: RetailConfig {
                growth_per_block: 1.2,
                ..Default::default()
            },
            miners_per_pool: 400,
        }
    }
}

/// Write a bench result file atomically (`baclassifier::write_atomic`), so
/// a crash or full disk mid-write can never leave a truncated
/// `results/*.json` behind. A trailing newline is appended. Panics on
/// failure: bench binaries treat an unwritable result file as fatal.
pub fn write_results_atomic(out: &str, json: &str) {
    let path = std::path::Path::new(out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    baclassifier::write_atomic(path, format!("{json}\n").as_bytes())
        .unwrap_or_else(|e| panic!("write results to {out}: {e}"));
}

/// Run the simulator and extract the full labeled dataset.
pub fn build_full_dataset(scale: &ExpScale) -> (Simulator, Dataset) {
    let sim = Simulator::run_to_completion(scale.sim_config());
    let ds = Dataset::from_simulator(&sim, scale.min_txs);
    (sim, ds)
}

/// The paper's experimental split: stratified sample, then 80/20 split.
pub fn build_split(scale: &ExpScale) -> (Dataset, Dataset) {
    let (_, ds) = build_full_dataset(scale);
    let sample = ds.stratified_sample(scale.sample, scale.seed ^ 0x51ab);
    sample.stratified_split(0.2, scale.seed ^ 0x7e57)
}

/// Construct graphs for records and flatten to a labeled graph-level set for
/// `model`, capping slices per address.
pub fn prepared_graph_set(
    model: &dyn GraphModel,
    records: &[AddressRecord],
    cfg: &ConstructionConfig,
    max_slices: usize,
) -> Vec<(PreparedGraph, usize)> {
    let threads = baclassifier::config::resolve_threads(0);
    let graphs = parallel_map(threads, records, |r| construct_address_graphs(r, cfg));
    let mut out = Vec::new();
    for (record, gs) in records.iter().zip(&graphs) {
        for g in gs.iter().take(max_slices.max(1)) {
            out.push((model.prepare(&graph_tensors(g)), record.label.index()));
        }
    }
    out
}

/// One record's graphs through the four public stage calls —
/// `extract_original_graphs → compress_single_tx → compress_multi_tx →
/// augment_with_centralities`, the calls `bacbench` times — adding each
/// stage's wall clock over all of the record's slices to `spent`, in Table V
/// order. The graphs are `construct_address_graphs`'s, bit for bit.
pub fn timed_stage_chain(
    record: &AddressRecord,
    cfg: &ConstructionConfig,
    spent: &mut [Duration; 4],
) -> Vec<AddressGraph> {
    assert!(cfg.compress && cfg.augment, "Table V times all four stages");
    let multi = MultiCompressParams {
        psi: cfg.psi,
        sigma: cfg.sigma,
    };
    let start = Instant::now();
    let raw = extract_original_graphs(record, cfg.slice_size);
    let extracted = Instant::now();
    let single: Vec<_> = raw.iter().map(compress_single_tx).collect();
    let single_done = Instant::now();
    let mut graphs: Vec<_> = single.iter().map(|g| compress_multi_tx(g, multi)).collect();
    let multi_done = Instant::now();
    graphs.iter_mut().for_each(augment_with_centralities);
    let laps = [
        extracted - start,
        single_done - extracted,
        multi_done - single_done,
        multi_done.elapsed(),
    ];
    for (spent, lap) in spent.iter_mut().zip(laps) {
        *spent += lap;
    }
    graphs
}

/// Embedding sequences for the address-classification experiments
/// (Tables III–IV, Fig. 6): a GFN is trained on the train split's slice
/// graphs, then every address becomes its chronological embedding list.
pub struct EmbeddedSplit {
    pub train: Vec<(Vec<numnet::Matrix>, usize)>,
    pub test: Vec<(Vec<numnet::Matrix>, usize)>,
    pub gfn: baclassifier::models::Gfn,
}

/// Train a GFN on the train split and embed both splits as sequences.
pub fn embedded_split(
    scale: &ExpScale,
    train: &Dataset,
    test: &Dataset,
    cfg: &ConstructionConfig,
    gnn_epochs: usize,
) -> EmbeddedSplit {
    use baclassifier::features::NODE_FEAT_DIM;
    use baclassifier::models::Gfn;
    use baclassifier::train::{train_graph_model, TrainParams};

    let gfn = Gfn::new(NODE_FEAT_DIM, 2, 64, 32, scale.seed);
    let train_graphs = prepared_graph_set(&gfn, &train.records, cfg, scale.max_slices_per_address);
    let _ = train_graph_model(
        &gfn,
        &train_graphs,
        &[],
        TrainParams {
            epochs: gnn_epochs,
            learning_rate: 0.01,
            seed: scale.seed,
        },
        1,
    );

    let embed = |records: &[AddressRecord]| -> Vec<(Vec<numnet::Matrix>, usize)> {
        let threads = baclassifier::config::resolve_threads(0);
        let graphs = parallel_map(threads, records, |r| construct_address_graphs(r, cfg));
        records
            .iter()
            .zip(&graphs)
            .filter(|(_, gs)| !gs.is_empty())
            .map(|(r, gs)| {
                let first = &gs[..gs.len().min(scale.max_slices_per_address.max(1))];
                (gfn.embed_graphs(first, 1), r.label.index())
            })
            .collect()
    };
    EmbeddedSplit {
        train: embed(&train.records),
        test: embed(&test.records),
        gfn,
    }
}

/// Render one header + rows table with fixed-width columns.
pub fn print_rows(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain([h.len()])
                .max()
                .unwrap_or(8)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Format a float to 4 decimal places (the paper's table precision).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_produces_usable_split() {
        let scale = ExpScale::small();
        let (train, test) = build_split(&scale);
        assert!(train.len() > 50, "train {}", train.len());
        assert!(test.len() > 10, "test {}", test.len());
        assert!(train.class_counts().iter().all(|&c| c > 0));
    }

    /// Table V times what the classifier computes: the timed chain's graphs
    /// are the fused derivation's, at the defaults and at other thresholds
    /// and slice sizes `table5` accepts.
    #[test]
    fn timed_stage_chain_is_the_derivation() {
        use baclassifier::construction::graphs_identical;
        let (_, ds) = build_full_dataset(&ExpScale::small());
        let configs = [(100, 0.5, 1), (4, 0.3, 0), (16, 0.95, 5)];
        let mut spent = [Duration::ZERO; 4];
        let mut slices = 0;
        for (slice_size, psi, sigma) in configs {
            let cfg = ConstructionConfig {
                slice_size,
                psi,
                sigma,
                ..Default::default()
            };
            for r in ds.records.iter().step_by(7) {
                let timed = timed_stage_chain(r, &cfg, &mut spent);
                let derived = construct_address_graphs(r, &cfg);
                assert_eq!(
                    graphs_identical(&timed, &derived),
                    Ok(()),
                    "{:?}",
                    r.address
                );
                slices += timed.len();
            }
        }
        assert!(slices > 1_000, "{slices} slices");
        assert!(spent.iter().all(|&d| d > Duration::ZERO), "{spent:?}");
    }
}
