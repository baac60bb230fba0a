//! The library path: `BaClassifier::predict`, one caller, no cache.
//!
//! A timed pass calls `predict` once per address. The traced probe walks
//! the same computation through the public stage functions, one span per
//! call, and checks that it lands on the label `predict` gave.

use crate::alloc;
use crate::metrics::Values;
use crate::run::Pass;
use crate::shared::{self_times, Fnv, SlotClock, Tracer};
use baclassifier::construction::{
    augment_with_centralities, compress_multi_tx, compress_single_tx, extract_original_graphs,
    IncrementalGraphs, MultiCompressParams,
};
use baclassifier::features::{graph_tensors, NODE_FEAT_DIM};
use baclassifier::models::{Gfn, GraphModel};
use baclassifier::parallel::install_values;
use baclassifier::{BaClassifier, ModelArtifact};
use btcsim::{AddressRecord, Label};
use numnet::{Matrix, Tape};
use std::hint::black_box;
use std::time::Instant;

/// Digest of a pass's labels, in order.
pub fn digest_labels<'a>(labels: impl IntoIterator<Item = &'a Label>) -> u64 {
    Fnv::of(labels.into_iter().map(|l| l.index() as u64))
}

/// One pass: `predict` every record, timing each call.
pub fn pass(clf: &BaClassifier, records: &[AddressRecord], lat_ns: &mut Vec<u64>) -> Pass {
    let mut labels = Vec::with_capacity(records.len());
    let mut failed = 0;
    let mut clock = SlotClock::start(records.len());
    for (i, r) in records.iter().enumerate() {
        let t = Instant::now();
        let out = clf.predict(black_box(r));
        lat_ns.push(t.elapsed().as_nanos() as u64);
        match out {
            Ok(label) => labels.push(label),
            Err(_) => failed += 1,
        }
        clock.op_done(i + 1);
    }
    Pass {
        ops: records.len() as u64,
        slot_ns: clock.finish(),
        failed,
        digest: digest_labels(&labels),
    }
}

/// The pipeline taken apart at its public seams. The classifier keeps its
/// GFN private, so this holds a `Gfn` of the same dimensions carrying the
/// artifact's weights (GFN parameters come first in artifact order).
pub struct Layered {
    gfn: Gfn,
    slice_size: usize,
    multi: MultiCompressParams,
    max_slices: usize,
}

#[derive(Default)]
struct Counts {
    addrs: u64,
    slices: u64,
    nodes_in: u64,
    nodes_out: u64,
    embed_allocs: u64,
}

impl Layered {
    pub fn new(artifact: &ModelArtifact) -> Layered {
        let c = &artifact.config;
        assert!(
            c.construction.compress && c.construction.augment,
            "the layered path mirrors the full four-stage construction"
        );
        let gfn = Gfn::new(
            NODE_FEAT_DIM,
            c.model.gfn_k,
            c.model.hidden_dim,
            c.model.embed_dim,
            c.model.seed,
        );
        let params = gfn.params();
        install_values(&params, &artifact.weights[..params.len()]);
        Layered {
            gfn,
            slice_size: c.construction.slice_size,
            multi: MultiCompressParams {
                psi: c.construction.psi,
                sigma: c.construction.sigma,
            },
            max_slices: c.model.max_slices.max(1),
        }
    }

    /// Stages 1–4, tensors, prepare, embed for one record; returns the
    /// embedding sequence `predict` would feed its head.
    fn embed(&self, r: &AddressRecord, id: u64, t: &mut Tracer, n: &mut Counts) -> Vec<Matrix> {
        let original = t.leaf("core.extract", id, || {
            extract_original_graphs(r, self.slice_size)
        });
        let single: Vec<_> = t.leaf("core.compress_single", id, || {
            original.iter().map(compress_single_tx).collect()
        });
        let mut graphs: Vec<_> = t.leaf("core.compress_multi", id, || {
            single
                .iter()
                .map(|g| compress_multi_tx(g, self.multi))
                .collect()
        });
        t.leaf("core.augment", id, || {
            graphs.iter_mut().for_each(augment_with_centralities)
        });
        n.addrs += 1;
        n.slices += graphs.len() as u64;
        n.nodes_in += original.iter().map(|g| g.num_nodes() as u64).sum::<u64>();
        n.nodes_out += graphs.iter().map(|g| g.num_nodes() as u64).sum::<u64>();

        let tail = &graphs[graphs.len().saturating_sub(self.max_slices)..];
        let mut seq = Vec::with_capacity(tail.len());
        for g in tail {
            let tensors = t.leaf("core.graph_tensors", id, || graph_tensors(g));
            let prep = t.leaf("core.gfn_prepare", id, || self.gfn.prepare(&tensors));
            let before = alloc::totals().0;
            seq.push(t.leaf("core.gfn_embed", id, || {
                let tape = Tape::new();
                self.gfn.embed(&tape, &prep).value()
            }));
            n.embed_allocs += alloc::totals().0 - before;
            t.leaf("core.free", id, || drop((tensors, prep)));
        }
        t.leaf("core.free", id, || drop((original, single, graphs)));
        seq
    }
}

/// Labels from the layered path against `predict`, outside any timing.
/// Returns how many of `records` disagree (or fail).
pub fn reference_mismatches(
    artifact: &ModelArtifact,
    clf: &BaClassifier,
    records: &[AddressRecord],
) -> u64 {
    let layered = Layered::new(artifact);
    let (mut t, mut n) = (Tracer::new(), Counts::default());
    records
        .iter()
        .filter(|r| {
            let seq = layered.embed(r, 0, &mut t, &mut n);
            clf.classify_embeddings(&seq).ok() != clf.predict(r).ok()
        })
        .count() as u64
}

const HEAD_BATCH: usize = 16;

/// Traced pass over `records` through the layered path. Fills every
/// `core.*`, `graphalgo.*` and `numnet.embed_allocs_per_slice` metric,
/// and returns (wall seconds of the per-address spans, label mismatches
/// against `predict`).
pub fn probe(
    artifact: &ModelArtifact,
    clf: &BaClassifier,
    records: &[AddressRecord],
    t: &mut Tracer,
    out: &mut Values,
) -> (f64, u64) {
    let layered = Layered::new(artifact);
    let mut n = Counts::default();
    let mut seqs = Vec::with_capacity(records.len());
    let mut labels = Vec::with_capacity(records.len());
    let (calls0, bytes0) = alloc::totals();
    for (id, r) in records.iter().enumerate() {
        let id = id as u64;
        let root = t.enter("cold.address", id);
        let seq = layered.embed(r, id, t, &mut n);
        labels.push(t.leaf("core.head", id, || clf.classify_embeddings(&seq).ok()));
        t.exit(root);
        seqs.push(seq);
    }
    let (calls1, bytes1) = alloc::totals();
    let mismatches = records
        .iter()
        .zip(&labels)
        .filter(|(r, l)| clf.predict(r).ok() != **l || l.is_none())
        .count() as u64;

    // The batched head over the same sequences, B = 16.
    for chunk in seqs.chunks(HEAD_BATCH) {
        let batch = t.leaf("core.head_batch", 0, || {
            clf.classify_embeddings_batch(chunk, 1)
        });
        black_box(batch).expect("sequences are non-empty");
    }

    // Incremental construction (apply every transaction, then derive
    // once), and Stage 4's centralities alone on the derived topology.
    let mut applied = 0u64;
    for (id, r) in records.iter().enumerate() {
        let id = id as u64;
        let mut inc = IncrementalGraphs::new(r.address, artifact.config.construction.clone());
        t.leaf("core.inc_apply_tx", id, || {
            r.txs.iter().for_each(|tx| inc.apply_tx(tx))
        });
        applied += r.txs.len() as u64;
        let idx = t.enter("core.inc_rederive", id);
        let derived = inc.graphs();
        t.exit(idx);
        for g in derived {
            let topo = g.to_graph();
            black_box(t.leaf("graphalgo.all_centralities", id, || {
                graphalgo::all_centralities(&topo)
            }));
        }
    }

    let agg = self_times(t.spans());
    let total_us = |name: &str| agg.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e3);
    let count = |name: &str| agg.get(name).map_or(0.0, |s| s.count as f64);
    let (addrs, slices) = (n.addrs as f64, n.slices as f64);
    let stages = [
        ("core.extract_us_per_addr", "core.extract"),
        ("core.compress_single_us_per_addr", "core.compress_single"),
        ("core.compress_multi_us_per_addr", "core.compress_multi"),
        ("core.augment_us_per_addr", "core.augment"),
    ];
    let construction_us: f64 = stages.iter().map(|(_, span)| total_us(span)).sum();
    for (metric, span) in stages {
        out.set_ratio(metric, total_us(span), addrs);
    }
    out.set_ratio(
        "core.stage_share_multi",
        total_us("core.compress_multi"),
        construction_us,
    );
    // Slices embedded can fall short of slices constructed (`max_slices`
    // keeps the newest), so per-slice costs divide by their own span count.
    for (metric, span) in [
        ("core.graph_tensors_us_per_slice", "core.graph_tensors"),
        ("core.gfn_prepare_us_per_slice", "core.gfn_prepare"),
        ("core.gfn_embed_us_per_slice", "core.gfn_embed"),
        (
            "graphalgo.centrality_us_per_slice",
            "graphalgo.all_centralities",
        ),
    ] {
        out.set_ratio(metric, total_us(span), count(span));
    }
    out.set_ratio(
        "numnet.embed_allocs_per_slice",
        n.embed_allocs as f64,
        count("core.gfn_embed"),
    );
    out.set_ratio("core.head_us_per_addr", total_us("core.head"), addrs);
    out.set_ratio(
        "core.head_batch_us_per_seq",
        total_us("core.head_batch"),
        seqs.len() as f64,
    );
    out.set_ratio("core.slices_per_addr", slices, addrs);
    out.set_ratio("core.nodes_in_per_slice", n.nodes_in as f64, slices);
    out.set_ratio("core.nodes_out_per_slice", n.nodes_out as f64, slices);
    out.set_ratio("core.allocs_per_addr", (calls1 - calls0) as f64, addrs);
    out.set_ratio(
        "core.alloc_kb_per_addr",
        (bytes1 - bytes0) as f64 / 1024.0,
        addrs,
    );
    out.set_ratio(
        "core.inc_apply_tx_ns",
        total_us("core.inc_apply_tx") * 1e3,
        applied as f64,
    );
    out.set_ratio("core.inc_rederive_us", total_us("core.inc_rederive"), addrs);
    // Share of each address's wall time that lies inside a layer span.
    let root = agg["cold.address"];
    out.set_ratio(
        "core.trace_coverage",
        (root.total_ns - root.self_ns) as f64,
        root.total_ns as f64,
    );

    (root.total_ns as f64 / 1e9, mismatches)
}

/// `Matrix::matmul` at the node-MLP shape of a 512-node slice
/// (512 × 85 by 85 × 64), GFLOP/s.
pub fn matmul_gflops() -> f64 {
    const M: usize = 512;
    const K: usize = 85;
    const N: usize = 64;
    const ITERS: usize = 1000;
    let a = Matrix::from_fn(M, K, |r, c| ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0);
    let b = Matrix::from_fn(K, N, |r, c| ((r * 13 + c * 5) % 19) as f32 * 0.0625 - 0.5);
    black_box(a.matmul(&b));
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(black_box(&a).matmul(black_box(&b)));
    }
    (2 * M * K * N * ITERS) as f64 / start.elapsed().as_secs_f64() / 1e9
}
