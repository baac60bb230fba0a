//! Acceptance tests for the two determinism contracts:
//!
//! 1. Deterministic data-parallel training — `fit()` with `threads = 1` and
//!    `threads = 4` must produce byte-identical weights (pinned to a golden
//!    digest) and identical predictions on a held-out split. Per-example
//!    gradients are reduced in example-index order on the driver (see
//!    `baclassifier::parallel`), so no float is ever summed in a
//!    schedule-dependent order.
//!
//! 2. Kernel-path identity — the fast kernels (sparse adjacency spmm on the
//!    tape, cached Ã·X, fused LSTM gates) must be bitwise indistinguishable
//!    from the naive dense-tape formulations they replaced, forward AND
//!    backward. The reference paths below are the pre-swap computations
//!    written out literally against the same shared parameters.

use baclassifier::construction::augment::augment_with_centralities;
use baclassifier::construction::extract::extract_original_graphs;
use baclassifier::features::{graph_tensors, GraphTensors, NODE_FEAT_DIM};
use baclassifier::models::{DiffPool, Gcn, GraphModel, PreparedGraph};
use baclassifier::{BaClassifier, BacConfig, ModelArtifact};
use btcsim::{Address, AddressRecord, Amount, Dataset, Label, SimConfig, Simulator, TxView, Txid};
use numnet::{Matrix, Tape};

fn fit_with_threads(threads: usize, train: &Dataset) -> BaClassifier {
    let mut cfg = BacConfig::fast();
    cfg.model.gnn_epochs = 3;
    cfg.model.head_epochs = 4;
    cfg.threads = threads;
    let mut clf = BaClassifier::new(cfg);
    clf.fit(train);
    clf
}

/// `save_artifact` bytes of a fitted classifier and the weights loaded back
/// from them. `threads` is not persisted, so byte-equal files mean
/// byte-equal models.
fn artifact_bytes(clf: &BaClassifier, tag: &str) -> (Vec<u8>, Vec<Matrix>) {
    let path = std::env::temp_dir().join(format!(
        "parallel_training_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    clf.save_artifact(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let weights = ModelArtifact::load(&path).unwrap().weights;
    std::fs::remove_file(&path).ok();
    (bytes, weights)
}

/// The weights as the byte stream the golden digest was recorded over:
/// "NNIO", version 1, the count, then each matrix's rows, cols and f32 LE
/// values.
fn nnio_stream(weights: &[Matrix]) -> Vec<u8> {
    let mut out = b"NNIO".to_vec();
    out.extend(1u32.to_le_bytes());
    out.extend((weights.len() as u32).to_le_bytes());
    for m in weights {
        out.extend((m.rows() as u32).to_le_bytes());
        out.extend((m.cols() as u32).to_le_bytes());
        out.extend(m.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    }
    out
}

#[test]
fn fit_is_byte_identical_across_thread_counts() {
    let sim = Simulator::run_to_completion(SimConfig::tiny(31));
    let (train, test) = Dataset::from_simulator(&sim, 3).stratified_split(0.25, 99);

    let serial = fit_with_threads(1, &train);
    let pooled = fit_with_threads(4, &train);

    let (serial_bytes, serial_weights) = artifact_bytes(&serial, "t1");
    // FNV-1a over the weights as the v1 artifact stored them, re-encoded
    // from the loaded ones — recorded at the commit before `Param` lost its
    // gradient slot and `backward` started returning gradients.
    let weights = nnio_stream(&serial_weights);
    let digest = weights.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        digest,
        0x0702_9ab3_6a5e_7b4f,
        "{} weight bytes",
        weights.len()
    );
    assert_eq!(
        serial_bytes,
        artifact_bytes(&pooled, "t4").0,
        "threads=4 fit must produce a byte-identical artifact to threads=1"
    );
    assert!(!test.is_empty());
    for r in &test.records {
        assert_eq!(
            serial.predict(r),
            pooled.predict(r),
            "prediction diverged for address {}",
            r.address.0
        );
    }
    // The fits must also agree on their own training telemetry: identical
    // weights imply identical evaluation.
    let a = serial.evaluate(&test);
    let b = pooled.evaluate(&test);
    assert_eq!(a.weighted_f1.to_bits(), b.weighted_f1.to_bits());
    assert_eq!(a.skipped, b.skipped);
}

/// A small but non-trivial slice graph (several transactions, hyper-nodes).
fn sample_tensors() -> GraphTensors {
    let txs: Vec<TxView> = (0..5)
        .map(|i| TxView {
            txid: Txid(i),
            timestamp: i,
            inputs: vec![(Address(0), Amount::from_btc(1.0 + i as f64))],
            outputs: vec![
                (Address(10 + i), Amount::from_btc(0.7)),
                (Address(20 + i), Amount::from_btc(0.2)),
            ],
        })
        .collect();
    let record = AddressRecord {
        address: Address(0),
        label: Label::Exchange,
        txs,
    };
    let mut g = extract_original_graphs(&record, 100).remove(0);
    augment_with_centralities(&mut g);
    graph_tensors(&g)
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

#[test]
fn gcn_spmm_path_matches_dense_adjacency_tape_path_bitwise() {
    let t = sample_tensors();
    let gcn = Gcn::new(NODE_FEAT_DIM, 16, 8, 5);
    let prep = gcn.prepare(&t);
    let PreparedGraph::WithAdjacency { x, adj, .. } = &prep else {
        panic!("GCN prepares with adjacency");
    };
    let p = gcn.params(); // conv1 w/b, conv2 w/b, classifier w/b

    // New path: cached Ã·X constant + sparse spmm on the tape.
    let tape = Tape::new();
    let e_new = gcn.embed(&tape, &prep);
    let e_new_val = e_new.value();
    let grads_new = e_new.softmax_cross_entropy(&[1]).backward(&p);

    // Reference: the pre-swap dense formulation, written out literally.
    let tape2 = Tape::new();
    let xv = tape2.constant(x.clone());
    let av = tape2.constant(adj.to_dense());
    let h1 = av
        .matmul(xv)
        .matmul(tape2.param(&p[0]))
        .add_row(tape2.param(&p[1]))
        .relu();
    let h2 = av
        .matmul(h1)
        .matmul(tape2.param(&p[2]))
        .add_row(tape2.param(&p[3]))
        .relu();
    let e_ref = h2.sum_rows();
    assert_bits_eq(&e_new_val, &e_ref.value(), "GCN embedding");
    let grads_ref = e_ref.softmax_cross_entropy(&[1]).backward(&p);
    for (i, (g_new, g_ref)) in grads_new.iter().zip(&grads_ref).enumerate() {
        assert_bits_eq(g_new, g_ref, &format!("GCN grad of param {i}"));
    }
}

#[test]
fn diffpool_sparse_pooling_matches_dense_adjacency_tape_path_bitwise() {
    let t = sample_tensors();
    let dp = DiffPool::new(NODE_FEAT_DIM, 8, 3, 4, 7);
    let prep = dp.prepare(&t);
    let PreparedGraph::WithAdjacency { x, adj, .. } = &prep else {
        panic!("DiffPool prepares with adjacency");
    };
    let p = dp.params(); // embed w/b, assign w/b, post w/b, classifier w/b

    let tape = Tape::new();
    let e_new = dp.embed(&tape, &prep);
    let e_new_val = e_new.value();
    let grads_new = e_new.softmax_cross_entropy(&[2]).backward(&p);

    let tape2 = Tape::new();
    let xv = tape2.constant(x.clone());
    let av = tape2.constant(adj.to_dense());
    let ax = av.matmul(xv);
    let z = ax
        .matmul(tape2.param(&p[0]))
        .add_row(tape2.param(&p[1]))
        .relu();
    let s = ax
        .matmul(tape2.param(&p[2]))
        .add_row(tape2.param(&p[3]))
        .softmax_rows();
    let st = s.transpose();
    let x_pooled = st.matmul(z);
    let a_pooled = st.matmul(av).matmul(s);
    let h = a_pooled
        .matmul(x_pooled)
        .matmul(tape2.param(&p[4]))
        .add_row(tape2.param(&p[5]))
        .relu();
    let e_ref = h.sum_rows();
    assert_bits_eq(&e_new_val, &e_ref.value(), "DiffPool embedding");
    let grads_ref = e_ref.softmax_cross_entropy(&[2]).backward(&p);
    for (i, (g_new, g_ref)) in grads_new.iter().zip(&grads_ref).enumerate() {
        assert_bits_eq(g_new, g_ref, &format!("DiffPool grad of param {i}"));
    }
}
