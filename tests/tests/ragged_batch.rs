//! Acceptance: the batched ragged-sequence inference paths are *byte
//! identical* to their single-item formulations at every thread count and
//! every batch split.
//!
//! Two layers are pinned. `BaClassifier::embed_graphs` must reproduce
//! per-graph `embed_graph` bit for bit (workers sharing one forward-only GFN),
//! and `classify_embeddings_batch` — which runs the LSTM head as one
//! fused-gate matmul per timestep over the still-active sequences — must
//! reproduce per-sequence `classify_embeddings_scored` bit for bit,
//! including on ragged length mixes (1, 2, 17, 500) and regardless of how
//! the batch is chunked. These are the guarantees the serve engine and the
//! streaming reclassifier lean on when they route micro-batches through the
//! batched head. A third test runs all of it from four threads at once over
//! one shared `&BaClassifier` — the property the serve engine's workers and
//! the follower's reclassification threads now rest on.

use baclassifier::construction::construct_address_graphs;
use baclassifier::{BaClassifier, BacConfig};
use btcsim::{Dataset, Label, SimConfig, Simulator};
use numnet::Matrix;

fn fitted_classifier(seed: u64) -> (BaClassifier, Dataset) {
    let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
    let (train, test) = Dataset::from_simulator(&sim, 2).stratified_split(0.25, seed);
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&train);
    (clf, test)
}

fn assert_matrices_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn embed_graphs_matches_per_graph_at_all_thread_counts() {
    let (clf, test) = fitted_classifier(41);
    // Mixed-activity records yield graphs of varying node/edge counts.
    let graphs: Vec<_> = test
        .records
        .iter()
        .take(6)
        .flat_map(|r| construct_address_graphs(r, &clf.config().construction))
        .collect();
    assert!(graphs.len() >= 6, "want a real batch, got {}", graphs.len());

    let reference: Vec<Matrix> = graphs.iter().map(|g| clf.embed_graph(g)).collect();
    for threads in [1usize, 4] {
        let batched = clf.embed_graphs(&graphs, threads);
        assert_eq!(batched.len(), reference.len());
        for (i, (b, r)) in batched.iter().zip(&reference).enumerate() {
            assert_matrices_bitwise(b, r, &format!("embed_graphs[{i}] threads={threads}"));
        }
    }
}

/// Deterministic synthetic embedding row — values in the activations'
/// comfortable range, distinct per (sequence, timestep).
fn embed_row(dim: usize, seq_id: usize, t: usize) -> Matrix {
    Matrix::from_fn(1, dim, |_, c| {
        ((seq_id * 7919 + t * 131 + c) as f32 * 0.137).sin() * 0.5
    })
}

#[test]
fn classify_batch_is_byte_identical_across_threads_and_chunkings() {
    let (clf, _) = fitted_classifier(42);
    let dim = clf.config().model.embed_dim;

    // Ragged lengths, deliberately including the degenerate single-slice
    // history and a long tail that dwarfs the rest of the batch.
    let lengths = [1usize, 2, 17, 500, 2, 17, 1];
    let seqs: Vec<Vec<Matrix>> = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|t| embed_row(dim, i, t)).collect())
        .collect();

    let reference: Vec<_> = seqs
        .iter()
        .map(|s| {
            clf.classify_embeddings_scored(s)
                .expect("fitted, non-empty")
        })
        .collect();

    for threads in [1usize, 4] {
        for batch_size in [1usize, 3, 64] {
            let mut got = Vec::new();
            for chunk in seqs.chunks(batch_size) {
                got.extend(
                    clf.classify_embeddings_batch(chunk, threads)
                        .expect("fitted, non-empty"),
                );
            }
            assert_eq!(got.len(), reference.len());
            for (i, ((gl, gm), (rl, rm))) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    gl, rl,
                    "label mismatch at seq {i} (threads={threads}, batch={batch_size})"
                );
                assert_eq!(
                    gm.to_bits(),
                    rm.to_bits(),
                    "margin differs at seq {i} (threads={threads}, batch={batch_size}): {gm} vs {rm}"
                );
            }
        }
    }
}

/// One model, no copies: four threads share one `&BaClassifier` and run
/// every inference entry point at once — each itself fanning out over three
/// more threads — and every label, margin and embedding is the bits the
/// single-threaded run produced. Does not compile unless
/// `BaClassifier: Sync`.
#[test]
fn one_classifier_shared_by_four_threads_matches_the_single_threaded_run() {
    let (clf, test) = fitted_classifier(44);
    let records = &test.records[..32];
    let graphs: Vec<_> = records
        .iter()
        .take(8)
        .flat_map(|r| construct_address_graphs(r, &clf.config().construction))
        .collect();
    let seqs: Vec<Vec<Matrix>> = records.iter().map(|r| clf.embed_record(r)).collect();

    type Run = (Vec<Label>, Vec<Matrix>, Vec<(Label, u32)>);
    let run = |clf: &BaClassifier, threads: usize| -> Run {
        let labels = records.iter().map(|r| clf.predict(r).unwrap()).collect();
        let embeds = clf.embed_graphs(&graphs, threads);
        let scored = clf
            .classify_embeddings_batch(&seqs, threads)
            .unwrap()
            .into_iter()
            .map(|(l, m)| (l, m.to_bits()))
            .collect();
        (labels, embeds, scored)
    };

    let reference = run(&clf, 1);
    // The barrier releases all four at once, so the runs overlap.
    let start = std::sync::Barrier::new(4);
    let concurrent: Vec<Run> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    run(&clf, 3)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, got) in concurrent.iter().enumerate() {
        assert_eq!(got.0, reference.0, "thread {t}: predict labels");
        assert_eq!(got.2, reference.2, "thread {t}: batch labels / margin bits");
        assert_eq!(got.1.len(), reference.1.len());
        for (i, (g, r)) in got.1.iter().zip(&reference.1).enumerate() {
            assert_matrices_bitwise(g, r, &format!("thread {t}: embed_graphs[{i}]"));
        }
    }
}

#[test]
fn classify_batch_rejects_empty_history_without_classifying_the_rest() {
    let (clf, _) = fitted_classifier(43);
    let dim = clf.config().model.embed_dim;
    let seqs = vec![vec![embed_row(dim, 0, 0)], Vec::new()];
    assert!(matches!(
        clf.classify_embeddings_batch(&seqs, 1),
        Err(baclassifier::PredictError::EmptyHistory)
    ));
}
