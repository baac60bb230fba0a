//! The tape is the oracle of the forward evaluator. Inference runs tape-free
//! (`Gfn::embed_graphs`, `LstmMlp::eval_logits`, and every `BaClassifier`
//! entry point on top of them); training still runs on the tape, and these
//! tests pin the two to each other bit for bit: embeddings against
//! `GraphModel::embed` of `GraphModel::prepare`, logits against
//! `SequenceHead::logits`, one sequence a tape. A golden digest recorded before
//! inference left the tape pins a whole fitted model's outputs.

use baclassifier::classify::{LstmMlp, SequenceHead};
use baclassifier::construction::{
    augment_with_centralities, construct_address_graphs, extract_original_graphs, AddressGraph,
};
use baclassifier::features::{graph_tensors, NODE_FEAT_DIM};
use baclassifier::models::{Gfn, GraphModel, BLOCK_ROWS};
use baclassifier::parallel::install_values;
use baclassifier::{BaClassifier, BacConfig};
use btcsim::{Address, AddressRecord, Amount, Dataset, Label, SimConfig, Simulator, TxView, Txid};
use numnet::{Matrix, Tape};
use proptest::prelude::*;

fn assert_bits(got: &[Matrix], want: &[Matrix], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.shape(), w.shape(), "{what} {i}: shape");
        let same = g.as_slice().iter().zip(w.as_slice());
        assert!(
            same.clone().all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what} {i}: {g:?} vs {w:?}"
        );
    }
}

/// The slice graphs of every address with history on a tiny chain.
fn chain_slices(seed: u64) -> Vec<AddressGraph> {
    let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
    let construction = BacConfig::fast().construction;
    let records = Dataset::from_simulator(&sim, 2).records;
    let graphs = records.iter().take(40);
    graphs
        .flat_map(|r| construct_address_graphs(r, &construction))
        .collect()
}

/// One payout to 448 one-shot payees: a 450-node slice, more than a block.
fn wide_slice() -> AddressGraph {
    let record = AddressRecord {
        address: Address(0),
        label: Label::Mining,
        txs: vec![TxView {
            txid: Txid(1),
            timestamp: 0,
            inputs: vec![(Address(0), Amount::from_sats(900_000_000))],
            outputs: (1..=448)
                .map(|a| (Address(a), Amount::from_sats(1_000 + a)))
                .collect(),
        }],
    };
    let mut g = extract_original_graphs(&record, 100).remove(0);
    augment_with_centralities(&mut g);
    g
}

/// The tape's embedding of each graph.
fn taped(gfn: &Gfn, graphs: &[AddressGraph]) -> Vec<Matrix> {
    let embed = |g: &AddressGraph| {
        gfn.embed(&Tape::new(), &gfn.prepare(&graph_tensors(g)))
            .value()
    };
    graphs.iter().map(embed).collect()
}

/// Sequences of lengths 1, 2, 17 and 500, mixed, drawn from `seed`.
fn ragged_seqs(dim: usize, seed: u64) -> Vec<Vec<Matrix>> {
    let lens = [2usize, 500, 1, 17, 2, 1, 17];
    let row = |i: usize, t: usize| {
        let phase = (seed % 997) as f32 * 0.01;
        Matrix::from_fn(1, dim, |_, c| {
            ((i * 131 + t * 7 + c) as f32 * 0.37 + phase).sin()
        })
    };
    let seq = |(i, &len): (usize, &usize)| (0..len).map(|t| row(i, t)).collect();
    lens.iter().enumerate().map(seq).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // Any chain, any position of a wider-than-a-block slice (so blocks
    // split at the cap around it), threads 1, 2 and 4.
    #[test]
    fn gfn_evaluator_is_the_tape_bit_for_bit(seed in 0u64..10_000, at in 0usize..200) {
        let mut graphs = chain_slices(seed);
        let thin_rows: usize = graphs.iter().map(AddressGraph::num_nodes).sum();
        prop_assert!(thin_rows > BLOCK_ROWS, "{thin_rows} rows do not fill a block");
        graphs.insert(at % graphs.len(), wide_slice());
        let gfn = Gfn::new(NODE_FEAT_DIM, 2, 32, 16, seed);
        let want = taped(&gfn, &graphs);
        for threads in [1, 2, 4] {
            let what = format!("threads={threads}");
            assert_bits(&gfn.embed_graphs(&graphs, threads), &want, &what);
        }
    }

    // Ragged lengths 1, 2, 17 and 500 in one batch: every row is the
    // tape's single-sequence logits, the training path.
    #[test]
    fn head_evaluator_is_the_tape_bit_for_bit(seed in any::<u64>()) {
        let head = LstmMlp::new(16, 16, seed);
        let seqs = ragged_seqs(16, seed);
        let borrowed: Vec<&[Matrix]> = seqs.iter().map(Vec::as_slice).collect();
        let eval = head.eval_logits(&borrowed);
        assert_eq!(eval.rows(), seqs.len());
        for (i, seq) in seqs.iter().enumerate() {
            let single = head.logits(&Tape::new(), seq).value();
            assert_bits(&[eval.slice_rows(i, i + 1)], &[single], &format!("sequence {i}"));
        }
    }
}

/// A fitted `BacConfig::fast()` classifier, its test set, and a `Gfn` and an
/// `LstmMlp` carrying its weights for the tape.
fn fitted() -> (BaClassifier, Dataset, Gfn, LstmMlp) {
    let sim = Simulator::run_to_completion(SimConfig::tiny(7));
    let (train, test) = Dataset::from_simulator(&sim, 3).stratified_split(0.25, 7);
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&train);
    let art = clf.to_artifact().expect("fitted");
    let m = &art.config.model;
    let gfn = Gfn::new(NODE_FEAT_DIM, m.gfn_k, m.hidden_dim, m.embed_dim, m.seed);
    let head = LstmMlp::new(m.embed_dim, m.lstm_hidden, m.seed ^ 0x5a);
    let n = gfn.params().len();
    install_values(&gfn.params(), &art.weights[..n]);
    install_values(&head.params(), &art.weights[n..]);
    (clf, test, gfn, head)
}

#[test]
fn fitted_classifier_infers_the_tapes_bits_and_the_recorded_digest() {
    let (clf, test, gfn, head) = fitted();
    let seqs: Vec<Vec<Matrix>> = test.records.iter().map(|r| clf.embed_record(r)).collect();
    let seqs: Vec<&[Matrix]> = seqs
        .iter()
        .map(Vec::as_slice)
        .filter(|s| !s.is_empty())
        .collect();
    let logits = head.eval_logits(&seqs);

    // FNV-1a over the f32 bits of every slice embedding, then the logit row,
    // of each test address in order — recorded while both ran on the tape.
    let fnv = |h: u64, v: &f32| (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (i, seq) in seqs.iter().enumerate() {
        digest = seq.iter().flat_map(Matrix::as_slice).fold(digest, fnv);
        digest = logits.row(i).iter().fold(digest, fnv);
    }
    assert_eq!(
        digest,
        0xc07c_84af_5cb5_432f,
        "over {} sequences",
        seqs.len()
    );

    let graphs: Vec<AddressGraph> = test
        .records
        .iter()
        .flat_map(|r| construct_address_graphs(r, &clf.config().construction))
        .collect();
    let want = taped(&gfn, &graphs);
    for threads in [1, 2, 4] {
        assert_bits(&clf.embed_graphs(&graphs, threads), &want, "embed_graphs");
        let scored = clf
            .classify_embeddings_batch(&seqs, threads)
            .expect("fitted");
        for ((label, margin), seq) in scored.iter().zip(&seqs) {
            let l = head.logits(&Tape::new(), seq).value();
            let best = l.row_argmax(0);
            let runner_up = (0..l.cols()).filter(|&c| c != best).map(|c| l[(0, c)]);
            let margin_taped = l[(0, best)] - runner_up.fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(
                (label.index(), margin.to_bits()),
                (best, margin_taped.to_bits())
            );
        }
    }
}
