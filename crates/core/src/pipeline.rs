//! The end-to-end BAClassifier: address graph construction → GFN graph
//! representation learning → LSTM+MLP address classification (paper Fig. 2).

use crate::classify::{LstmMlp, SequenceHead};
use crate::config::BacConfig;
use crate::construction::construct_address_graphs;
use crate::features::{graph_tensors, NODE_FEAT_DIM};
use crate::metrics::{ClassificationReport, ConfusionMatrix};
use crate::models::{Gfn, GraphModel, NUM_CLASSES};
use crate::parallel::parallel_map;
use crate::train::{train_graph_model, train_sequence_head, TrainLog, TrainParams};
use btcsim::{AddressRecord, Dataset, Label};
use numnet::Matrix;

/// What `fit` did: both training curves and how many slice graphs it built.
#[derive(Debug)]
pub struct FitReport {
    /// GFN training curve (Fig. 5 series).
    pub gnn_log: TrainLog,
    /// LSTM+MLP training curve (Fig. 6 series).
    pub head_log: TrainLog,
    /// Total slice graphs constructed.
    pub num_graphs: usize,
}

/// Why a prediction could not be made. Unlike a panic, these surface as
/// clean errors a serving layer can report per-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// Neither `fit()` nor artifact loading has run on this classifier.
    NotFitted,
    /// The record has no transactions, so no slice graph (and therefore no
    /// embedding sequence) exists.
    EmptyHistory,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::NotFitted => write!(f, "classifier has not been fitted"),
            PredictError::EmptyHistory => {
                write!(f, "address record has no transactions to classify")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// The assembled classifier. `Send + Sync`: every `&self` method only reads
/// the weights, so serving workers, reclassification threads and the
/// fan-outs below all share one instance.
pub struct BaClassifier {
    cfg: BacConfig,
    gfn: Gfn,
    head: LstmMlp,
    fitted: bool,
}

impl BaClassifier {
    pub fn new(cfg: BacConfig) -> Self {
        let gfn = Gfn::new(
            NODE_FEAT_DIM,
            cfg.model.gfn_k,
            cfg.model.hidden_dim,
            cfg.model.embed_dim,
            cfg.model.seed,
        );
        let head = LstmMlp::new(
            cfg.model.embed_dim,
            cfg.model.lstm_hidden,
            cfg.model.seed ^ 0x5a,
        );
        Self {
            cfg,
            gfn,
            head,
            fitted: false,
        }
    }

    pub fn config(&self) -> &BacConfig {
        &self.cfg
    }

    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Mark as fitted after an artifact's weights were installed.
    pub(crate) fn mark_fitted(&mut self) {
        self.fitted = true;
    }

    /// Train both stages on a labeled dataset.
    ///
    /// Runs on `cfg.threads` workers (see [`crate::config::resolve_threads`]):
    /// graph construction, slice-graph preparation, GFN training, sequence
    /// embedding, and head training are all data-parallel over this one
    /// model, and the result is byte-identical for any thread count
    /// (deterministic index-ordered gradient reduction — see
    /// [`crate::parallel`]).
    pub fn fit(&mut self, train: &Dataset) -> FitReport {
        assert!(!train.is_empty(), "cannot fit on an empty dataset");
        let threads = self.cfg.effective_threads();
        let model_cfg = &self.cfg.model;

        // Stage A: construct graphs for every address.
        let per_address = parallel_map(threads, &train.records, |r| {
            construct_address_graphs(r, &self.cfg.construction)
        });
        let num_graphs = per_address.iter().map(Vec::len).sum();

        // Stage B: graph-level GFN training on every slice graph, prepared
        // once — each inherits its address's label (paper §IV-C1).
        let flat: Vec<&crate::construction::AddressGraph> = per_address.iter().flatten().collect();
        let prepared = parallel_map(threads, &flat, |g| self.gfn.prepare(&graph_tensors(g)));
        let labels = train
            .records
            .iter()
            .zip(&per_address)
            .flat_map(|(record, graphs)| vec![record.label.index(); graphs.len()]);
        let graph_set: Vec<_> = prepared.into_iter().zip(labels).collect();
        let gnn_log = train_graph_model(
            &self.gfn,
            &graph_set,
            &[],
            TrainParams {
                epochs: model_cfg.gnn_epochs,
                learning_rate: model_cfg.learning_rate,
                seed: model_cfg.seed,
            },
            threads,
        );

        // Stage C: embed each address's capped slice sequence as
        // `embed_record` does, through the forward evaluator, and train the
        // head on the chronological sequences.
        let sequences = parallel_map(threads, &per_address, |graphs| {
            self.embedding_sequence_from_graphs(graphs, 1)
        });
        let seq_set: Vec<(Vec<Matrix>, usize)> = train
            .records
            .iter()
            .zip(sequences)
            .filter(|(_, seq)| !seq.is_empty())
            .map(|(record, seq)| (seq, record.label.index()))
            .collect();
        let head_log = train_sequence_head(
            &self.head,
            &seq_set,
            &[],
            TrainParams {
                epochs: model_cfg.head_epochs,
                learning_rate: model_cfg.learning_rate,
                seed: model_cfg.seed ^ 0xbeef,
            },
            threads,
        );

        self.fitted = true;
        FitReport {
            gnn_log,
            head_log,
            num_graphs,
        }
    }

    /// Embed the (capped) tail of one address's slice-graph list on
    /// `threads` workers. Per-graph embedding is forward-only, so the output
    /// is byte-identical for any thread count.
    fn embedding_sequence_from_graphs(
        &self,
        graphs: &[crate::construction::AddressGraph],
        threads: usize,
    ) -> Vec<Matrix> {
        let max = self.cfg.model.max_slices.max(1);
        let start = graphs.len().saturating_sub(max);
        self.embed_graphs(&graphs[start..], threads)
    }

    /// The chronological embedding sequence of one address (the `rep_i` list
    /// of Eq. 22). Deliberately single-threaded: serving layers call this
    /// per-request from their own workers, and nesting a pool here would
    /// oversubscribe cores and hurt tail latency. Batch callers fan out
    /// across records instead.
    pub fn embed_record(&self, record: &AddressRecord) -> Vec<Matrix> {
        let graphs = construct_address_graphs(record, &self.cfg.construction);
        self.embedding_sequence_from_graphs(&graphs, 1)
    }

    /// Embed one slice graph — the per-slice stage of [`BaClassifier::embed_record`].
    pub fn embed_graph(&self, graph: &crate::construction::AddressGraph) -> Matrix {
        let mut one = self.embed_graphs(std::slice::from_ref(graph), 1);
        one.pop().expect("one graph in, one embedding out")
    }

    /// Embed a batch of slice graphs on `threads` workers, preserving input
    /// order, through the GFN forward evaluator ([`Gfn::embed_graphs`]:
    /// block-diagonal, no tape). Every embedding is the bits of
    /// [`BaClassifier::embed_graph`] and of the tape, at any thread count.
    /// This is the batched re-embed stage streaming reclassification fans
    /// its dirty slices through.
    pub fn embed_graphs(
        &self,
        graphs: &[crate::construction::AddressGraph],
        threads: usize,
    ) -> Vec<Matrix> {
        self.gfn.embed_graphs(graphs, threads)
    }

    /// Predict the behavior label of one address.
    ///
    /// This is `classify_embeddings(embed_record(record))`; serving layers
    /// that cache embeddings call the two stages separately and stay
    /// byte-identical to this path.
    pub fn predict(&self, record: &AddressRecord) -> Result<Label, PredictError> {
        if !self.fitted {
            return Err(PredictError::NotFitted);
        }
        let seq = self.embed_record(record);
        self.classify_embeddings(&seq)
    }

    /// The cheap final stage: run only the LSTM+MLP head over an embedding
    /// sequence previously produced by [`BaClassifier::embed_record`].
    pub fn classify_embeddings(&self, seq: &[Matrix]) -> Result<Label, PredictError> {
        self.classify_embeddings_scored(seq).map(|(label, _)| label)
    }

    /// As [`BaClassifier::classify_embeddings`], but also return the label
    /// margin: the winning logit minus the runner-up logit, ≥ 0. A small
    /// margin means the address sat near a label boundary; the streaming
    /// follower stores it beside each label (its snapshots carry it), but
    /// reclassifies the dirty set in address order. A batch of one through
    /// [`BaClassifier::classify_embeddings_batch`].
    pub fn classify_embeddings_scored(&self, seq: &[Matrix]) -> Result<(Label, f32), PredictError> {
        Ok(self.classify_embeddings_batch(&[seq], 1)?.remove(0))
    }

    /// Classify a batch of embedding sequences through the head's forward
    /// evaluator ([`LstmMlp::eval_logits`]), preserving input order. Each
    /// worker runs its whole contiguous chunk as one ragged-batch forward
    /// pass — one fused-gate matmul per timestep over the still-active
    /// sequences, no tape. Every logit row is bitwise the tape's
    /// single-sequence [`SequenceHead::logits`] and every worker reads the
    /// same weights, so the output is the same bits at any thread count
    /// and any batch split. Errors if unfitted or any sequence is empty
    /// (batch callers gate on history length first). Sequences may be owned
    /// (`Vec<Matrix>`) or borrowed (`&[Matrix]`); the head only reads them.
    pub fn classify_embeddings_batch<S: AsRef<[Matrix]>>(
        &self,
        seqs: &[S],
        threads: usize,
    ) -> Result<Vec<(Label, f32)>, PredictError> {
        if !self.fitted {
            return Err(PredictError::NotFitted);
        }
        let seqs: Vec<&[Matrix]> = seqs.iter().map(AsRef::as_ref).collect();
        if seqs.iter().any(|s| s.is_empty()) {
            return Err(PredictError::EmptyHistory);
        }
        let chunk = seqs.len().div_ceil(threads.max(1)).max(1);
        let chunks: Vec<&[&[Matrix]]> = seqs.chunks(chunk).collect();
        let per_chunk = parallel_map(threads, &chunks, |c| {
            let logits = self.head.eval_logits(c);
            (0..c.len())
                .map(|r| score_row(&logits, r))
                .collect::<Vec<_>>()
        });
        Ok(per_chunk
            .into_iter()
            .flatten()
            .map(|(idx, margin)| {
                (
                    Label::from_index(idx).expect("head emits valid class indices"),
                    margin,
                )
            })
            .collect())
    }

    /// All trainable parameters (GFN then head), in stable order.
    pub(crate) fn all_params(&self) -> Vec<numnet::Param> {
        let mut p = self.gfn.params();
        p.extend(self.head.params());
        p
    }

    /// Evaluate on a labeled dataset, returning the paper's per-class +
    /// weighted-average report (Table IV layout).
    ///
    /// Records with an empty transaction history have no slice graphs and
    /// therefore no prediction; they are skipped and counted in
    /// [`ClassificationReport::skipped`] rather than panicking (streamed
    /// datasets legitimately contain such addresses).
    pub fn evaluate(&self, test: &Dataset) -> ClassificationReport {
        assert!(self.fitted, "evaluate() before fit()");
        let mut y_true = Vec::with_capacity(test.len());
        let mut y_pred = Vec::with_capacity(test.len());
        let mut skipped = 0;
        for r in &test.records {
            match self.predict(r) {
                Ok(label) => {
                    y_true.push(r.label.index());
                    y_pred.push(label.index());
                }
                Err(PredictError::EmptyHistory) => skipped += 1,
                Err(PredictError::NotFitted) => unreachable!("fitted asserted above"),
            }
        }
        let mut report = ConfusionMatrix::from_predictions(NUM_CLASSES, &y_true, &y_pred).report();
        report.skipped = skipped;
        report
    }
}

/// Logit row `r` → (argmax class, winner minus runner-up); the argmax is
/// [`SequenceHead::predict`]'s `row_argmax`.
fn score_row(logits: &Matrix, r: usize) -> (usize, f32) {
    let idx = logits.row_argmax(r);
    let mut runner_up = f32::NEG_INFINITY;
    for c in 0..NUM_CLASSES {
        if c != idx {
            runner_up = runner_up.max(logits[(r, c)]);
        }
    }
    (idx, logits[(r, idx)] - runner_up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcsim::{SimConfig, Simulator};

    fn small_split() -> (Dataset, Dataset) {
        let sim = Simulator::run_to_completion(SimConfig::tiny(21));
        let ds = Dataset::from_simulator(&sim, 3);
        ds.stratified_split(0.25, 77)
    }

    /// What the shared model rests on; none of these lines compiled while
    /// parameters were thread-bound.
    #[test]
    fn models_are_send_and_sync() {
        use crate::classify::{AttentionMlp, BiLstmMlp, PoolMlp};
        use crate::models::{DiffPool, Gcn};
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<numnet::Param>();
        assert_send_sync::<Gfn>();
        assert_send_sync::<Gcn>();
        assert_send_sync::<DiffPool>();
        assert_send_sync::<LstmMlp>();
        assert_send_sync::<BiLstmMlp>();
        assert_send_sync::<AttentionMlp>();
        assert_send_sync::<PoolMlp>();
        assert_send_sync::<BaClassifier>();
    }

    #[test]
    fn fit_predict_evaluate_roundtrip() {
        let (train, test) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        let report = clf.fit(&train);
        assert!(report.num_graphs >= train.len());
        assert!(clf.is_fitted());
        let eval = clf.evaluate(&test);
        // On clearly-separable synthetic behaviors even the fast config
        // should beat random (0.25) by a wide margin.
        assert!(eval.weighted_f1 > 0.5, "weighted F1 {}", eval.weighted_f1);
    }

    #[test]
    fn predict_before_fit_is_clean_error() {
        let (_, test) = small_split();
        let clf = BaClassifier::new(BacConfig::fast());
        assert_eq!(clf.predict(&test.records[0]), Err(PredictError::NotFitted));
        assert_eq!(clf.classify_embeddings(&[]), Err(PredictError::NotFitted));
    }

    #[test]
    fn empty_sequence_is_clean_error_once_fitted() {
        let (train, _) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        assert_eq!(
            clf.classify_embeddings(&[]),
            Err(PredictError::EmptyHistory)
        );
    }

    #[test]
    fn staged_prediction_matches_predict() {
        let (train, test) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        for r in test.records.iter().take(10) {
            let direct = clf.predict(r).unwrap();
            let staged = clf.classify_embeddings(&clf.embed_record(r)).unwrap();
            assert_eq!(direct, staged);
        }
    }

    #[test]
    fn saved_weights_reproduce_predictions() {
        let (train, test) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        let path = std::env::temp_dir().join(format!("bac_weights_{}", std::process::id()));
        clf.save_artifact(&path).unwrap();

        let restored = BaClassifier::load_artifact(&path).unwrap();
        assert!(restored.is_fitted());
        for r in test.records.iter().take(15) {
            assert_eq!(clf.predict(r).unwrap(), restored.predict(r).unwrap());
        }
        std::fs::remove_file(path).ok();
    }

    /// A weights list in the per-gate LSTM layout (eight matrices where the
    /// fused cell has `[W | b]`) is refused by the positional count check
    /// of an artifact — not migrated.
    #[test]
    fn eight_matrix_lstm_weights_fail_the_count_check() {
        let clf = BaClassifier::new(BacConfig::fast());
        let values: Vec<Matrix> = clf.all_params().iter().map(|p| p.value().clone()).collect();
        let off = clf.gfn.params().len();
        let h = clf.cfg.model.lstm_hidden;
        let mut per_gate: Vec<Matrix> = values[..off].to_vec();
        for g in 0..4 {
            per_gate.push(values[off].slice_cols(g * h, (g + 1) * h));
            per_gate.push(values[off + 1].slice_cols(g * h, (g + 1) * h));
        }
        per_gate.extend_from_slice(&values[off + 2..]);
        let want = (values.len() + 6, values.len());

        let art = crate::artifact::ModelArtifact {
            config: BacConfig::fast(),
            weights: per_gate,
        };
        match BaClassifier::from_artifact(&art) {
            Err(crate::artifact::ArtifactError::Weights(
                numnet::LoadError::ParamCountMismatch { file, model },
            )) => assert_eq!((file, model), want),
            Err(other) => panic!("expected ParamCountMismatch, got {other:?}"),
            Ok(_) => panic!("an eight-matrix LSTM loaded"),
        }
    }

    #[test]
    fn loading_into_wrong_architecture_fails() {
        let (train, _) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        let mut wrong = clf.to_artifact().unwrap();
        wrong.config.model.embed_dim *= 2;
        assert!(matches!(
            BaClassifier::from_artifact(&wrong),
            Err(crate::artifact::ArtifactError::Weights(
                numnet::LoadError::ShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn embed_graph_matches_record_embedding_path() {
        let (train, _) = small_split();
        let clf = BaClassifier::new(BacConfig::fast());
        let r = &train.records[0];
        let graphs = construct_address_graphs(r, &clf.config().construction);
        let seq = clf.embed_record(r);
        let start = graphs
            .len()
            .saturating_sub(clf.config().model.max_slices.max(1));
        assert_eq!(seq.len(), graphs.len() - start);
        for (g, e) in graphs[start..].iter().zip(&seq) {
            assert_eq!(clf.embed_graph(g).as_slice(), e.as_slice());
        }
    }

    #[test]
    fn evaluate_skips_empty_history_records_instead_of_panicking() {
        let (train, mut test) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        // Streamed datasets contain labeled addresses with no transactions
        // yet; evaluate() used to panic on them via `.expect(...)`.
        test.records.push(btcsim::AddressRecord {
            address: btcsim::Address(u64::MAX),
            label: btcsim::Label::Service,
            txs: Vec::new(),
        });
        let evaluated = test.len() - 1;
        let report = clf.evaluate(&test);
        assert_eq!(report.skipped, 1);
        let support: usize = report.per_class.iter().map(|c| c.support).sum();
        assert_eq!(support, evaluated, "skipped record must not be scored");
    }

    #[test]
    fn parallel_embedding_matches_serial() {
        let (train, _) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        for r in train.records.iter().take(5) {
            let graphs = construct_address_graphs(r, &clf.config().construction);
            let serial = clf.embedding_sequence_from_graphs(&graphs, 1);
            let pooled = clf.embedding_sequence_from_graphs(&graphs, 4);
            assert_eq!(serial.len(), pooled.len());
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn fit_respects_thread_config() {
        // threads=2 must produce a working classifier even on a 1-core box;
        // byte-identity vs threads=1 is asserted in the integration suite
        // and train_bench.
        let (train, test) = small_split();
        let mut cfg = BacConfig::fast();
        cfg.threads = 2;
        let mut clf = BaClassifier::new(cfg);
        clf.fit(&train);
        let eval = clf.evaluate(&test);
        assert!(eval.weighted_f1 > 0.5, "weighted F1 {}", eval.weighted_f1);
    }

    #[test]
    fn batched_graph_embedding_matches_per_graph_path() {
        let (train, _) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        let graphs = construct_address_graphs(&train.records[0], &clf.config().construction);
        let serial: Vec<Matrix> = graphs.iter().map(|g| clf.embed_graph(g)).collect();
        for threads in [1, 4] {
            let batched = clf.embed_graphs(&graphs, threads);
            assert_eq!(serial.len(), batched.len());
            for (a, b) in serial.iter().zip(&batched) {
                assert_eq!(a.as_slice(), b.as_slice(), "threads={threads}");
            }
        }
        assert!(clf.embed_graphs(&[], 4).is_empty());
    }

    #[test]
    fn scored_classification_agrees_with_unscored() {
        let (train, test) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        for r in test.records.iter().take(10) {
            let seq = clf.embed_record(r);
            let plain = clf.classify_embeddings(&seq).unwrap();
            let (scored, margin) = clf.classify_embeddings_scored(&seq).unwrap();
            assert_eq!(plain, scored);
            assert!(margin >= 0.0, "margin is winner minus runner-up");
        }
    }

    #[test]
    fn batched_classification_matches_scored_at_any_thread_count() {
        let (train, test) = small_split();
        let mut clf = BaClassifier::new(BacConfig::fast());
        clf.fit(&train);
        let seqs: Vec<Vec<Matrix>> = test
            .records
            .iter()
            .take(12)
            .map(|r| clf.embed_record(r))
            .collect();
        let reference: Vec<(Label, f32)> = seqs
            .iter()
            .map(|s| clf.classify_embeddings_scored(s).unwrap())
            .collect();
        for threads in [1, 4] {
            let batched = clf.classify_embeddings_batch(&seqs, threads).unwrap();
            assert_eq!(batched.len(), reference.len());
            for ((l, m), (rl, rm)) in batched.iter().zip(&reference) {
                assert_eq!(l, rl, "threads={threads}");
                assert_eq!(m.to_bits(), rm.to_bits(), "threads={threads}");
            }
        }
        assert_eq!(
            clf.classify_embeddings_batch(&[Vec::new()], 2),
            Err(PredictError::EmptyHistory)
        );
    }

    #[test]
    fn batch_apis_require_fit() {
        let clf = BaClassifier::new(BacConfig::fast());
        assert_eq!(
            clf.classify_embeddings_scored(&[]),
            Err(PredictError::NotFitted)
        );
        assert_eq!(
            clf.classify_embeddings_batch(&[] as &[Vec<Matrix>], 2),
            Err(PredictError::NotFitted)
        );
    }

    #[test]
    fn embedding_sequence_lengths_respect_cap() {
        let (train, _) = small_split();
        let mut cfg = BacConfig::fast();
        cfg.model.max_slices = 2;
        cfg.construction.slice_size = 5;
        let clf = BaClassifier::new(cfg);
        for r in train.records.iter().take(10) {
            let seq = clf.embed_record(r);
            assert!(seq.len() <= 2);
            for e in &seq {
                assert_eq!(e.shape(), (1, clf.config().model.embed_dim));
            }
        }
    }
}
