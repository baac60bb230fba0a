//! Failure injection: the pipeline must handle degenerate and adversarial
//! histories — zero-value transfers (the paper notes these are useless for
//! behavior detection), dust storms, identical timestamps, self-payments,
//! and enormous fan-outs — without panicking or producing non-finite
//! numbers.

use baclassifier::config::ConstructionConfig;
use baclassifier::construction::construct_address_graphs;
use baclassifier::features::graph_tensors;
use baclassifier::{BaClassifier, BacConfig};
use btcsim::{Address, AddressRecord, Amount, Dataset, Label, SimConfig, Simulator, TxView, Txid};

fn tx(ts: u64, id: u64, inputs: Vec<(u64, u64)>, outputs: Vec<(u64, u64)>) -> TxView {
    TxView {
        txid: Txid(id),
        timestamp: ts,
        inputs: inputs
            .into_iter()
            .map(|(a, v)| (Address(a), Amount::from_sats(v)))
            .collect(),
        outputs: outputs
            .into_iter()
            .map(|(a, v)| (Address(a), Amount::from_sats(v)))
            .collect(),
    }
}

fn degenerate_records() -> Vec<AddressRecord> {
    vec![
        // Zero-value transfers only.
        AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs: vec![
                tx(0, 1, vec![(0, 0)], vec![(5, 0)]),
                tx(600, 2, vec![(0, 0)], vec![(6, 0)]),
            ],
        },
        // Self-payment loop: the focus is both sender and receiver.
        AddressRecord {
            address: Address(1),
            label: Label::Exchange,
            txs: vec![tx(0, 3, vec![(1, 1000)], vec![(1, 990)]); 4],
        },
        // All transactions share one timestamp.
        AddressRecord {
            address: Address(2),
            label: Label::Gambling,
            txs: (0..5)
                .map(|i| tx(100, 10 + i, vec![(2, 50)], vec![(30 + i, 45)]))
                .collect(),
        },
        // Dust storm: 300 one-satoshi outputs in one transaction.
        AddressRecord {
            address: Address(3),
            label: Label::Mining,
            txs: vec![tx(
                0,
                99,
                vec![(3, 1_000)],
                (0..300).map(|i| (1_000 + i, 1)).collect(),
            )],
        },
        // Single transaction, single counterparty — minimal viable history.
        AddressRecord {
            address: Address(4),
            label: Label::Service,
            txs: vec![tx(0, 100, vec![(50, 10_000)], vec![(4, 9_000)])],
        },
    ]
}

#[test]
fn construction_survives_degenerate_histories() {
    let cfg = ConstructionConfig::default();
    for record in degenerate_records() {
        let graphs = construct_address_graphs(&record, &cfg);
        assert!(!graphs.is_empty(), "address {:?}", record.address);
        for g in &graphs {
            assert_eq!(g.check_invariants(), Ok(()), "address {:?}", record.address);
            let t = graph_tensors(g);
            assert!(t.x.all_finite(), "address {:?}", record.address);
            assert!((0..t.adj.n()).all(|r| t.adj.row(r).all(|(_, v)| v.is_finite())));
        }
    }
}

#[test]
fn fitted_model_classifies_degenerate_histories_without_panicking() {
    // Train on normal data, then predict on garbage: any label is fine,
    // crashing or NaN is not.
    let sim = Simulator::run_to_completion(SimConfig::tiny(808));
    let train = Dataset::from_simulator(&sim, 2);
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&train);
    for record in degenerate_records() {
        let label = clf
            .predict(&record)
            .expect("degenerate but non-empty history");
        assert!(Label::ALL.contains(&label));
        let seq = clf.embed_record(&record);
        assert!(seq.iter().all(|m| m.all_finite()));
    }
}

#[test]
fn huge_fanout_is_compressed_not_exploded() {
    // 3 transactions to the same 400-address cohort: compression must
    // collapse the cohort rather than hand a 400+-node graph to the model.
    let cohort: Vec<(u64, u64)> = (100..500).map(|a| (a, 25_000)).collect();
    let record = AddressRecord {
        address: Address(0),
        label: Label::Mining,
        txs: (0..3)
            .map(|i| tx(i * 600, 500 + i, vec![(0, 11_000_000)], cohort.clone()))
            .collect(),
    };
    let graphs = construct_address_graphs(&record, &ConstructionConfig::default());
    assert_eq!(graphs.len(), 1);
    assert!(
        graphs[0].num_nodes() < 20,
        "compression left {} nodes",
        graphs[0].num_nodes()
    );
}

#[test]
fn empty_dataset_is_rejected_loudly() {
    let mut clf = BaClassifier::new(BacConfig::fast());
    let empty = Dataset::default();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        clf.fit(&empty);
    }));
    assert!(
        result.is_err(),
        "fitting an empty dataset must panic, not misbehave"
    );
}
