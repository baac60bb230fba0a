//! Property-based equivalence of incremental and batch construction: for
//! random transaction histories, feeding txs one at a time through
//! `IncrementalGraphs::apply_tx` must leave state **byte-identical** to
//! running the batch pipeline over the same history — the invariant the
//! bstream chain follower's correctness rests on.

use baclassifier::construction::pipeline::construct_address_graphs;
use baclassifier::construction::{
    augment_with_centralities, compress_multi_tx, compress_single_tx, extract_original_graphs,
    graphs_identical, AddressGraph, IncrementalGraphs, MultiCompressParams,
};
use baclassifier::ConstructionConfig;
use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};
use proptest::prelude::*;

/// Strategy: a random transaction history for focus address 0, with
/// counterparties drawn from a small pool so repeat-visitor structure
/// (multi-tx compression fodder) occurs.
fn history_strategy() -> impl Strategy<Value = AddressRecord> {
    let tx = (
        proptest::collection::vec((1u64..30, 1u64..2_000_000), 0..5), // other inputs
        proptest::collection::vec((1u64..30, 1u64..2_000_000), 1..6), // outputs
        any::<bool>(),                                                // focus side
    );
    proptest::collection::vec(tx, 1..40).prop_map(|txs| {
        let views = txs
            .into_iter()
            .enumerate()
            .map(|(i, (mut ins, mut outs, focus_in))| {
                if focus_in {
                    ins.push((0, 700_000));
                } else {
                    outs.push((0, 650_000));
                }
                TxView {
                    txid: Txid(i as u64),
                    timestamp: i as u64 * 600,
                    inputs: ins
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                    outputs: outs
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                }
            })
            .collect();
        AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs: views,
        }
    })
}

/// The public stage chain over `record`, ablations included.
fn public_chain(record: &AddressRecord, cfg: &ConstructionConfig) -> Vec<AddressGraph> {
    let params = MultiCompressParams {
        psi: cfg.psi,
        sigma: cfg.sigma,
    };
    let derive = |raw: AddressGraph| {
        let mut g = match cfg.compress {
            true => compress_multi_tx(&compress_single_tx(&raw), params),
            false => raw,
        };
        if cfg.augment {
            augment_with_centralities(&mut g);
        }
        g
    };
    let raw = extract_original_graphs(record, cfg.slice_size);
    raw.into_iter().map(derive).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn raw_incremental_state_equals_batch_extraction(
        record in history_strategy(),
        slice in 1usize..13,
    ) {
        let mut inc = IncrementalGraphs::new(
            record.address,
            ConstructionConfig { slice_size: slice, ..Default::default() },
        );
        for tx in &record.txs {
            inc.apply_tx(tx);
        }
        let batch = extract_original_graphs(&record, slice);
        prop_assert_eq!(graphs_identical(inc.raw_graphs(), &batch), Ok(()));
        prop_assert_eq!(inc.num_txs(), record.txs.len());
        prop_assert_eq!(inc.num_slices(), record.txs.len().div_ceil(slice));
    }

    #[test]
    fn derived_incremental_state_equals_batch_pipeline(
        record in history_strategy(),
        slice in 1usize..13,
        compress in any::<bool>(),
        augment in any::<bool>(),
    ) {
        let cfg = ConstructionConfig {
            slice_size: slice,
            compress,
            augment,
            ..Default::default()
        };
        let mut inc = IncrementalGraphs::new(record.address, cfg.clone());
        for tx in &record.txs {
            inc.apply_tx(tx);
        }
        let batch = construct_address_graphs(&record, &cfg);
        prop_assert_eq!(graphs_identical(&inc.graphs(), &batch), Ok(()));
    }

    #[test]
    fn equivalence_survives_interleaved_reads(
        record in history_strategy(),
        slice in 1usize..9,
        read_every in 1usize..5,
    ) {
        // Deriving mid-stream (as the follower does after every block) must
        // not perturb subsequent state.
        let cfg = ConstructionConfig { slice_size: slice, ..Default::default() };
        let mut inc = IncrementalGraphs::new(record.address, cfg.clone());
        for (i, tx) in record.txs.iter().enumerate() {
            inc.apply_tx(tx);
            if i % read_every == 0 {
                let prefix = AddressRecord {
                    address: record.address,
                    label: record.label,
                    txs: record.txs[..=i].to_vec(),
                };
                let batch = construct_address_graphs(&prefix, &cfg);
                prop_assert_eq!(graphs_identical(&inc.graphs(), &batch), Ok(()));
            }
        }
        let full = construct_address_graphs(&record, &cfg);
        prop_assert_eq!(graphs_identical(&inc.graphs(), &full), Ok(()));
    }

    #[test]
    fn forgetting_frozen_slices_keeps_the_suffix_identical(
        record in history_strategy(),
        slice in 1usize..9,
        forget_at in proptest::collection::vec(any::<bool>(), 40),
        read_at in proptest::collection::vec(any::<bool>(), 40),
    ) {
        // The follower forgets an address's frozen slices after every tick.
        // What is retained must stay the batch path's slices from the first
        // retained index on — whether or not the open slice had been seeded
        // when its predecessors went — and the counts still cover everything.
        let cfg = ConstructionConfig { slice_size: slice, ..Default::default() };
        let mut inc = IncrementalGraphs::new(record.address, cfg.clone());
        let mut first = 0;
        for (i, tx) in record.txs.iter().enumerate() {
            inc.apply_tx(tx);
            if forget_at[i] {
                inc.forget_frozen();
                first = i / slice;
            }
            prop_assert_eq!(inc.num_txs(), i + 1);
            prop_assert_eq!(inc.num_slices(), (i + 1).div_ceil(slice));
            if !read_at[i] && i + 1 < record.txs.len() {
                continue;
            }
            let prefix = AddressRecord {
                address: record.address,
                label: record.label,
                txs: record.txs[..=i].to_vec(),
            };
            let raw_batch = extract_original_graphs(&prefix, slice);
            prop_assert_eq!(inc.raw_graphs()[0].slice_index, first);
            prop_assert_eq!(graphs_identical(inc.raw_graphs(), &raw_batch[first..]), Ok(()));
            let batch = construct_address_graphs(&prefix, &cfg);
            prop_assert_eq!(graphs_identical(&inc.graphs(), &batch[first..]), Ok(()));
        }
    }

    #[test]
    fn derived_state_is_the_public_stage_chain_at_every_prefix(
        record in history_strategy(),
        slice in 1usize..13,
        compress in any::<bool>(),
        augment in any::<bool>(),
        read_raw_at in proptest::collection::vec(any::<bool>(), 40),
    ) {
        // `graphs()` derives from the raw slices' edges only, whether or not
        // a `raw_graphs()` read seeded their nodes since the last transaction.
        let cfg = ConstructionConfig { slice_size: slice, compress, augment, ..Default::default() };
        let mut inc = IncrementalGraphs::new(record.address, cfg.clone());
        for (i, tx) in record.txs.iter().enumerate() {
            inc.apply_tx(tx);
            if read_raw_at[i] {
                inc.raw_graphs();
            }
            let prefix = AddressRecord {
                address: record.address,
                label: record.label,
                txs: record.txs[..=i].to_vec(),
            };
            prop_assert_eq!(graphs_identical(&inc.graphs(), &public_chain(&prefix, &cfg)), Ok(()));
        }
    }
}
