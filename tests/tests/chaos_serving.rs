//! Chaos acceptance: the serving stack under deterministic fault injection.
//!
//! Four properties must hold no matter what the fault script throws at the
//! engine:
//!
//! 1. **No request is silently dropped** — every submitted request reaches
//!    exactly one terminal outcome, and the metrics identity
//!    `completed + failed + timed_out + degraded + rejected == submitted`
//!    balances once the stream is drained.
//! 2. **The engine survives every fault** — worker panics (which poison the
//!    shared cache lock), injected delays, and breaker trips never wedge or
//!    kill the pool; a healthy request after the storm still succeeds.
//! 3. **Degraded answers are honest** — a response served while the breaker
//!    is open matches the standalone fallback classifier byte-for-byte and
//!    is tagged `degraded` on the wire.
//! 4. **Corrupted artifacts never load** — bit-flipped or truncated `.bart`
//!    bytes are rejected by the checksum, not half-loaded.

use baclassifier::durable::MAGIC_LEN;
use baclassifier::{ArtifactError, BacConfig, ModelArtifact};
use baserve::{
    corrupt_bytes, format_response, garble_line, parse_request_bytes, truncate_line, Engine,
    EngineConfig, EngineHooks, Fallback, FaultAction, FaultSpec, ScriptedFaultPlan, ServeError,
};
use btcsim::{AddressRecord, Dataset, SimConfig, Simulator};
use std::sync::Arc;
use std::time::Duration;

fn test_records(n: usize) -> Vec<AddressRecord> {
    let sim = Simulator::run_to_completion(SimConfig::tiny(9));
    let ds = Dataset::from_simulator(&sim, 3);
    assert!(ds.len() >= n, "tiny sim yielded only {} records", ds.len());
    ds.records.into_iter().take(n).collect()
}

/// Property 1 + 2: a scripted storm of panics and delays — every request
/// resolves to exactly one terminal outcome, the accounting identity holds,
/// and the pool keeps serving afterwards.
#[test]
fn scripted_fault_storm_leaves_no_request_unaccounted() {
    let records = test_records(8);
    // Single worker, sequential submits: request k is batch k, so the
    // script below addresses requests directly. Panics on batches 1 and 3,
    // a deadline-busting delay on batch 5.
    let plan = Arc::new(ScriptedFaultPlan::new(vec![
        FaultSpec {
            worker: 0,
            batch: 1,
            action: FaultAction::Panic,
        },
        FaultSpec {
            worker: 0,
            batch: 3,
            action: FaultAction::Panic,
        },
        FaultSpec {
            worker: 0,
            batch: 5,
            action: FaultAction::Delay(Duration::from_millis(600)),
        },
    ]));
    let engine = Engine::with_hooks(
        Arc::new(ModelArtifact::untrained(BacConfig::fast())),
        EngineConfig {
            workers: 1,
            default_deadline: Some(Duration::from_millis(250)),
            ..EngineConfig::default()
        },
        EngineHooks {
            fault_plan: Arc::clone(&plan) as Arc<dyn baserve::FaultPlan>,
            ..EngineHooks::default()
        },
    )
    .unwrap();

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut timed_out = 0u64;
    for (i, record) in records.into_iter().enumerate() {
        let ticket = engine
            .submit(record)
            .expect("queue accepts sequential load");
        // Exactly one terminal outcome per request — `wait` must never hang
        // or return anything outside the three expected outcomes.
        match ticket.wait() {
            Ok(r) => {
                assert!(!r.degraded);
                completed += 1;
            }
            Err(ServeError::WorkerFailed) => failed += 1,
            Err(ServeError::DeadlineExceeded) => timed_out += 1,
            Err(e) => panic!("request {i}: unexpected outcome {e}"),
        }
    }
    assert_eq!(plan.injected(), 3, "the whole script must have fired");
    assert_eq!((completed, failed, timed_out), (5, 2, 1));

    // The pool survived: a post-storm request succeeds on the model path.
    let post = engine.classify(test_records(1).remove(0)).unwrap();
    assert!(!post.degraded);

    let snap = engine.metrics();
    assert_eq!(snap.submitted, 9);
    assert_eq!(snap.completed, 6);
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.timed_out, 1);
    assert_eq!(snap.worker_panics, 2);
    assert_eq!(snap.worker_restarts, 2);
    assert_eq!(
        snap.terminal_total(),
        snap.submitted,
        "dropped or double-counted requests: {snap:?}"
    );
    engine.shutdown();
}

/// Property 3: once the worker has retired and the breaker is open,
/// responses come from the fallback classifier, match it byte-for-byte,
/// and say so on the wire.
#[test]
fn degraded_answers_match_the_fallback_byte_for_byte() {
    let records = test_records(6);
    let fallback = Arc::new(Fallback::fit(&records));
    // The engine's restart budget is four: the fifth panic retires the
    // only worker, which forces the breaker open.
    let plan = Arc::new(ScriptedFaultPlan::panics(0, &[1, 2, 3, 4, 5]));
    let engine = Engine::with_hooks(
        Arc::new(ModelArtifact::untrained(BacConfig::fast())),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        EngineHooks {
            fault_plan: plan as Arc<dyn baserve::FaultPlan>,
            fallback: Some(Arc::clone(&fallback)),
        },
    )
    .unwrap();

    // The scripted panics fail the first five requests and retire the
    // worker; the last reply races the retirement, so wait for it.
    for _ in 0..5 {
        let first = engine.classify(records[0].clone());
        assert!(matches!(first, Err(ServeError::WorkerFailed)), "{first:?}");
    }
    let retired = std::time::Instant::now() + Duration::from_secs(5);
    while engine.live_workers() > 0 && std::time::Instant::now() < retired {
        std::thread::sleep(Duration::from_millis(1));
    }

    for record in &records[1..] {
        let response = engine.classify(record.clone()).unwrap();
        assert!(response.degraded, "breaker open: must be fallback-served");
        assert_eq!(response.label, fallback.classify(record));
        // Byte-for-byte on the wire, modulo the latency field.
        let line = format_response(&Ok(response));
        let direct = fallback.classify(record);
        assert!(line.starts_with("ok "), "{line}");
        assert!(line.ends_with(" degraded"), "{line}");
        assert_eq!(
            line.split_whitespace().nth(1).unwrap().as_bytes(),
            direct.name().as_bytes()
        );
    }
    let snap = engine.metrics();
    assert_eq!(snap.degraded, 5);
    assert_eq!(snap.failed, 5);
    assert_eq!(snap.breaker_trips, 1);
    assert_eq!(snap.terminal_total(), snap.submitted);
    engine.shutdown();
}

/// Property 4: artifact corruption — bit flips anywhere after the magic
/// and torn (truncated) writes — is a typed error at load time: a frame's
/// checksum or a frame that is not where the header says; the intact file
/// keeps loading.
#[test]
fn corrupted_and_truncated_artifacts_never_load() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let dir = std::env::temp_dir();
    let good = dir.join(format!("chaos_good_{}.bart", std::process::id()));
    artifact.save(&good).unwrap();
    let bytes = std::fs::read(&good).unwrap();
    assert!(ModelArtifact::load(&good).is_ok());

    let bad = dir.join(format!("chaos_bad_{}.bart", std::process::id()));
    for seed in 0..16u64 {
        let mut torn = bytes.clone();
        corrupt_bytes(&mut torn[MAGIC_LEN..], seed, 4);
        std::fs::write(&bad, &torn).unwrap();
        match ModelArtifact::load(&bad) {
            Err(ArtifactError::Frames(_)) => {}
            other => panic!("seed {seed}: corrupt frames must be refused, got {other:?}"),
        }
    }
    // A torn write: half the frames missing.
    let torn = &bytes[..MAGIC_LEN + (bytes.len() - MAGIC_LEN) / 2];
    std::fs::write(&bad, torn).unwrap();
    assert!(matches!(
        ModelArtifact::load(&bad),
        Err(ArtifactError::Frames(_))
    ));

    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&bad).ok();
}

/// Protocol chaos: a request stream interleaving valid lines with garbled,
/// truncated, corrupted, and non-UTF-8 ones produces exactly one response
/// per request line, never panics, and valid requests still get served.
#[test]
fn garbled_protocol_traffic_never_kills_the_session() {
    let records = test_records(4);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let engine = Engine::new(artifact, EngineConfig::default()).unwrap();

    let mut state = 0xc0ffee_u64;
    let mut responses = 0usize;
    let mut served = 0usize;
    for round in 0..25u64 {
        // One valid request per round, book-ended by hostile lines.
        let valid = format!(
            "classify {}",
            records[round as usize % records.len()].address.0
        );
        let hostile: Vec<Vec<u8>> = vec![
            garble_line(&valid, round).into_bytes(),
            truncate_line(&valid, round).into_bytes(),
            {
                let mut b = valid.clone().into_bytes();
                corrupt_bytes(&mut b, round, 3);
                b
            },
            vec![0xff, 0xfe, b'c', b'l'],
        ];
        for line in hostile.iter().map(Vec::as_slice).chain([valid.as_bytes()]) {
            match parse_request_bytes(line) {
                Ok(Some(baserve::Request::Classify(id))) => {
                    // Garbling can still yield a well-formed id; only known
                    // addresses reach the engine, like `baserved` does it.
                    if let Some(r) = records.iter().find(|r| r.address.0 == id) {
                        let outcome = engine.classify(r.clone());
                        assert!(outcome.is_ok(), "healthy engine must serve: {outcome:?}");
                        served += 1;
                    }
                    responses += 1;
                }
                Ok(Some(_)) | Err(_) => responses += 1, // err line or command
                Ok(None) => {}                          // blank/comment: no response owed
            }
            let _ = baserve::splitmix64(&mut state);
        }
    }
    assert!(served >= 25, "every valid line must have been served");
    assert!(responses >= served);
    let snap = engine.metrics();
    assert_eq!(snap.completed as usize, served);
    assert_eq!(snap.terminal_total(), snap.submitted);
    engine.shutdown();
}
