//! The stdin front over the real backends: `run_line_session` driven
//! in-process over the two `NetBackend`s `basharded` builds.
//!
//! 1. Over a `WorkerBackend`, an address another shard owns (and an id
//!    nobody knows) is an `err` line, not an answer, and the session keeps
//!    serving.
//! 2. Over a 1-shard `RouterBackend` — the unsharded daemon — every label
//!    equals `BaClassifier::predict`, in request order, and the `metrics`
//!    line carries exactly the keys `Engine::metrics().to_json()` does.
//! 3. A 64 MiB request line is answered `err` without the reader holding
//!    it: the reply names the cap, not the line's length, and the next
//!    request is served.

use baclassifier::{BaClassifier, BacConfig, ModelArtifact, ShardMap};
use baserve::{run_line_session, Engine, EngineConfig, NetBackend};
use bashard::{RouterBackend, ShardRouter, WorkerBackend};
use btcsim::{Address, AddressRecord, Dataset, SimConfig, Simulator};
use std::collections::HashMap;
use std::io::{BufReader, Cursor, Read};
use std::sync::Arc;

fn fitted() -> (BaClassifier, Arc<ModelArtifact>, Vec<AddressRecord>) {
    let sim = Simulator::run_to_completion(SimConfig::tiny(42));
    let dataset = Dataset::from_simulator(&sim, 3);
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&dataset);
    let artifact = Arc::new(clf.to_artifact().expect("fitted"));
    (clf, artifact, dataset.records)
}

fn by_id(records: &[AddressRecord]) -> HashMap<u64, AddressRecord> {
    records.iter().map(|r| (r.address.0, r.clone())).collect()
}

fn session(backend: &dyn NetBackend, input: String) -> Vec<String> {
    let mut out = Vec::new();
    run_line_session("test", backend, Cursor::new(input), &mut out, 16, false)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(String::from)
        .collect()
}

/// Every quoted token of a metrics JSON line that is not a histogram
/// bucket edge (those are all digits); the writer emits no string values.
fn keys(json: &str) -> Vec<&str> {
    json.split('"')
        .skip(1)
        .step_by(2)
        .filter(|k| k.starts_with(|c: char| c.is_ascii_alphabetic()))
        .collect()
}

#[test]
fn worker_backend_rejects_foreign_and_unknown_ids_with_err_lines() {
    let (_, artifact, records) = fitted();
    let map = ShardMap::new(2);
    let owned = |shard| {
        records
            .iter()
            .map(|r| r.address.0)
            .find(|&id| map.shard_of(Address(id)) == shard)
            .expect("both shards own addresses")
    };
    let (mine, foreign) = (owned(0), owned(1));
    let unknown = (u64::MAX - 64..u64::MAX)
        .find(|&id| map.shard_of(Address(id)) == 0)
        .expect("some unused id hashes to shard 0");

    let engine = Engine::new(artifact, EngineConfig::default().for_shard(2)).unwrap();
    let backend = WorkerBackend::new(engine, by_id(&records), map.assignment(0));
    let lines = session(
        &backend,
        format!("classify {foreign}\nclassify {unknown}\nclassify {mine}\n"),
    );
    assert_eq!(
        lines[0],
        format!("err address {foreign} belongs to shard 1, this worker serves shard 0")
    );
    assert_eq!(lines[1], format!("err no such address {unknown}"));
    assert!(lines[2].starts_with("ok "), "{}", lines[2]);
    assert!(lines[3].starts_with("metrics {\"submitted\":1,"));
    assert_eq!(lines.len(), 4);
}

#[test]
fn one_shard_router_backend_is_the_unsharded_daemon() {
    let (clf, artifact, records) = fitted();
    let reference = Engine::new(Arc::clone(&artifact), EngineConfig::default()).unwrap();
    let engine_json = reference.metrics().to_json();
    reference.shutdown();

    let router = ShardRouter::new(artifact, EngineConfig::default(), 1).unwrap();
    let backend = RouterBackend::new(router, by_id(&records));
    let input: String = records
        .iter()
        .map(|r| format!("classify {}\n", r.address.0))
        .chain(["metrics\n".to_string()])
        .collect();
    let lines = session(&backend, input);

    assert_eq!(lines.len(), records.len() + 2, "replies, metrics, metrics");
    for (line, record) in lines.iter().zip(&records) {
        let want = clf.predict(record).expect("records have transactions");
        assert!(
            line.starts_with(&format!("ok {} ", want.name())),
            "address {}: {line}, direct model says {}",
            record.address.0,
            want.name()
        );
    }
    for line in &lines[records.len()..] {
        let json = line.strip_prefix("metrics ").expect("a metrics line");
        assert_eq!(keys(json), keys(&engine_json));
        assert!(json.contains(&format!("\"completed\":{},", records.len())));
    }
}

#[test]
fn an_oversized_line_is_refused_without_being_buffered() {
    let (_, artifact, records) = fitted();
    let id = records[0].address.0;
    let router = ShardRouter::new(artifact, EngineConfig::default(), 1).unwrap();
    let backend = RouterBackend::new(router, by_id(&records));
    let input = std::io::repeat(b'a')
        .take(64 << 20)
        .chain(Cursor::new(format!("\nclassify {id}\n")));
    let mut out = Vec::new();
    run_line_session("test", &backend, BufReader::new(input), &mut out, 16, false)
        .expect("writing to a Vec cannot fail");
    let out = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines[0].starts_with("err request line too long"),
        "{}",
        lines[0]
    );
    assert!(!lines[0].contains("67108864"), "{}", lines[0]);
    assert!(lines[1].starts_with("ok "), "{}", lines[1]);
}
