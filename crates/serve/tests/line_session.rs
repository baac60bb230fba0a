//! The stdin front (`baserve::session`) over a scripted backend: reply
//! order across the window, `err` lines for bad requests, `metrics`
//! draining first, EOF and `quit` ending alike, owed replies flushed while
//! the input idles. Its own test binary because the session polls the
//! process-wide SIGINT flag, which the library's unit tests trip. The real
//! backends are driven in `tests/tests/line_session.rs`.

use baserve::protocol::MAX_LINE_BYTES;
use baserve::{
    run_line_session, MetricsSnapshot, NetBackend, Response, ServeError, Ticket, WireError,
};
use btcsim::Label;
use std::io::{BufReader, Cursor, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Sender, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

type Reply = SyncSender<Result<Response, ServeError>>;

/// Answers `id` with label `id % 4`; tickets settle in pairs, the later
/// request first, so only the session's FIFO window can put replies
/// back in request order (and a window below 2 would wait forever).
/// Id 99 is unknown, id 98 finds the queue full.
#[derive(Default)]
struct PairwiseBackend {
    held: Mutex<Option<(u64, Reply)>>,
    submitted: AtomicU64,
}

fn settle(id: u64, reply: Reply) {
    let response = Response {
        label: Label::from_index((id % 4) as usize).unwrap(),
        cache_hit: false,
        degraded: false,
        latency: Duration::from_micros(id),
    };
    reply.send(Ok(response)).unwrap();
}

impl NetBackend for PairwiseBackend {
    fn submit(&self, id: u64) -> Result<Ticket, WireError> {
        match id {
            99 => return Err(WireError::Reject(format!("no such address {id}"))),
            98 => return Err(WireError::Serve(ServeError::QueueFull)),
            _ => {}
        }
        self.submitted.fetch_add(1, Relaxed);
        let (reply, ticket) = Ticket::pending();
        let mut held = self.held.lock().unwrap();
        match held.take() {
            Some((earlier, earlier_reply)) => {
                settle(id, reply);
                settle(earlier, earlier_reply);
            }
            None => *held = Some((id, reply)),
        }
        Ok(ticket)
    }

    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Relaxed),
            ..MetricsSnapshot::default()
        }
    }

    fn per_shard_metrics(&self) -> Vec<MetricsSnapshot> {
        vec![self.metrics(), MetricsSnapshot::default()]
    }
}

fn session(input: &[u8], window: usize, per_shard: bool) -> Vec<String> {
    let mut out = Vec::new();
    run_line_session(
        "test",
        &PairwiseBackend::default(),
        Cursor::new(input.to_vec()),
        &mut out,
        window,
        per_shard,
    )
    .unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

fn ok_line(id: u64) -> String {
    let label = Label::from_index((id % 4) as usize).unwrap();
    format!("ok {} {id}us miss", label.name())
}

#[test]
fn replies_come_back_in_request_order_across_the_window() {
    let input = b"classify 1\nclassify 2\nclassify 3\nclassify 4\nclassify 5\nclassify 6\n";
    for window in [2, 3, 64] {
        let lines = session(input, window, false);
        let want: Vec<String> = (1..=6).map(ok_line).collect();
        assert_eq!(lines[..6], want[..], "window {window}");
        assert_eq!(lines.len(), 7, "EOF ends with one metrics line");
        assert!(lines[6].starts_with("metrics {\"submitted\":6,"));
    }
}

#[test]
fn bad_lines_get_err_and_the_session_keeps_serving() {
    let mut input = b"classify 1\nfrobnicate\nclassify\nclassify 7 8\n".to_vec();
    input.extend_from_slice(b"classify \xff\xfe\n");
    input.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 1]);
    input.extend_from_slice(b"\n\n# a comment\nclassify 99\nclassify 98\nclassify 2\r\n");
    let lines = session(&input, 64, false);
    let want = [
        ok_line(1),
        "err unknown command \"frobnicate\"".into(),
        "err classify needs an address id".into(),
        "err trailing token \"8\" after classify".into(),
        "err request line is not valid UTF-8".into(),
        format!("err request line too long (max {MAX_LINE_BYTES} bytes)"),
        "err no such address 99".into(),
        "err request queue is full".into(),
        ok_line(2),
    ];
    assert_eq!(lines[..want.len()], want[..]);
    assert!(lines[want.len()].starts_with("metrics {\"submitted\":2,"));
    assert_eq!(lines.len(), want.len() + 1);
}

#[test]
fn metrics_drains_pending_first_and_quit_ends_like_eof() {
    let lines = session(
        b"classify 1\nclassify 2\nmetrics\nclassify 3\nclassify 4\nquit\nclassify 5\n",
        64,
        true,
    );
    assert_eq!(lines[..2], [ok_line(1), ok_line(2)]);
    assert!(lines[2].starts_with("metrics shard=0 {\"submitted\":2,"));
    assert!(lines[3].starts_with("metrics shard=1 {\"submitted\":0,"));
    assert!(lines[4].starts_with("metrics {\"submitted\":2,"));
    assert_eq!(lines[5..7], [ok_line(3), ok_line(4)]);
    // `quit` stops reading: request 5 is never submitted, and the
    // session ends with the same metrics lines EOF prints.
    assert!(lines[7].starts_with("metrics shard=0 {\"submitted\":4,"));
    assert!(lines[9].starts_with("metrics {\"submitted\":4,"));
    assert_eq!(lines.len(), 10);
}

/// The session's `out`, one message per write that reaches it — which,
/// behind the session's `BufWriter`, means one per flush.
struct FlushedTo(Sender<Vec<u8>>);

impl Write for FlushedTo {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .send(buf.to_vec())
            .expect("the test outlives the session");
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn owed_replies_are_flushed_while_the_input_stays_open() {
    let (input, mut requests) = std::io::pipe().unwrap();
    let (flushed_tx, flushed) = channel();
    let session = std::thread::spawn(move || {
        run_line_session(
            "test",
            &PairwiseBackend::default(),
            BufReader::new(input),
            FlushedTo(flushed_tx),
            64,
            false,
        )
    });
    requests.write_all(b"classify 1\nclassify 2\n").unwrap();
    // No EOF, no `metrics`, no full window: the two replies are owed to a
    // client that sends nothing more until it has read them.
    let want = format!("{}\n{}\n", ok_line(1), ok_line(2));
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut got = Vec::new();
    while got.len() < want.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        match flushed.recv_timeout(left) {
            Ok(bytes) => got.extend(bytes),
            Err(_) => panic!(
                "after 1 s with the input open, out holds only {:?}",
                String::from_utf8_lossy(&got)
            ),
        }
    }
    assert_eq!(String::from_utf8(got).unwrap(), want);
    drop(requests); // EOF
    session.join().unwrap().unwrap();
    let rest: Vec<u8> = flushed.try_iter().flatten().collect();
    assert!(String::from_utf8(rest)
        .unwrap()
        .starts_with("metrics {\"submitted\":2,"));
}
