//! The line-protocol front: [`crate::protocol`] answered by any
//! [`NetBackend`].
//!
//! A dedicated reader thread feeds raw request lines over a bounded
//! channel (so the serve loop can poll the SIGINT flag — a blocking stdin
//! read would pin the process, because libc `signal` restarts interrupted
//! reads), a FIFO window of in-flight tickets is drained oldest-first so
//! responses print in request order, and a final drain + `metrics` dump
//! happens on EOF, `quit`, or Ctrl-C.
//!
//! Replies are held back only while there is a request to read instead: a
//! piped file keeps up to `window` requests in flight, and whenever no
//! request line is waiting — an operator typing, a client that wants its
//! answer before it asks again — every owed reply is written and flushed as
//! soon as it settles. The bytes and their order are the same either way.
//!
//! The `banet` TCP server is the other front over the same trait; it polls
//! the same [`crate::shutdown`] flag for its own graceful drain.

use crate::engine::Ticket;
use crate::lane::{NetBackend, WireError};
use crate::protocol::{
    format_error, format_response, parse_request_bytes, Request, MAX_LINE_BYTES,
};
use crate::shutdown;
use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc;
use std::time::Duration;

/// One response slot, kept FIFO so output order matches request order even
/// though workers may finish requests out of order.
enum Slot {
    Pending(Ticket),
    Done(String),
}

fn resolve(slot: Slot) -> String {
    match slot {
        Slot::Done(line) => line,
        Slot::Pending(t) => format_response(&t.wait()),
    }
}

/// How long the serve loop blocks on anything before it looks at the
/// SIGINT flag (and at the request channel) again.
const TICK: Duration = Duration::from_millis(100);

/// Spawn the request-reader thread: raw bytes, one line per send, so a
/// client sending invalid UTF-8 gets an `err` response for that request
/// instead of killing the session. Returns the receiving end; the sender
/// drops (and the channel disconnects) on EOF or read error. The thread is
/// detached on purpose: a blocked stdin read cannot be interrupted, and
/// the session must still be able to finish on SIGINT.
fn spawn_reader(mut input: impl BufRead + Send + 'static) -> mpsc::Receiver<Vec<u8>> {
    let (line_tx, line_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    std::thread::spawn(move || loop {
        match read_line_capped(&mut input) {
            Ok(Some(raw)) => {
                if line_tx.send(raw).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("error: reading request stream: {e}");
                break;
            }
        }
    });
    line_rx
}

/// Read one raw line; `None` at end of input. At most `MAX_LINE_BYTES + 1`
/// bytes of it are kept — enough for the parser to refuse it — and the
/// rest is discarded through its newline as it is read, so no client can
/// make the daemon buffer an unbounded line.
fn read_line_capped(input: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if input.take(cap).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        input.skip_until(b'\n')?;
    }
    Ok(Some(line))
}

/// The `metrics` response: per-shard lines (when asked for and the backend
/// has shards) followed by the roll-up.
fn write_metrics(
    out: &mut impl Write,
    backend: &dyn NetBackend,
    per_shard: bool,
) -> std::io::Result<()> {
    if per_shard {
        for (i, snap) in backend.per_shard_metrics().iter().enumerate() {
            writeln!(out, "metrics shard={i} {}", snap.to_json())?;
        }
    }
    writeln!(out, "metrics {}", backend.metrics().to_json())
}

/// Serve the line protocol from `input` to `out` until EOF, `quit`, or
/// SIGINT (the caller installs the handler), then drain every in-flight
/// ticket and print the final metrics lines.
///
/// `name` tags the session's own stderr chatter (`[basharded] …`). Up to
/// `window` requests ride in flight so the engines can batch; whenever no
/// request is waiting to be read, owed replies are written and flushed as
/// they settle.
/// `per_shard_metrics` adds the backend's `metrics shard=i` lines before
/// each roll-up.
pub fn run_line_session(
    name: &str,
    backend: &dyn NetBackend,
    input: impl BufRead + Send + 'static,
    out: impl Write,
    window: usize,
    per_shard_metrics: bool,
) -> std::io::Result<()> {
    let window = window.max(1);
    let line_rx = spawn_reader(input);
    let mut out = std::io::BufWriter::new(out);
    let mut pending: VecDeque<Slot> = VecDeque::new();
    'serve: loop {
        if shutdown::shutdown_requested() {
            eprintln!(
                "[{name}] SIGINT: draining {} pending responses and shutting down…",
                pending.len()
            );
            break;
        }
        let mut raw = match line_rx.try_recv() {
            Ok(raw) => raw,
            Err(mpsc::TryRecvError::Disconnected) => break, // EOF
            // No request is waiting, so whoever sent the earlier ones may
            // be waiting for us: settle the oldest owed reply. The wait is
            // bounded — a reply may depend on a request not yet sent — and
            // nothing already written sits in the buffer through it.
            Err(mpsc::TryRecvError::Empty) => match pending.pop_front() {
                Some(Slot::Done(line)) => {
                    writeln!(out, "{line}")?;
                    continue;
                }
                Some(Slot::Pending(ticket)) => {
                    out.flush()?;
                    match ticket.wait_timeout(TICK) {
                        Ok(reply) => writeln!(out, "{}", format_response(&reply))?,
                        Err(ticket) => pending.push_front(Slot::Pending(ticket)),
                    }
                    continue;
                }
                None => {
                    out.flush()?;
                    match line_rx.recv_timeout(TICK) {
                        Ok(raw) => raw,
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break, // EOF
                    }
                }
            },
        };
        while matches!(raw.last(), Some(b'\n') | Some(b'\r')) {
            raw.pop();
        }
        let request = match parse_request_bytes(&raw) {
            Ok(Some(r)) => r,
            Ok(None) => continue,
            Err(e) => {
                pending.push_back(Slot::Done(format_error(&e.0)));
                continue;
            }
        };
        match request {
            Request::Classify(id) => {
                let slot = match backend.submit(id) {
                    Ok(ticket) => Slot::Pending(ticket),
                    Err(WireError::Serve(e)) => Slot::Done(format_error(&e.to_string())),
                    Err(WireError::Reject(reason)) => Slot::Done(format_error(&reason)),
                };
                pending.push_back(slot);
                if pending.len() >= window {
                    let line = resolve(pending.pop_front().expect("window is non-empty"));
                    writeln!(out, "{line}")?;
                }
            }
            Request::Metrics => {
                // Drain first so the metrics lines sit in request order.
                for slot in pending.drain(..) {
                    writeln!(out, "{}", resolve(slot))?;
                }
                write_metrics(&mut out, backend, per_shard_metrics)?;
                out.flush()?;
            }
            Request::Quit => break 'serve,
        }
    }
    for slot in pending.drain(..) {
        writeln!(out, "{}", resolve(slot))?;
    }
    write_metrics(&mut out, backend, per_shard_metrics)?;
    out.flush()
}
