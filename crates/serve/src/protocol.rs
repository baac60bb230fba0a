//! The line protocol spoken by `basharded` (`crate::session` is its front).
//!
//! Requests, one per line (blank lines and `#` comments are ignored):
//!
//! ```text
//! classify <address-id>   # classify one address by its numeric id
//! metrics                 # dump a MetricsSnapshot as one JSON line
//! quit                    # stop reading and shut down
//! ```
//!
//! Responses, one line per request, in request order:
//!
//! ```text
//! ok <label> <latency-µs>us <hit|miss>
//! err <message>
//! metrics <json>
//! ```

use crate::engine::{Response, ServeError};

/// One parsed request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Classify the address with this numeric id.
    Classify(u64),
    /// Dump current service metrics.
    Metrics,
    /// Stop serving.
    Quit,
}

/// Longest request line the parser will look at. Anything bigger is
/// rejected before tokenization — a garbled or adversarial client must not
/// be able to make the daemon buffer or scan unbounded input per line.
pub const MAX_LINE_BYTES: usize = 4096;

/// Longest single field (command or argument). The widest legitimate token
/// is a u64 (20 digits); 64 leaves slack for future commands.
pub const MAX_FIELD_BYTES: usize = 64;

/// A malformed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// The refusal of a line over [`MAX_LINE_BYTES`]. It names the cap, not
/// the line's length: the session's reader stops keeping a line's bytes
/// past the cap, so it never learns how long the line was.
fn line_too_long() -> ProtocolError {
    ProtocolError(format!(
        "request line too long (max {MAX_LINE_BYTES} bytes)"
    ))
}

/// Parse one request line. `Ok(None)` means the line carries no request
/// (blank or comment) and should simply be skipped.
pub fn parse_request(line: &str) -> Result<Option<Request>, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(line_too_long());
    }
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let cmd = parts.next().expect("non-empty line has a first token");
    if cmd.len() > MAX_FIELD_BYTES {
        return Err(ProtocolError(format!(
            "field too long ({} bytes, max {MAX_FIELD_BYTES})",
            cmd.len()
        )));
    }
    let req = match cmd {
        "classify" => {
            let arg = parts
                .next()
                .ok_or_else(|| ProtocolError("classify needs an address id".into()))?;
            if arg.len() > MAX_FIELD_BYTES {
                return Err(ProtocolError(format!(
                    "field too long ({} bytes, max {MAX_FIELD_BYTES})",
                    arg.len()
                )));
            }
            let id = arg
                .parse::<u64>()
                .map_err(|_| ProtocolError(format!("bad address id {arg:?}")))?;
            Request::Classify(id)
        }
        "metrics" => Request::Metrics,
        "quit" => Request::Quit,
        other => return Err(ProtocolError(format!("unknown command {other:?}"))),
    };
    if let Some(extra) = parts.next() {
        return Err(ProtocolError(format!(
            "trailing token {extra:?} after {cmd}"
        )));
    }
    Ok(Some(req))
}

/// Parse one raw request line that may not be valid UTF-8. Invalid bytes
/// are a clean [`ProtocolError`] — the connection survives; only the one
/// request is answered with `err`.
pub fn parse_request_bytes(line: &[u8]) -> Result<Option<Request>, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(line_too_long());
    }
    let text = std::str::from_utf8(line)
        .map_err(|_| ProtocolError("request line is not valid UTF-8".into()))?;
    parse_request(text)
}

/// Render the outcome of a `classify` request as one response line. The
/// third field is the serving mode: `hit`/`miss` for model-path answers,
/// `degraded` when the fallback classifier answered while the engine was
/// shedding load.
pub fn format_response(result: &Result<Response, ServeError>) -> String {
    match result {
        Ok(r) => format!(
            "ok {} {}us {}",
            r.label.name(),
            r.latency.as_micros(),
            if r.degraded {
                "degraded"
            } else if r.cache_hit {
                "hit"
            } else {
                "miss"
            }
        ),
        Err(e) => format!("err {e}"),
    }
}

/// Render an error that happened before a request reached the engine
/// (parse failure, unknown address).
pub fn format_error(msg: &str) -> String {
    format!("err {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcsim::Label;
    use std::time::Duration;

    #[test]
    fn parses_the_three_commands() {
        assert_eq!(
            parse_request("classify 42"),
            Ok(Some(Request::Classify(42)))
        );
        assert_eq!(parse_request("  metrics "), Ok(Some(Request::Metrics)));
        assert_eq!(parse_request("quit"), Ok(Some(Request::Quit)));
    }

    #[test]
    fn skips_blanks_and_comments() {
        assert_eq!(parse_request(""), Ok(None));
        assert_eq!(parse_request("   "), Ok(None));
        assert_eq!(parse_request("# a comment"), Ok(None));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("classify").is_err());
        assert!(parse_request("classify abc").is_err());
        assert!(parse_request("classify 1 2").is_err());
        assert!(parse_request("shutdown").is_err());
    }

    #[test]
    fn formats_ok_and_err() {
        let ok = Ok(Response {
            label: Label::Mining,
            cache_hit: true,
            degraded: false,
            latency: Duration::from_micros(128),
        });
        assert_eq!(format_response(&ok), "ok Mining 128us hit");
        let err: Result<Response, ServeError> = Err(ServeError::QueueFull);
        assert_eq!(format_response(&err), "err request queue is full");
        assert_eq!(format_error("no such address 7"), "err no such address 7");
    }

    #[test]
    fn formats_degraded_responses_distinctly() {
        let degraded = Ok(Response {
            label: Label::Exchange,
            cache_hit: false,
            degraded: true,
            latency: Duration::from_micros(9),
        });
        assert_eq!(format_response(&degraded), "ok Exchange 9us degraded");
        let err: Result<Response, ServeError> = Err(ServeError::DeadlineExceeded);
        assert_eq!(format_response(&err), "err request deadline exceeded");
        let err: Result<Response, ServeError> = Err(ServeError::WorkerFailed);
        assert_eq!(format_response(&err), "err serving worker failed");
    }

    #[test]
    fn oversized_lines_and_fields_are_rejected() {
        let long_line = format!("classify {}", "1".repeat(MAX_LINE_BYTES));
        assert!(parse_request(&long_line).is_err());
        let long_field = format!("classify {}", "1".repeat(MAX_FIELD_BYTES + 1));
        assert!(parse_request(&long_field).is_err());
        let long_cmd = "x".repeat(MAX_FIELD_BYTES + 1);
        assert!(parse_request(&long_cmd).is_err());
        // At the boundary, a plain bad-id error — not a length error.
        let at_limit = format!("classify {}", "1".repeat(MAX_FIELD_BYTES));
        assert!(parse_request(&at_limit).is_err());
    }

    #[test]
    fn byte_parser_handles_empty_and_non_utf8_input() {
        assert_eq!(parse_request_bytes(b""), Ok(None));
        assert_eq!(parse_request_bytes(b"   "), Ok(None));
        assert_eq!(
            parse_request_bytes(b"classify 7"),
            Ok(Some(Request::Classify(7)))
        );
        let err = parse_request_bytes(&[0xff, 0xfe, b'h', b'i']).unwrap_err();
        assert!(err.0.contains("UTF-8"), "got {err:?}");
        let huge = vec![b'a'; MAX_LINE_BYTES + 1];
        assert!(parse_request_bytes(&huge).is_err());
    }

    #[test]
    fn garbled_and_truncated_lines_never_panic() {
        let originals = ["classify 42", "metrics", "quit", "# comment", ""];
        for (i, line) in originals.iter().enumerate() {
            for seed in 0..50u64 {
                let s = seed * 31 + i as u64;
                let _ = parse_request(&crate::fault::garble_line(line, s));
                let _ = parse_request(&crate::fault::truncate_line(line, s));
                let mut bytes = line.as_bytes().to_vec();
                crate::fault::corrupt_bytes(&mut bytes, s, 2);
                let _ = parse_request_bytes(&bytes);
            }
        }
    }
}
