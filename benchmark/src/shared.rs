//! The one shared module of the benchmark: order statistics, digests, the
//! span recorder with its self-time arithmetic, and JSON in and out. Every
//! workload and the orchestrator use these and nothing else for the same
//! jobs, so a percentile or a median means the same thing in every number
//! the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of ascending `sorted`: the ⌈q·n⌉-th smallest
/// sample, so the answer is always a value that was measured. Callers
/// print `sorted.len()` next to it — a p95 over 40 samples and one over
/// 40,000 are different claims.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside 0..=1"
    );
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Fewest repetitions a quiet value is taken over.
pub const MIN_PASSES: usize = 3;

/// The quiet value of repetitions of one piece of work: the fastest.
///
/// The hosts this runs on are shared. For seconds at a time a neighbour
/// slows the same code by a factor of 1.3 to 1.9, and how much of a run of
/// any affordable length is spent at which speed differs from run to run:
/// on the recording host the fast level of a fixed spin loop (2.1 ms) held
/// anything between 0 and 42 % of a 24 s window, the next (2.7 ms) between
/// 16 and 100 %. A median or any other fixed quantile reports whichever
/// level happens to straddle it, and read 16–27 % apart from window to
/// window where the minimum read 0–5 %. Interference only ever adds time
/// (Chen & Revels, "Robust benchmarking in noisy environments", 2016), so
/// the fastest repetition is the one closest to what the program costs,
/// and it is there whenever the host was quiet for one repetition's length
/// at any point in the run.
pub fn quiet(reps: impl IntoIterator<Item = u64>) -> u64 {
    reps.into_iter()
        .min()
        .expect("quiet value of no repetitions")
}

/// Column-wise `quiet`: `rows[p][j]` is the time of piece `j` in pass `p`;
/// the result holds, for every piece, the quiet value of its repetitions.
/// Every pass does the same pieces in the same order, so a burst of host
/// noise spoils the pieces it lands on in that pass and nothing else.
pub fn quiet_columns(rows: &[&[u64]]) -> Vec<u64> {
    assert!(
        rows.len() >= MIN_PASSES,
        "quiet value over {} passes: need at least {MIN_PASSES}",
        rows.len()
    );
    let pieces = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == pieces),
        "passes differ in the number of pieces timed"
    );
    (0..pieces)
        .map(|j| quiet(rows.iter().map(|r| r[j])))
        .collect()
}

/// Most slots a pass's wall time is cut into.
pub const SLOTS: usize = 50;

/// Cuts the wall time of a pass into consecutive slots of (nearly) equal
/// operation count, the same cut in every pass. Throughput is computed
/// from the quiet time of each slot, so it needs the host quiet for 2 % of
/// a pass at a time, not for a whole pass.
pub struct SlotClock {
    ops: usize,
    slots: usize,
    last: Instant,
    ns: Vec<u64>,
}

impl SlotClock {
    /// Start the clock of a pass of `ops` operations.
    pub fn start(ops: usize) -> SlotClock {
        assert!(ops > 0, "a pass of no operations");
        let slots = ops.min(SLOTS);
        SlotClock {
            ops,
            slots,
            last: Instant::now(),
            ns: Vec::with_capacity(slots),
        }
    }

    /// Tell the clock that `done` operations (counted from 1) have been
    /// issued; closes the current slot when `done` reaches its end.
    pub fn op_done(&mut self, done: usize) {
        if done * self.slots >= (self.ns.len() + 1) * self.ops {
            let now = Instant::now();
            self.ns.push((now - self.last).as_nanos() as u64);
            self.last = now;
        }
    }

    /// End of the pass: whatever ran after the last operation was issued
    /// (draining a window, a final reclassification) belongs to the last
    /// slot. Returns the slot times, which add up to the pass's wall time.
    pub fn finish(mut self) -> Vec<u64> {
        assert_eq!(self.ns.len(), self.slots, "pass ended early");
        *self.ns.last_mut().expect("at least one slot") += self.last.elapsed().as_nanos() as u64;
        self.ns
    }
}

/// Plain median (mean of the middle two for an even count); used where the
/// inputs are whole runs or set-ups, not repetitions of a pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the acceptance procedure for this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a over a stream of integers: the input fingerprint and the
/// per-pass output digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(values: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = Fnv::default();
        values.into_iter().for_each(|v| h.add(v));
        h.0
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded interval. `parent` indexes the enclosing span in the same
/// recorder; `id` groups the spans of one request, address or pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// In-memory span recorder for the traced run. Spans nest by call
/// structure: `enter` pushes, `exit` pops, so a span's children are
/// exactly the spans opened while it was the innermost open one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = end_ns;
    }

    /// Time `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, id);
        let out = f();
        self.exit(idx);
        out
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

/// Aggregate of every span sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    /// Σ (end − start).
    pub total_ns: u64,
    /// Σ (end − start − time covered by direct children).
    pub self_ns: u64,
}

/// Per-name totals and self times. A span's self time is its duration
/// minus the durations of its direct children (children never overlap:
/// the recorder is a stack), so self times over a whole tree sum to the
/// root's duration and no nanosecond is counted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Fixed-width self-time table, widest total first.
pub fn self_time_table(agg: &BTreeMap<&'static str, SelfTime>) -> String {
    let mut rows: Vec<_> = agg.iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
    let wall: u64 = rows.iter().map(|(_, s)| s.self_ns).sum();
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "share"
    );
    for (name, s) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / wall.max(1) as f64
        );
    }
    out
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON value: what the benchmark prints (result line, trace files) and
/// what it reads back (`BENCHMARK.json`, its own children's result lines).
/// Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

/// Compact single-line rendering. Finite numbers print in Rust's shortest
/// round-trip form (every measured digit, integers without a fraction);
/// a non-finite number has no JSON form and is a bug in the caller.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in JSON output");
                write!(f, "{n}")
            }
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_json_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b'}')?;
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|n| n.is_finite())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs never occur in the files this
                            // reads; an unpaired one becomes U+FFFD.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_at_the_edges() {
        // n = 1: every rank is the one sample.
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        // n = 10: p50 is the 5th, p95 and p99 both the 10th.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 0.5), 5);
        assert_eq!(percentile(&ten, 0.9), 9);
        assert_eq!(percentile(&ten, 0.95), 10);
        assert_eq!(percentile(&ten, 0.99), 10);
        // n = 11: p50 is the 6th (⌈5.5⌉), p90 the 10th (⌈9.9⌉).
        let eleven: Vec<u64> = (1..=11).collect();
        assert_eq!(percentile(&eleven, 0.5), 6);
        assert_eq!(percentile(&eleven, 0.9), 10);
        assert_eq!(percentile(&eleven, 0.95), 11);
        assert_eq!(percentile(&eleven, 1.0), 11);
    }

    #[test]
    #[should_panic(expected = "percentile of no samples")]
    fn percentile_of_nothing_is_refused() {
        percentile(&[], 0.5);
    }

    #[test]
    fn quiet_is_the_fastest_repetition() {
        assert_eq!(quiet([9, 3, 1]), 1);
        assert_eq!(quiet([5]), 5);
    }

    #[test]
    fn quiet_columns_takes_each_piece_from_its_own_repetitions() {
        // Piece 0 is disturbed in pass 0, piece 1 in pass 2: no pass is
        // quiet throughout, every piece is quiet in two of three.
        let rows: [&[u64]; 3] = [&[90, 20], &[10, 21], &[11, 70]];
        assert_eq!(quiet_columns(&rows), vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "need at least 3")]
    fn quiet_over_two_passes_is_refused() {
        quiet_columns(&[&[1], &[2]]);
    }

    #[test]
    #[should_panic(expected = "passes differ")]
    fn ragged_passes_are_refused() {
        quiet_columns(&[&[1, 2], &[2], &[3, 4]]);
    }

    #[test]
    fn slot_clock_cuts_every_pass_alike() {
        // 7 operations fit 7 slots; 120 are cut into SLOTS, none empty.
        for ops in [1, 7, SLOTS, 120, 8000] {
            let mut clock = SlotClock::start(ops);
            let mut closed_at = Vec::new();
            for done in 1..=ops {
                let before = clock.ns.len();
                clock.op_done(done);
                if clock.ns.len() > before {
                    closed_at.push(done);
                }
            }
            let slots = clock.finish();
            assert_eq!(slots.len(), ops.min(SLOTS));
            assert_eq!(closed_at.last(), Some(&ops));
            assert!(closed_at.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        // root 0..100 holds two adjacent children a 10..30 and b 30..70;
        // b holds a nested grandchild c 40..50.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 50, Some(2)),
        ];
        let agg = self_times(&spans);
        assert_eq!(agg["root"].self_ns, 100 - 20 - 40);
        assert_eq!(agg["a"].self_ns, 20);
        assert_eq!(agg["b"].self_ns, 40 - 10);
        assert_eq!(agg["c"].self_ns, 10);
        // Nothing counted twice: self times sum to the root's duration.
        assert_eq!(agg.values().map(|s| s.self_ns).sum::<u64>(), 100);
        assert_eq!(agg["b"].total_ns, 40);
    }

    #[test]
    fn self_time_aggregates_repeated_names() {
        let spans = [
            span("pass", 0, 50, None),
            span("op", 0, 10, Some(0)),
            span("op", 10, 25, Some(0)),
        ];
        let agg = self_times(&spans);
        assert_eq!(agg["op"].count, 2);
        assert_eq!(agg["op"].total_ns, 25);
        assert_eq!(agg["pass"].self_ns, 25);
    }

    #[test]
    fn tracer_records_parents_by_nesting() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        t.leaf("first", 7, || ());
        t.leaf("second", 7, || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn json_round_trips_what_the_benchmark_writes() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                Json::obj([(
                    "p50_us",
                    Json::obj([("value", Json::Num(35.125)), ("unit", Json::str("us"))]),
                )]),
            ),
            ("note", Json::str("tab\there \"quoted\" \\ back")),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-0.5e-3)])),
        ]);
        let text = v.to_string();
        assert!(text.contains("\"attempted\": 1000,"), "{text}");
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("nul").is_err());
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(Vec::new()));
        assert_eq!(Json::parse("\"\\u00e9\\n\"").unwrap(), Json::str("é\n"));
    }
}
