//! The single-line JSON object writer behind every metrics `to_json`.

use super::Histogram;
use std::fmt::Write as _;

/// Single-line JSON object writer. Keys are written verbatim (callers pass
/// identifiers); numbers are always valid JSON — a non-finite float is
/// written as `null`, never `NaN`.
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self {
            buf: String::from("{"),
        }
    }
}

impl JsonObject {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{key}\":");
    }

    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// A float with `decimals` fractional digits.
    pub fn f64(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.decimals$}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Every `(name, value)` of a declared counter list.
    pub fn counters<'a>(
        &mut self,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> &mut Self {
        for (name, v) in counters {
            self.u64(name, v);
        }
        self
    }

    /// A histogram as a sparse `{"<value>":count,…}` object: one entry per
    /// exact value below 64 and one per power-of-two octave (keyed by its
    /// low edge) above. The histogram keeps its full resolution; this keeps
    /// the text an operator reads to a few dozen entries.
    pub fn buckets(&mut self, key: &str, h: &Histogram) -> &mut Self {
        let mut grouped: Vec<(u64, u64)> = Vec::new();
        for (value, c) in h.buckets() {
            let low = if value < 64 {
                value
            } else {
                1 << value.ilog2()
            };
            match grouped.last_mut() {
                Some((last, n)) if *last == low => *n += c,
                _ => grouped.push((low, c)),
            }
        }
        let mut inner = JsonObject::new();
        for (low, c) in grouped {
            inner.u64(&low.to_string(), c);
        }
        self.key(key);
        self.buf.push_str(&inner.finish());
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_never_emits_a_non_number() {
        let mut o = JsonObject::new();
        o.f64("nan", f64::NAN, 3).f64("x", 1.5, 2).u64("n", 7);
        assert_eq!(o.finish(), "{\"nan\":null,\"x\":1.50,\"n\":7}");
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
