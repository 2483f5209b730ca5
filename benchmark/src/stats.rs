//! Order statistics over timing samples, and the row digest.

use cnb_ir::prelude::Value;

/// Nearest-rank percentile (`p` in (0, 100]) of a sorted, non-empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted nanosecond samples.
pub fn median_ns(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50.0)
}

/// Median of unsorted float samples (mean of the middle two for even
/// counts, as Python's `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `compare` judges spread the way
/// the acceptance rule does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// FNV-1a, 64 bit. Symbols are folded by their text and not by their
/// interned index, so a digest does not depend on interning order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one value, variant tag first.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.bytes(b"i");
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.bytes(b"f");
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.bytes(b"s");
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            Value::Bool(b) => self.bytes(if *b { b"T" } else { b"F" }),
            Value::Oid(class, id) => {
                self.bytes(b"o");
                self.bytes(class.as_str().as_bytes());
                self.u64(*id);
            }
            Value::Struct(fields) => {
                self.bytes(b"{");
                for (name, field) in fields.iter() {
                    self.bytes(name.as_str().as_bytes());
                    self.bytes(b":");
                    self.value(field);
                }
                self.bytes(b"}");
            }
            Value::Set(items) => {
                self.bytes(b"[");
                for item in items.iter() {
                    self.value(item);
                }
                self.bytes(b"]");
            }
            Value::Null => self.bytes(b"n"),
            Value::Param(k) => {
                self.bytes(b"?");
                self.u64(u64::from(*k));
            }
        }
    }
}

/// Digest of result rows in the order the engine returned them.
pub fn digest_rows(rows: &[Value]) -> u64 {
    let mut h = Fnv::default();
    h.u64(rows.len() as u64);
    for row in rows {
        h.value(row);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&[7], 95.0), 7);
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn digest_separates_order_and_content() {
        let a = [Value::Int(1), Value::Int(2)];
        let b = [Value::Int(2), Value::Int(1)];
        assert_ne!(digest_rows(&a), digest_rows(&b));
        assert_eq!(digest_rows(&a), digest_rows(&a.clone()));
    }
}
