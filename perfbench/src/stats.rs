//! Order statistics, a bounded uniform sample of a value stream, and the
//! process's peak resident set.

/// The `q` quantile of `v` (linear interpolation between closest ranks);
/// 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A uniform sample of at most `THINNED_CAP` values from an unbounded
/// stream, with the stream's exact count and sum. When the sample is full,
/// every other kept value is dropped and the keep-stride doubles, so memory
/// stays bounded however long the traced run is.
#[derive(Clone, Debug)]
pub struct Thinned {
    vals: Vec<f64>,
    stride: u64,
    seen: u64,
    sum: f64,
}

const THINNED_CAP: usize = 1 << 12;

impl Default for Thinned {
    fn default() -> Self {
        Thinned {
            vals: Vec::new(),
            stride: 1,
            seen: 0,
            sum: 0.0,
        }
    }
}

impl Thinned {
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        if self.seen.is_multiple_of(self.stride) {
            if self.vals.len() == THINNED_CAP {
                let mut keep = false;
                self.vals.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.vals.push(v);
            }
        }
        self.seen += 1;
    }

    /// Fold another stream's sample into this one.
    pub fn merge(&mut self, other: &Thinned) {
        self.vals.extend_from_slice(&other.vals);
        self.seen += other.seen;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.seen
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn median(&self) -> f64 {
        median(&self.vals)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn thinned_keeps_a_bounded_uniform_sample() {
        let mut t = Thinned::default();
        let n = 5 * THINNED_CAP as u64;
        for i in 0..n {
            t.push(i as f64);
        }
        assert_eq!(t.count(), n);
        assert!(t.vals.len() <= THINNED_CAP);
        let m = t.median();
        assert!((m / (n as f64 / 2.0) - 1.0).abs() < 0.05, "median {m}");
    }
}
