//! Percentiles and the flat JSON object every probe command prints.

use std::fmt::Write as _;

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, with its value. Falls back to the median when there
/// are too few samples for any tail. `sorted` must be ascending.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50.0);
    Some((p, percentile(sorted, p)))
}

/// Median over consecutive `slice_ns` slices (by the first field, which
/// must not decrease) of each slice's percentile `p`. A stall or a slow
/// stretch of the host that covers fewer than half the slices leaves it
/// unchanged. `timed` must be non-empty.
pub fn sliced_percentile(timed: &[(u64, f64)], slice_ns: u64, p: f64) -> f64 {
    let origin = timed[0].0;
    let mut per_slice = Vec::new();
    let mut slice = Vec::new();
    let mut current = 0;
    for &(t, v) in timed {
        let k = (t - origin) / slice_ns;
        if k != current && !slice.is_empty() {
            per_slice.push(percentile(&sorted(std::mem::take(&mut slice)), p));
        }
        current = k;
        slice.push(v);
    }
    per_slice.push(percentile(&sorted(slice), p));
    percentile(&sorted(per_slice), 50.0)
}

/// Sorts a sample set ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// p50, p90 and the tail (see [`tail`]) of the samples in `path`, one
/// number per line.
pub fn quantiles_of(path: &std::path::Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let samples = text
        .split_whitespace()
        .map(|v| v.parse().map_err(|e| format!("bad sample `{v}`: {e}")))
        .collect::<Result<Vec<f64>, String>>()?;
    let samples = sorted(samples);
    let (tail_p, tail_v) = tail(&samples).ok_or("no samples")?;
    let mut report = Report::default();
    report
        .int("n", samples.len() as u64)
        .num("p50", percentile(&samples, 50.0))
        .num("p90", percentile(&samples, 90.0))
        .num("tail", tail_v)
        .num("tail_pct", tail_p);
    Ok(report)
}

/// An ordered list of named numbers printed as one JSON object.
#[derive(Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    /// Adds a number.
    pub fn num(&mut self, name: &str, value: f64) -> &mut Report {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push((name.to_string(), text));
        self
    }

    /// Adds a count.
    pub fn int(&mut self, name: &str, value: u64) -> &mut Report {
        self.fields.push((name.to_string(), value.to_string()));
        self
    }

    /// Adds a string (no escaping beyond quotes and backslashes).
    pub fn text(&mut self, name: &str, value: &str) -> &mut Report {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields
            .push((name.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 has only nine beyond, so p90.
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        // 100 samples: p90 (rank 90) has ten beyond.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 30 samples: only the median has ten beyond.
        assert_eq!(tail(&ramp(30)), Some((50.0, 15.0)));
        // Too few for any tail: the median is reported.
        assert_eq!(tail(&ramp(5)), Some((50.0, 3.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn sliced_percentile_ignores_a_minority_of_bad_slices() {
        // Five 1 s slices of ten samples 1..=10 (p90 = 9); the third
        // slice is a stall where every sample reads 100.
        let timed: Vec<(u64, f64)> = (0..50u64)
            .map(|i| {
                let v = if i / 10 == 2 {
                    100.0
                } else {
                    (i % 10 + 1) as f64
                };
                (i * 100_000_000, v)
            })
            .collect();
        assert_eq!(sliced_percentile(&timed, 1_000_000_000, 90.0), 9.0);
        // Over the whole set the stall shows.
        let all = sorted(timed.iter().map(|&(_, v)| v).collect());
        assert_eq!(percentile(&all, 90.0), 100.0);
        // One slice: its own percentile.
        assert_eq!(sliced_percentile(&timed[..10], 1_000_000_000, 90.0), 9.0);
    }

    #[test]
    fn report_renders_flat_json() {
        let mut r = Report::default();
        r.num("a.b", 1.5).int("n", 3).text("s", "x\"y");
        assert_eq!(r.render(), r#"{"a.b":1.5,"n":3,"s":"x\"y"}"#);
    }
}
