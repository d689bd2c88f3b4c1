//! Sample statistics and the seeded load generator.
//!
//! Percentiles are nearest-rank, like `localavg_core::metrics::Distribution`:
//! `p(q)` of `N` sorted samples is `sorted[ceil(q·N) - 1]`, an actual
//! sample. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, the tail is not
//! resolved by the run and [`percentile`] refuses.

use localavg_graph::rng::Rng;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q ∈ (0, 1]`, or `None` when the sample is
/// empty or fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let r = rank(values.len(), q);
    (values.len() - r >= MIN_BEYOND).then(|| sorted(values)[r - 1])
}

/// Nearest-rank median of a non-empty sample. The median is the centre
/// of the sample, not a tail, so it is reported at any sample count;
/// callers state the count next to it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    sorted(values)[rank(values.len(), 0.5) - 1]
}

/// Nearest-rank 10th percentile of a non-empty sample: the floor of a
/// run, with the slow ops of the host's bursts left out. Like the
/// median it is reported at any sample count (below 11 samples it is
/// the smallest); callers state the count next to it.
pub fn p10(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "p10 of an empty sample");
    sorted(values)[rank(values.len(), 0.1) - 1]
}

/// The tail percentile a run can resolve: `q` itself when
/// [`percentile`] accepts it, otherwise the highest percentile (in
/// whole per cent, down to the median) that keeps [`MIN_BEYOND`]
/// samples beyond it. Returns the value and the percentile used.
pub fn tail(values: &[f64], q: f64) -> (f64, u32) {
    let want = (q * 100.0).round() as u32;
    for pct in (50..=want).rev() {
        if let Some(v) = percentile(values, f64::from(pct) / 100.0) {
            return (v, pct);
        }
    }
    (median(values), 50)
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A Zipf(`s`) sampler over ranks `0..n` (rank 0 is the most popular):
/// inverse-CDF lookup on a precomputed cumulative table, so every draw
/// costs one uniform variate and one binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution with weight `1 / (k + 1)^s` on rank `k`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty support");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64_unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
