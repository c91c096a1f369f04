//! Summary statistics: the percentile rule and outcome classification.

use bootleg_serve::{telemetry::outcome_label, ServeOutcome};

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `q` quantile of `samples` (failures as `f64::INFINITY`), lowered to
/// the highest quantile with at least [`TAIL_SAMPLES`] samples beyond it
/// when the sample is too small for `q`. Returns `(value, quantile used)`.
pub fn percentile(samples: &[f64], q: f64) -> (f64, f64) {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted.min(n.saturating_sub(TAIL_SAMPLES + 1));
    (v[rank], (rank + 1) as f64 / n as f64)
}

/// Which quantile of the per-window values [`windowed`] reports: the lower
/// quartile. Co-tenants on a shared host only ever add latency, in
/// stretches of seconds, so the quieter windows track the code rather than
/// the neighbours; a slower code path raises every window.
pub const ACROSS_WINDOWS: f64 = 0.25;

/// The plain `q` quantile of a small sample (nearest rank, rounding down).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q) as usize]
}

/// Splits `samples` (in arrival order) into `max(1, len / per)` windows of
/// equal size, takes each window's `q` quantile by [`percentile`], and
/// returns the [`ACROSS_WINDOWS`] quantile of those.
pub fn windowed(samples: &[f64], per: usize, q: f64) -> f64 {
    let k = (samples.len() / per).max(1);
    let per_window: Vec<f64> = (0..k)
        .map(|i| {
            percentile(
                &samples[i * samples.len() / k..(i + 1) * samples.len() / k],
                q,
            )
            .0
        })
        .collect();
    quantile(&per_window, ACROSS_WINDOWS)
}

/// How one request ended, for the failure fraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered by the Bootleg tier.
    Served,
    /// Answered by a fallback tier: counted as a failure.
    Degraded,
    Shed,
    Rejected,
    Deadline,
    Failed,
}

impl Outcome {
    pub fn of(outcome: &ServeOutcome) -> Self {
        match outcome_label(outcome) {
            "ok" => Outcome::Served,
            "degraded" => Outcome::Degraded,
            "shed" => Outcome::Shed,
            "rejected" => Outcome::Rejected,
            "deadline" => Outcome::Deadline,
            _ => Outcome::Failed,
        }
    }

    pub fn is_failure(self) -> bool {
        self != Outcome::Served
    }
}

/// Requests not served by the Bootleg tier, over requests attempted.
pub fn fail_frac(outcomes: &[Outcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|o| o.is_failure()).count() as f64 / outcomes.len() as f64
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The plain median (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_serve::{ServeError, ServeResponse};

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), (1980.0, 0.99));
        assert_eq!(percentile(&xs, 0.5), (1000.0, 0.5));
        // 500 samples cannot support p99 (5 beyond): rank 489 leaves 10.
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), (490.0, 0.98));
        // Tiny samples fall back to the minimum rather than panicking.
        assert_eq!(percentile(&[3.0, 1.0], 0.99).0, 1.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in xs.iter_mut().take(20) {
            *x = f64::INFINITY; // 2% failed: beyond every finite sample
        }
        assert_eq!(percentile(&xs, 0.99).0, f64::INFINITY);
        assert_eq!(percentile(&xs, 0.5).0, 520.0);
    }

    #[test]
    fn windowed_quantile_shrugs_off_slow_windows() {
        // Five windows of 200 samples; the third and fifth are stalls.
        let stalled = |i: usize| (400..600).contains(&i) || i >= 800;
        let samples: Vec<f64> = (0..1000)
            .map(|i| if stalled(i) { 500.0 } else { (i % 200) as f64 })
            .collect();
        assert_eq!(windowed(&samples, 200, 0.99), 189.0);
        assert_eq!(percentile(&samples, 0.99).0, 500.0);
        // Fewer samples than one window: one window of everything.
        assert_eq!(windowed(&samples[..50], 100, 0.5), 24.0);
        // 1050 samples make five windows of 210, leaving none out.
        let ramp: Vec<f64> = (0..1050).map(f64::from).collect();
        assert_eq!(windowed(&ramp, 200, 0.5), 210.0 + 104.0);
    }

    #[test]
    fn quantile_and_median_of_small_samples() {
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 4.0, 2.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn outcomes_classify_into_fail_frac() {
        let ok = |tier: usize| -> ServeOutcome {
            Ok(ServeResponse {
                predictions: vec![0],
                tier,
                tier_name: if tier == 0 { "bootleg" } else { "prior" },
                degraded: tier > 0,
            })
        };
        let all = [
            ok(0),
            ok(0),
            ok(1),
            Err(ServeError::Shed { queue_depth: 64 }),
            Err(ServeError::DeadlineExceeded {
                phase: "queue",
                tiers: vec![],
            }),
            Err(ServeError::AllTiersFailed { tiers: vec![] }),
            Err(ServeError::Internal {
                message: String::new(),
            }),
            ok(0),
        ];
        let classes: Vec<Outcome> = all.iter().map(Outcome::of).collect();
        assert_eq!(
            classes,
            [
                Outcome::Served,
                Outcome::Served,
                Outcome::Degraded,
                Outcome::Shed,
                Outcome::Deadline,
                Outcome::Failed,
                Outcome::Failed,
                Outcome::Served
            ]
        );
        assert_eq!(fail_frac(&classes), 5.0 / 8.0);
        assert_eq!(fail_frac(&[]), 0.0);
    }
}
