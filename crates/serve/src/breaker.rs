//! A deterministic closed → open → half-open circuit breaker.
//!
//! One breaker guards each tier of the fallback chain. Consecutive failures
//! (panics *or* timeouts) trip it open; while open the tier is skipped and
//! traffic transparently degrades to the next tier. After a cooldown the
//! breaker admits exactly one half-open probe: success closes it, failure
//! re-opens it for another cooldown. All transitions are driven by a
//! [`Clock`](crate::clock::Clock)-supplied timestamp, so tests replay exact
//! schedules with a virtual clock.

/// Breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker. `0` disables the breaker
    /// entirely (it stays closed no matter what).
    pub failure_threshold: u32,
    /// Milliseconds a tripped breaker stays open before admitting one
    /// half-open probe.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 3, cooldown_ms: 1_000 }
    }
}

impl BreakerConfig {
    /// True when the breaker never trips.
    pub fn disabled(&self) -> bool {
        self.failure_threshold == 0
    }
}

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow to the tier.
    Closed,
    /// Tripped: the tier is skipped until the cooldown elapses.
    Open,
    /// Cooling down: exactly one probe request may try the tier.
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
enum Inner {
    Closed { consecutive_failures: u32 },
    Open { since_ms: u64 },
    HalfOpen { probing: bool },
}

/// The breaker itself. Not internally synchronized — the chain wraps each
/// breaker in a `Mutex` (transitions are a few integer ops; contention is
/// irrelevant next to a forward pass).
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Inner,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        Self { config, inner: Inner::Closed { consecutive_failures: 0 } }
    }

    /// The current state as of `now_ms` (an open breaker whose cooldown has
    /// elapsed reports `HalfOpen` even before the next `allow`).
    pub fn state(&self, now_ms: u64) -> BreakerState {
        match self.inner {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { since_ms } if now_ms >= since_ms + self.config.cooldown_ms => {
                BreakerState::HalfOpen
            }
            Inner::Open { .. } => BreakerState::Open,
            Inner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// May a request try the guarded tier right now? Open → half-open
    /// promotion happens here once the cooldown elapses; in half-open only
    /// the first caller gets `true` until the probe's outcome is reported.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.inner {
            Inner::Closed { .. } => true,
            Inner::Open { since_ms } => {
                if now_ms >= since_ms + self.config.cooldown_ms {
                    self.inner = Inner::HalfOpen { probing: true };
                    true
                } else {
                    false
                }
            }
            Inner::HalfOpen { probing: false } => {
                self.inner = Inner::HalfOpen { probing: true };
                true
            }
            Inner::HalfOpen { probing: true } => false,
        }
    }

    /// Reports a successful tier call: closes the breaker and resets the
    /// failure streak.
    pub fn on_success(&mut self) {
        self.inner = Inner::Closed { consecutive_failures: 0 };
    }

    /// Reports a failed tier call at `now_ms`: extends the failure streak,
    /// trips the breaker at the threshold, and re-opens on a failed
    /// half-open probe.
    pub fn on_failure(&mut self, now_ms: u64) {
        if self.config.disabled() {
            return;
        }
        match self.inner {
            Inner::Closed { consecutive_failures } => {
                let failures = consecutive_failures + 1;
                if failures >= self.config.failure_threshold {
                    self.inner = Inner::Open { since_ms: now_ms };
                } else {
                    self.inner = Inner::Closed { consecutive_failures: failures };
                }
            }
            Inner::HalfOpen { .. } => self.inner = Inner::Open { since_ms: now_ms },
            Inner::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_recovers_on_schedule() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 3, cooldown_ms: 100 });
        assert_eq!(b.state(0), BreakerState::Closed);

        // Two failures: still closed.
        b.on_failure(0);
        b.on_failure(1);
        assert!(b.allow(2));
        // Third consecutive failure trips it.
        b.on_failure(2);
        assert_eq!(b.state(2), BreakerState::Open);
        assert!(!b.allow(50), "open before cooldown");

        // Cooldown elapsed: exactly one probe allowed.
        assert!(b.allow(102), "half-open probe");
        assert!(!b.allow(103), "second caller denied mid-probe");
        // Probe fails: re-open, clock restarts.
        b.on_failure(103);
        assert_eq!(b.state(103), BreakerState::Open);
        assert!(!b.allow(150));

        // Second cooldown: probe succeeds, breaker closes.
        assert!(b.allow(203));
        b.on_success();
        assert_eq!(b.state(204), BreakerState::Closed);
        assert!(b.allow(204));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 2, cooldown_ms: 10 });
        b.on_failure(0);
        b.on_success();
        b.on_failure(1);
        assert_eq!(b.state(1), BreakerState::Closed, "streak must reset on success");
        b.on_failure(2);
        assert_eq!(b.state(2), BreakerState::Open);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 0, cooldown_ms: 10 });
        for t in 0..100 {
            b.on_failure(t);
            assert!(b.allow(t));
        }
        assert_eq!(b.state(100), BreakerState::Closed);
    }
}
