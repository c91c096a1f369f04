//! Time sources for the circuit breaker.
//!
//! Breaker transitions (open → half-open cooldowns) are driven by a
//! [`Clock`] so tests can replace wall time with a [`VirtualClock`] and
//! assert the exact open/half-open/close schedule deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic millisecond counter.
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed since the clock's epoch.
    fn now_ms(&self) -> u64;

    /// Microseconds elapsed since the clock's epoch — the serving loop
    /// stamps admission, pop and batch formation in µs. Defaults to
    /// millisecond resolution (`now_ms() * 1000`) so virtual clocks stay
    /// consistent; [`WallClock`] overrides it with real microsecond
    /// precision.
    fn now_us(&self) -> u64 {
        self.now_ms().saturating_mul(1000)
    }
}

/// Real wall time, measured from construction.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        Self { start: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A manually advanced clock for deterministic breaker tests.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ms: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance_ms(250);
        assert_eq!(c.now_ms(), 250);
        c.advance_ms(1);
        assert_eq!(c.now_ms(), 251);
        assert_eq!(c.now_us(), 251_000, "default now_us tracks now_ms");
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }
}
