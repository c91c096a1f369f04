//! The open-loop load generator: seeded arrival schedules and the pacing
//! clock that turns `serve_requests`' admission loop into a generator.
//!
//! `serve_requests` stamps every request with `clock.now_us()` on the
//! calling thread before it enqueues it. [`PacingClock`] blocks that one
//! thread until the next request is due, so admission happens on the
//! schedule no matter how fast the server drains; worker threads read plain
//! wall time. A shed request makes a second clock call on the admission
//! thread (its completion stamp), which the clock recognises by the
//! `serve.shed` counter having moved and answers without pacing.

use bootleg_serve::Clock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One scheduled request: when it is due (µs from the phase start) and
/// which pool entry it sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_us: u64,
    pub req: usize,
}

/// Poisson arrivals at `rate` per second plus, every `period_us`, a burst
/// of `burst` requests spread evenly over `burst_us`. Each request is drawn
/// uniformly from a pool of `pool` entries. The Poisson stream is a pure
/// function of the seed; the bursts are the same for every seed, in shape
/// and in content, so the backlog they build measures the server's speed
/// rather than how heavy a random burst happened to be.
#[derive(Clone, Copy, Debug)]
pub struct Pattern {
    pub rate: f64,
    pub burst: usize,
    pub burst_us: u64,
    pub period_us: u64,
}

impl Pattern {
    /// Plain Poisson arrivals.
    pub fn poisson(rate: f64) -> Self {
        Self {
            rate,
            burst: 0,
            burst_us: 0,
            period_us: 1,
        }
    }

    /// The arrivals of the first `duration_us` microseconds.
    pub fn schedule(&self, seed: u64, duration_us: u64, pool: usize) -> Vec<Arrival> {
        assert!(pool > 0, "empty request pool");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Exponential gap; 1 - u is in (0, 1].
            t += -(1.0 - rng.gen::<f64>()).ln() / self.rate * 1e6;
            if t >= duration_us as f64 {
                break;
            }
            out.push(Arrival {
                due_us: t as u64,
                req: rng.gen_range(0..pool),
            });
        }
        if self.burst > 0 {
            let mut rng = StdRng::seed_from_u64(BURST_SEED);
            for start in (0..duration_us).step_by(self.period_us as usize) {
                for j in 0..self.burst as u64 {
                    let due_us = start + j * self.burst_us / self.burst as u64;
                    if due_us < duration_us {
                        out.push(Arrival {
                            due_us,
                            req: rng.gen_range(0..pool),
                        });
                    }
                }
            }
            out.sort_by_key(|a| a.due_us);
        }
        out
    }
}

const BURST_SEED: u64 = 0xb0257;

/// Where the pacing clock reads time and how it waits (a fake in tests).
pub trait TimeSource: Send + Sync {
    fn now_us(&self) -> u64;
    fn sleep_until_us(&self, t_us: u64);
}

/// Wall time from construction. Sleeps to 300 µs before the target, then
/// spins, since a bare sleep overshoots. Spinning longer keeps a whole
/// vCPU busy, which on an overcommitted host draws more steal onto the
/// server's own threads.
pub struct Wall {
    start: Instant,
}

impl Wall {
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

const SPIN_US: u64 = 300;

impl TimeSource for Wall {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn sleep_until_us(&self, t_us: u64) {
        let now = self.now_us();
        if t_us > now + SPIN_US {
            std::thread::sleep(Duration::from_micros(t_us - now - SPIN_US));
        }
        while self.now_us() < t_us {
            std::hint::spin_loop();
        }
    }
}

/// The admission thread's view of the current phase.
struct Phase {
    thread: Option<ThreadId>,
    /// Absolute due times (µs on this clock) of the phase's requests.
    due: Vec<u64>,
    next: usize,
    shed_seen: u64,
    /// How late each paced request was released, µs.
    late_us: Vec<u64>,
}

/// A [`Clock`] that paces the admission thread on a schedule.
pub struct PacingClock<T: TimeSource> {
    time: T,
    shed_count: fn() -> u64,
    phase: Mutex<Phase>,
}

/// The serving layer's shed counter, read to spot the shed double call.
pub fn serve_shed_count() -> u64 {
    bootleg_obs::metrics::counter("serve.shed").value()
}

impl<T: TimeSource> PacingClock<T> {
    pub fn new(time: T, shed_count: fn() -> u64) -> Self {
        let phase = Phase {
            thread: None,
            due: Vec::new(),
            next: 0,
            shed_seen: 0,
            late_us: Vec::new(),
        };
        Self {
            time,
            shed_count,
            phase: Mutex::new(phase),
        }
    }

    /// Arms a phase: the calling thread becomes the paced admission thread
    /// and request `i` is released at `start_us + offsets[i]`. Returns the
    /// absolute due times.
    pub fn arm(&self, start_us: u64, offsets: impl Iterator<Item = u64>) -> Vec<u64> {
        let due: Vec<u64> = offsets.map(|o| start_us + o).collect();
        let mut p = self.phase.lock().expect("pacing state");
        *p = Phase {
            thread: Some(std::thread::current().id()),
            due: due.clone(),
            next: 0,
            shed_seen: (self.shed_count)(),
            late_us: Vec::with_capacity(due.len()),
        };
        due
    }

    /// Ends the phase; returns how late each request was released (µs).
    pub fn disarm(&self) -> Vec<u64> {
        let mut p = self.phase.lock().expect("pacing state");
        p.thread = None;
        std::mem::take(&mut p.late_us)
    }

    pub fn wall_us(&self) -> u64 {
        self.time.now_us()
    }
}

impl<T: TimeSource> Clock for PacingClock<T> {
    fn now_ms(&self) -> u64 {
        self.now_us() / 1000
    }

    fn now_us(&self) -> u64 {
        let due = {
            let mut p = self.phase.lock().expect("pacing state");
            if p.thread != Some(std::thread::current().id()) {
                return self.time.now_us();
            }
            let shed = (self.shed_count)();
            if shed != p.shed_seen {
                // The completion stamp of the request just shed.
                p.shed_seen = shed;
                return self.time.now_us();
            }
            let Some(&due) = p.due.get(p.next) else {
                return self.time.now_us();
            };
            p.next += 1;
            due
        };
        self.time.sleep_until_us(due);
        let now = self.time.now_us();
        self.phase
            .lock()
            .expect("pacing state")
            .late_us
            .push(now.saturating_sub(due));
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn poisson_schedule_matches_its_rate() {
        let a = Pattern::poisson(1000.0).schedule(7, 20_000_000, 50);
        assert_eq!(
            a,
            Pattern::poisson(1000.0).schedule(7, 20_000_000, 50),
            "seeded"
        );
        // 20 s at 1000/s: 20000 expected, sd ~141.
        assert!(
            (a.len() as f64 - 20_000.0).abs() < 600.0,
            "{} arrivals",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due_us - w[0].due_us) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential gaps: mean 1000 µs, coefficient of variation 1.
        assert!((mean - 1000.0).abs() < 30.0, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
        let mut hits = vec![0usize; 50];
        a.iter().for_each(|x| hits[x.req] += 1);
        assert!(
            hits.iter().all(|&h| (300..500).contains(&h)),
            "uniform pool draws"
        );
    }

    #[test]
    fn bursts_add_a_fixed_shape_every_period() {
        let p = Pattern {
            rate: 500.0,
            burst: 80,
            burst_us: 25_000,
            period_us: 1_000_000,
        };
        let a = p.schedule(3, 30_000_000, 10);
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let in_burst = |x: &&Arrival| x.due_us % 1_000_000 < 25_000;
        // 30 bursts of 80, plus ~12.5 Poisson arrivals per burst window.
        let inside = a.iter().filter(in_burst).count();
        assert!((2400..2400 + 500).contains(&inside), "{inside} in bursts");
        let base = a.len() - 2400;
        assert!(
            (base as f64 - 15_000.0).abs() < 450.0,
            "{base} base arrivals"
        );
        // The burst shape: 80 requests, 312 µs apart, from each period start.
        let burst_dues: Vec<u64> = (0..80).map(|j| 7_000_000 + j * 25_000 / 80).collect();
        assert!(burst_dues.iter().all(|d| a.iter().any(|x| x.due_us == *d)));
        // Bursts do not depend on the seed; the Poisson stream does.
        let b = p.schedule(4, 30_000_000, 10);
        let bursts = |s: &[Arrival]| -> Vec<Arrival> {
            s.iter()
                .filter(|x| burst_dues.contains(&x.due_us))
                .copied()
                .collect()
        };
        assert_eq!(bursts(&a), bursts(&b));
        assert_ne!(a.len(), b.len());
    }

    /// Manual time: sleeping jumps straight to the target.
    struct Fake(AtomicU64);

    impl TimeSource for Fake {
        fn now_us(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
        fn sleep_until_us(&self, t: u64) {
            self.0.fetch_max(t, Ordering::SeqCst);
        }
    }

    static SHEDS: AtomicU64 = AtomicU64::new(0);

    fn sheds() -> u64 {
        SHEDS.load(Ordering::SeqCst)
    }

    #[test]
    fn pacing_clock_releases_each_request_on_time_and_skips_shed_stamps() {
        let clock = PacingClock::new(Fake(AtomicU64::new(5)), sheds);
        let due = clock.arm(10, [0u64, 100, 250].into_iter());
        assert_eq!(due, vec![10, 110, 260]);
        assert_eq!(clock.now_us(), 10, "first request waits for its due time");
        // Request 0 is shed: its completion stamp must not consume request 1.
        SHEDS.fetch_add(1, Ordering::SeqCst);
        assert_eq!(clock.now_us(), 10, "shed completion stamp is not paced");
        assert_eq!(clock.now_us(), 110);
        // A worker thread reads plain time, never paced.
        let from_worker = std::thread::scope(|s| s.spawn(|| clock.now_us()).join().expect("join"));
        assert_eq!(from_worker, 110);
        clock.time.0.store(300, Ordering::SeqCst); // admission ran late
        assert_eq!(clock.now_us(), 300);
        assert_eq!(clock.disarm(), vec![0, 0, 40]);
        // After the schedule, and once disarmed, the clock is plain time.
        assert_eq!(clock.now_us(), 300);
    }
}
