//! `run`: the measured process. Boots serving from the generated artifact,
//! drives `serve_requests` → admission queue → micro-batcher →
//! `FallbackChain` → `ModelTier` under open-loop load, then trains on the
//! workload's own sentences, checking every answer along the way.

use crate::loadgen::{serve_shed_count, Arrival, PacingClock, Pattern, Wall};
use crate::spans::Spans;
use crate::stats::{
    fail_frac, mean, median, percentile, quantile, windowed, Outcome, ACROSS_WINDOWS,
};
use crate::{gen, inputs, probes, Check, Metrics};
use bootleg_baselines::PopularityPrior;
use bootleg_core::{Example, ForwardOptions, TrainConfig};
use bootleg_corpus::{LabelKind, Sentence};
use bootleg_kb::stats::PopularitySlice;
use bootleg_kb::EntityId;
use bootleg_serve::{
    serve_requests, BreakerConfig, FallbackChain, ModelTier, PredictorTier, RequestCx, ServeConfig,
    Tier, TierFailure,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The latency limit `max_qps_at_slo` holds p99 to.
pub const SLO_MS: f64 = 25.0;
/// Largest failure fraction a ladder rung may show and still pass.
const LADDER_MAX_FAIL: f64 = 0.01;
/// Bisection rungs of the rate ladder.
const LADDER_RUNGS: usize = 6;
/// Distinct requests in a workload's pool.
const POOL_CAP: usize = 2048;
/// Seeds the choice of a workload's request pool and training subset.
const POOL_SEED: u64 = 0x9e11;
const LADDER_SEED: u64 = 0x1add;
/// The training order is fixed too, so every run trains on the same batches.
const TRAIN_SEED: u64 = 0x7a11;
const NOMINAL_ATTEMPTS: usize = 2;
const QUIET_STEAL: f64 = 0.02;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Training: ten epochs over a tenth of the subset each, so epoch `i` is the
/// `i`-th tenth of the run's optimizer steps.
const TRAIN_EPOCHS: usize = 10;
const TRAIN_BATCH: usize = 16;
/// Latency quantiles are taken per window of about this many consecutive
/// requests (a p99 with ten samples beyond it), then summarised across
/// windows by `stats::windowed`.
const WINDOW: usize = 1000;
/// Each `serve_requests` call starts fresh worker threads with cold
/// caches and arenas; latencies of requests due this early in a phase are
/// not counted (their answers are still checked).
const WARMUP_US: u64 = 2_000_000;
const RUNG_WARMUP_US: u64 = 250_000;

/// Which held-out sentences a workload sends, and which training sentences
/// it trains on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Every held-out sentence: mentions follow the corpus popularity law.
    Zipf,
    /// Only sentences whose rarest gold mention is tail or unseen.
    Tail,
}

pub struct Workload {
    name: &'static str,
    traffic: Traffic,
    /// The fixed-rate phase that `p50_ms`/`p99_ms` are read from.
    nominal: Pattern,
    /// Offered-rate bracket the ladder bisects, requests per second.
    ladder: (f64, f64),
}

pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "serve_zipf_burst" => Some(Workload {
            name: "serve_zipf_burst",
            traffic: Traffic::Zipf,
            nominal: Pattern {
                rate: 800.0,
                burst: 24,
                burst_us: 10_000,
                period_us: 250_000,
            },
            ladder: (1000.0, 4000.0),
        }),
        "serve_tail_sparse" => Some(Workload {
            name: "serve_tail_sparse",
            traffic: Traffic::Tail,
            nominal: Pattern::poisson(300.0),
            ladder: (600.0, 2400.0),
        }),
        _ => None,
    }
}

/// Rarity of the rarest gold mention, `slice_of` semantics.
fn is_tail(counts: &HashMap<EntityId, u32>, golds: impl Iterator<Item = EntityId>) -> bool {
    golds
        .map(|e| bootleg_eval::slice_of(counts, e))
        .any(|s| matches!(s, PopularitySlice::Tail | PopularitySlice::Unseen))
}

fn example_is_tail(counts: &HashMap<EntityId, u32>, ex: &Example) -> bool {
    is_tail(
        counts,
        ex.mentions
            .iter()
            .filter_map(|m| m.gold.map(|g| m.candidates[g as usize])),
    )
}

fn sentence_is_tail(counts: &HashMap<EntityId, u32>, s: &Sentence) -> bool {
    is_tail(
        counts,
        s.mentions
            .iter()
            .filter(|m| m.label != LabelKind::Unlabeled)
            .map(|m| m.gold),
    )
}

/// One tier-0 call: when it started and ended (µs on the pacing clock) and
/// which requests (1-based submission sequence numbers) it answered.
struct BatchRec {
    start_us: u64,
    end_us: u64,
    seqs: Vec<u64>,
}

/// Wraps the model tier: delegates to it, and timestamps each call.
struct BenchTier<'a> {
    inner: ModelTier<'a>,
    clock: &'a PacingClock<Wall>,
    spans: &'a Spans,
    recs: Mutex<Vec<BatchRec>>,
}

impl Tier for &BenchTier<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&self, ex: &Example, cx: &RequestCx) -> Result<Vec<usize>, TierFailure> {
        self.predict_batch(&[ex], std::slice::from_ref(cx))
            .pop()
            .expect("one result")
    }

    fn predict_batch(
        &self,
        exs: &[&Example],
        cxs: &[RequestCx],
    ) -> Vec<Result<Vec<usize>, TierFailure>> {
        let _span = self
            .spans
            .open("tier0.predict_batch", cxs.first().map_or(0, |c| c.seq));
        let start_us = self.clock.wall_us();
        let out = self.inner.predict_batch(exs, cxs);
        let end_us = self.clock.wall_us();
        let seqs = cxs.iter().map(|c| c.seq).collect();
        self.recs.lock().expect("batch records").push(BatchRec {
            start_us,
            end_us,
            seqs,
        });
        out
    }

    fn warm(&self) {
        self.inner.warm();
    }
}

/// What one open-loop phase measured, per request in submission order.
struct PhaseOut {
    /// Due → answer, ms, in arrival order; `INFINITY` unless the Bootleg
    /// tier answered.
    lat_ms: Vec<f64>,
    /// Due → the batch reaching tier 0, ms (answered requests only).
    /// Neither list holds requests due in the phase's warm-up.
    wait_ms: Vec<f64>,
    outcomes: Vec<Outcome>,
    late_us: Vec<u64>,
    /// Tier-0 calls: (batch size, µs).
    batches: Vec<(usize, u64)>,
}

struct Bench<'a> {
    chain: FallbackChain<'a>,
    tier: &'a BenchTier<'a>,
    clock: &'a PacingClock<Wall>,
    limits: bootleg_core::ValidationLimits,
    cfg: ServeConfig,
    pool: &'a [Example],
    expected: &'a [Vec<usize>],
    spans: &'a Spans,
}

impl Bench<'_> {
    fn phase(
        &self,
        name: &'static str,
        arrivals: &[Arrival],
        warmup_us: u64,
    ) -> Result<PhaseOut, Check> {
        let _span = self.spans.open(name, 0);
        let requests: Vec<Example> = arrivals.iter().map(|a| self.pool[a.req].clone()).collect();
        self.tier.recs.lock().expect("batch records").clear();
        // A short lead so the first request is not already late.
        let start = self.clock.wall_us() + 2_000;
        let due = self.clock.arm(start, arrivals.iter().map(|a| a.due_us));
        let outcomes = serve_requests(&self.chain, &self.limits, &self.cfg, &requests);
        let late_us = self.clock.disarm();
        let recs = std::mem::take(&mut *self.tier.recs.lock().expect("batch records"));

        if outcomes.len() != requests.len() {
            return Err(Check::fail(
                "exactly_one_outcome",
                "outcome count differs from requests",
            ));
        }
        let mut answered: Vec<Option<(u64, u64)>> = vec![None; requests.len()];
        for r in &recs {
            for &seq in &r.seqs {
                let slot = &mut answered[seq as usize - 1];
                if slot.is_some() {
                    return Err(Check::fail(
                        "exactly_one_outcome",
                        format!("request {seq} reached tier 0 twice"),
                    ));
                }
                *slot = Some((r.start_us, r.end_us));
            }
        }
        let mut lat_ms = Vec::with_capacity(requests.len());
        let mut wait_ms = Vec::new();
        for (i, outcome) in outcomes.iter().enumerate() {
            let counted = arrivals[i].due_us >= warmup_us;
            match (Outcome::of(outcome), outcome, answered[i]) {
                (Outcome::Served, Ok(resp), Some((start, end))) => {
                    if resp.predictions != self.expected[arrivals[i].req] {
                        return Err(Check::fail(
                            "answers_match_direct_run",
                            format!("request {} answered {:?}", i + 1, resp.predictions),
                        ));
                    }
                    if counted {
                        lat_ms.push(end.saturating_sub(due[i]) as f64 / 1e3);
                        wait_ms.push(start.saturating_sub(due[i]) as f64 / 1e3);
                    }
                }
                (Outcome::Served, _, None) => {
                    return Err(Check::fail(
                        "exactly_one_outcome",
                        format!("request {} answered by no tier-0 call", i + 1),
                    ));
                }
                _ if counted => lat_ms.push(f64::INFINITY),
                _ => {}
            }
        }
        Ok(PhaseOut {
            lat_ms,
            wait_ms,
            outcomes: outcomes.iter().map(Outcome::of).collect(),
            late_us,
            batches: recs
                .iter()
                .map(|r| (r.seqs.len(), r.end_us - r.start_us))
                .collect(),
        })
    }

    /// Whether an offered rate meets the SLO: p99 within it, failures within
    /// 1%, and no growing backlog (the last fifth's median within half the
    /// SLO).
    fn meets_slo(out: &PhaseOut) -> bool {
        let last = &out.lat_ms[out.lat_ms.len() - (out.lat_ms.len() / 5).max(1)..];
        windowed(&out.lat_ms, WINDOW, 0.99) <= SLO_MS
            && fail_frac(&out.outcomes) <= LADDER_MAX_FAIL
            && median(last) <= SLO_MS / 2.0
    }
}

/// Runs `f` (a training run) while a sampler thread watches the
/// `train.steps` counter; returns `f`'s result and the wall time of every
/// optimizer step after the first (the first also holds the trainer's own
/// set-up). The counter is polled every 200 µs.
fn step_times<R>(f: impl FnOnce() -> R) -> (R, Vec<f64>) {
    let steps = bootleg_obs::metrics::counter("train.steps");
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut seen, mut at) = (steps.value(), None::<Instant>);
            let mut out = Vec::new();
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let v = steps.value();
                if v != seen {
                    let now = Instant::now();
                    if let Some(prev) = at {
                        let per = now.duration_since(prev).as_secs_f64() / (v - seen) as f64;
                        out.extend(std::iter::repeat_n(per, (v - seen) as usize));
                    }
                    (seen, at) = (v, Some(now));
                }
            }
            out
        });
        let r = f();
        done.store(true, Ordering::Release);
        (r, sampler.join().expect("step sampler"))
    })
}

pub struct Args<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: &'a Path,
    pub out: &'a Path,
}

/// Runs one workload; fills `m` and returns (attempted, failed).
pub fn run(a: &Args<'_>, m: &mut Metrics) -> Result<(u64, u64), Check> {
    let w = workload(a.workload).ok_or_else(|| Check::fail("workload", a.workload.to_string()))?;
    bootleg_obs::set_metrics_enabled(true);
    let spans = Spans::new(a.trace);
    let artifact = a.dir.join(gen::ARTIFACT);
    let held_out =
        inputs::read_sentences(&a.dir.join(gen::REQUESTS)).map_err(|e| Check::io("inputs", e))?;
    let train_split =
        inputs::read_sentences(&a.dir.join(gen::TRAIN)).map_err(|e| Check::io("inputs", e))?;
    let clock = Arc::new(PacingClock::new(Wall::new(), serve_shed_count));

    // ---- Set-up: thaw, build the chain, warm it; the median of several.
    let mut setup_s = Vec::new();
    let mut thaw_ms = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let _span = spans.open("setup", 0);
        drop(kept.take()); // one bundle in memory at a time
        let t = Instant::now();
        let bundle = bootleg_core::thaw_from_path(&artifact)
            .map_err(|e| Check::fail("thaw", e.to_string()))?;
        thaw_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let chain = FallbackChain::with_clock(clock.clone(), BreakerConfig::default())
            .with_slice_counts(&bundle.counts)
            .tier(ModelTier::new(&bundle.model, &bundle.kb))
            .tier(PredictorTier::new("prior", PopularityPrior));
        chain.warm();
        setup_s.push(t.elapsed().as_secs_f64());
        drop(chain);
        kept = Some(bundle);
    }
    let mut bundle = kept.expect("at least one set-up");

    // ---- The workload's request pool and the answers it must get.
    // The pools are part of the fixed dataset; the workload seed drives
    // the nominal arrival schedule.
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let mut pool: Vec<Example> = held_out
        .iter()
        .filter_map(Example::evaluation)
        .filter(|ex| w.traffic == Traffic::Zipf || example_is_tail(&bundle.counts, ex))
        .collect();
    pool.shuffle(&mut rng);
    pool.truncate(POOL_CAP);
    if pool.len() < 100 {
        return Err(Check::fail(
            "request_pool",
            format!("only {} requests", pool.len()),
        ));
    }
    let expected: Vec<Vec<usize>> = pool
        .iter()
        .map(|ex| {
            bundle
                .model
                .run(
                    &bundle.kb,
                    std::slice::from_ref(ex),
                    ForwardOptions::inference(),
                )
                .expect("no deadline")
                .pop()
                .expect("one output")
                .predictions
        })
        .collect();
    let tail_req: Vec<bool> = pool
        .iter()
        .map(|ex| example_is_tail(&bundle.counts, ex))
        .collect();

    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1);
    let cfg = ServeConfig::default().with_workers(workers);
    bootleg_obs::set_trace_enabled(a.trace);

    let (nominal, ladder_rate, arena_misses);
    {
        let tier = BenchTier {
            inner: ModelTier::new(&bundle.model, &bundle.kb),
            clock: &clock,
            spans: &spans,
            recs: Mutex::new(Vec::new()),
        };
        let limits = tier.inner.limits();
        let chain = FallbackChain::with_clock(clock.clone(), BreakerConfig::default())
            .with_slice_counts(&bundle.counts)
            .tier(&tier)
            .tier(PredictorTier::new("prior", PopularityPrior));
        let bench = Bench {
            chain,
            tier: &tier,
            clock: &clock,
            limits,
            cfg,
            pool: &pool,
            expected: &expected,
            spans: &spans,
        };

        // ---- Nominal open-loop phase.
        let nominal_us = (a.seconds * 0.5 * 1e6) as u64;
        let arrivals = w.nominal.schedule(a.seed, nominal_us, pool.len());
        // A phase during which the hypervisor took more than QUIET_STEAL of
        // the CPU is run again, once; the quieter attempt counts.
        let mut best: Option<(f64, PhaseOut, u64)> = None;
        for attempt in 1..=NOMINAL_ATTEMPTS {
            let cpu0 = crate::sys::cpu_jiffies();
            let miss0 = bootleg_obs::metrics::counter("arena.miss").value();
            let out = bench.phase("phase.nominal", &arrivals, WARMUP_US)?;
            let misses = bootleg_obs::metrics::counter("arena.miss").value() - miss0;
            let steal = crate::sys::steal_share(cpu0, crate::sys::cpu_jiffies());
            m.info(
                if attempt == 1 {
                    "nominal_steal_1"
                } else {
                    "nominal_steal_2"
                },
                steal,
            );
            if best.as_ref().is_none_or(|b| steal < b.0) {
                best = Some((steal, out, misses));
            }
            if steal <= QUIET_STEAL {
                break;
            }
        }
        let (_, out, misses) = best.expect("one nominal attempt");
        arena_misses = misses;
        let tail_lat: Vec<f64> = arrivals
            .iter()
            .filter(|a| a.due_us >= WARMUP_US)
            .zip(&out.lat_ms)
            .filter(|(a, _)| tail_req[a.req])
            .map(|(_, &l)| l)
            .collect();
        if tail_lat.is_empty() {
            return Err(Check::fail(
                "tail_requests",
                "the schedule sent no tail request",
            ));
        }
        m.set("tail_p99_ms", "ms", windowed(&tail_lat, WINDOW, 0.99));
        nominal = (arrivals, out);

        // ---- Rate ladder: geometric bisection of the bracket. Every rung,
        // in every run, replays one unit schedule scaled to its rate, so
        // rungs differ only in rate.
        let rung_us = (a.seconds * 0.2 / LADDER_RUNGS as f64 * 1e6) as u64;
        // `lo`/`hi` carry the windowed p99 measured there (the bracket ends
        // are assumed to pass at the SLO and fail at 4x it).
        let (mut lo, mut hi) = ((w.ladder.0, SLO_MS / 4.0), (w.ladder.1, 4.0 * SLO_MS));
        // Interference only ever slows a rung down, so a failing rung gets
        // a second try before the bracket shrinks.
        for _ in 0..LADDER_RUNGS {
            let rate = (lo.0 * hi.0).sqrt();
            let arrivals = Pattern::poisson(rate).schedule(LADDER_SEED, rung_us, pool.len());
            let mut p99 = f64::INFINITY;
            let mut pass = false;
            for _ in 0..2 {
                let out = bench.phase("phase.ladder_rung", &arrivals, RUNG_WARMUP_US)?;
                p99 = p99.min(windowed(&out.lat_ms, WINDOW, 0.99).min(4.0 * SLO_MS));
                pass = Bench::meets_slo(&out);
                if pass {
                    break;
                }
            }
            if pass {
                lo = (rate, p99);
            } else {
                hi = (rate, p99.max(SLO_MS));
            }
        }
        // Where p99 crosses the SLO between the last passing and failing
        // rungs, interpolating log p99 over log rate.
        let f = ((SLO_MS / lo.1).ln() / (hi.1 / lo.1).ln()).clamp(0.0, 1.0);
        ladder_rate = lo.0 * (hi.0 / lo.0).powf(f);

        if a.trace {
            probes::record_cost(&bench.chain, &pool, m);
            probes::forward_phases(&bundle.model, &bundle.kb, &pool, m);
        }
    }
    bootleg_obs::set_trace_enabled(false);
    let peak_rss_mb = crate::sys::peak_rss_mb();
    // Read before training, whose parameter updates invalidate the plane.
    let plane_bytes = bundle.model.entity_cache_bytes();

    // ---- Training on the workload's own sentences.
    let mut train_pool: Vec<Sentence> = train_split
        .into_iter()
        .filter(|s| Example::training(s).is_some())
        .filter(|s| w.traffic == Traffic::Zipf || sentence_is_tail(&bundle.counts, s))
        .collect();
    train_pool.shuffle(&mut rng);
    // Ten epochs of round(seconds / 8) optimizer steps each.
    let train_sentences = TRAIN_EPOCHS * TRAIN_BATCH * ((a.seconds / 8.0).round() as usize).max(1);
    train_pool.truncate(train_sentences);
    if train_pool.len() < train_sentences {
        return Err(Check::fail(
            "train_pool",
            format!("only {} sentences", train_pool.len()),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = bootleg_pool::ThreadPool::new(nproc);
    let train_cfg = TrainConfig {
        epochs: TRAIN_EPOCHS,
        batch_size: TRAIN_BATCH,
        max_sentences: Some(train_sentences / TRAIN_EPOCHS),
        seed: TRAIN_SEED,
        ..TrainConfig::default()
    };
    bootleg_obs::set_trace_enabled(a.trace);
    let (report, step_s) = {
        let _span = spans.open("train", 0);
        step_times(|| {
            bootleg_pool::with_pool(&pool_threads, || {
                bootleg_core::train(&mut bundle.model, &bundle.kb, &train_pool, &train_cfg)
            })
        })
    };
    if step_s.len() < train_sentences / TRAIN_BATCH / 2 {
        return Err(Check::fail(
            "train_steps_observed",
            format!("{} steps timed", step_s.len()),
        ));
    }
    let losses = &report.epoch_losses;
    if losses.len() != TRAIN_EPOCHS || losses.iter().any(|l| !l.is_finite()) {
        return Err(Check::fail("train_losses_finite", format!("{losses:?}")));
    }
    if !report.recovery_events.is_empty() {
        return Err(Check::fail(
            "train_no_recovery",
            format!("{:?}", report.recovery_events[0]),
        ));
    }
    if losses[TRAIN_EPOCHS - 1] >= losses[0] {
        return Err(Check::fail("train_loss_falls", format!("{losses:?}")));
    }
    if a.trace {
        bootleg_pool::with_pool(&pool_threads, || {
            probes::train_steps(&mut bundle.model, &bundle.kb, &train_pool, m)
        });
        probes::kernels(m);
    }
    bootleg_obs::set_trace_enabled(false);

    // ---- Metrics.
    let (arrivals, out) = &nominal;
    let n = arrivals.len() as f64;
    m.set("setup_s", "s", median(&setup_s));
    m.set("p50_ms", "ms", windowed(&out.lat_ms, WINDOW, 0.5));
    m.set("p99_ms", "ms", windowed(&out.lat_ms, WINDOW, 0.99));
    m.set("max_qps_at_slo", "1/s", ladder_rate);
    m.set(
        "train_sents_per_s",
        "1/s",
        TRAIN_BATCH as f64 / quantile(&step_s, ACROSS_WINDOWS),
    );
    m.set("peak_rss_mb", "MB", peak_rss_mb);

    let count = |o: Outcome| out.outcomes.iter().filter(|&&x| x == o).count() as f64;
    let b1: Vec<f64> = out
        .batches
        .iter()
        .filter(|b| b.0 == 1)
        .map(|b| b.1 as f64)
        .collect();
    let bn: Vec<&(usize, u64)> = out.batches.iter().filter(|b| b.0 > 1).collect();
    let late_ms: Vec<f64> = out.late_us.iter().map(|&u| u as f64 / 1e3).collect();
    m.set("server.wait_ms.p50", "ms", percentile(&out.wait_ms, 0.5).0);
    m.set("server.wait_ms.p99", "ms", percentile(&out.wait_ms, 0.99).0);
    m.set(
        "server.batch_size.mean",
        "count",
        mean(&out.batches.iter().map(|b| b.0 as f64).collect::<Vec<_>>()),
    );
    m.set("server.shed_frac", "frac", count(Outcome::Shed) / n);
    m.set("chain.tier0_frac", "frac", count(Outcome::Served) / n);
    m.set("fail_frac", "frac", fail_frac(&out.outcomes));
    m.set("forward.us_per_req.b1", "us", mean(&b1));
    m.set(
        "forward.us_per_req.bN",
        "us",
        bn.iter().map(|b| b.1 as f64).sum::<f64>()
            / bn.iter().map(|b| b.0 as f64).sum::<f64>().max(1.0),
    );
    m.set("arena.miss_per_req", "count", arena_misses as f64 / n);
    m.set("loadgen.late_ms.p99", "ms", percentile(&late_ms, 0.99).0);
    m.set("entitycache.bytes", "bytes", plane_bytes as f64);
    m.set("frozen.thaw_ms", "ms", median(&thaw_ms));
    m.set(
        "frozen.artifact_bytes",
        "bytes",
        std::fs::metadata(&artifact)
            .map(|md| md.len() as f64)
            .unwrap_or(0.0),
    );
    m.info("workers", workers as f64);
    m.info("pool_threads_serve", bootleg_pool::num_threads() as f64);
    m.info("pool_threads_train", nproc as f64);
    m.info("requests_nominal", n);
    m.info("late_ms_p99", percentile(&late_ms, 0.99).0);
    m.info("train_loss_first", losses[0] as f64);
    m.info("train_loss_last", losses[TRAIN_EPOCHS - 1] as f64);

    if a.trace {
        let path = a.out.join(format!("trace-{}.jsonl", w.name));
        spans
            .write(&path)
            .map_err(|e| Check::io("trace.write", e))?;
    }
    let failed = out.outcomes.iter().filter(|o| o.is_failure()).count() as u64;
    Ok((arrivals.len() as u64 + train_sentences as u64, failed))
}
