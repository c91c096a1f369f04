//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions on a fixed sample.

use crate::Metrics;
use bootleg_core::{BootlegModel, Example, ForwardOptions};
use bootleg_corpus::Sentence;
use bootleg_kb::KnowledgeBase;
use bootleg_serve::{telemetry, FallbackChain, RequestCx, ServeResponse};
use std::hint::black_box;
use std::time::Instant;

/// Requests in the fixed forward-phase sample.
const SAMPLE: usize = 64;
const PHASES: [&str; 4] = ["candgen", "embed", "attention", "score"];
const REPS: usize = 5;

fn phase_sum_ns(phase: &str) -> f64 {
    bootleg_obs::metrics::histogram(&format!("forward.{phase}_ns"))
        .snapshot()
        .sum
}

fn run_all(model: &BootlegModel, kb: &KnowledgeBase, sample: &[Example], batch: usize) {
    for chunk in sample.chunks(batch) {
        black_box(
            model
                .run(kb, chunk, ForwardOptions::inference())
                .expect("no deadline"),
        );
    }
}

/// Forward-phase ns per request at batch 1 and 8 (from the program's own
/// `forward.*_ns` histograms), and the tracing overhead: batch-1 time with
/// tracing on over tracing off, interleaved reps, min per arm.
pub fn forward_phases(model: &BootlegModel, kb: &KnowledgeBase, pool: &[Example], m: &mut Metrics) {
    let sample = &pool[..SAMPLE.min(pool.len())];
    for batch in [1usize, 8] {
        let before: Vec<f64> = PHASES.iter().map(|p| phase_sum_ns(p)).collect();
        run_all(model, kb, sample, batch);
        for (p, b) in PHASES.iter().zip(before) {
            let per_req = (phase_sum_ns(p) - b) / sample.len() as f64;
            m.set_owned(format!("forward.{p}_ns.b{batch}"), "ns", per_req);
        }
    }
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        for (traced, best) in [(false, &mut off), (true, &mut on)] {
            bootleg_obs::set_trace_enabled(traced);
            let t = Instant::now();
            run_all(model, kb, sample, 1);
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    m.set("trace_overhead_frac", "frac", on / off - 1.0);
}

/// Mean cost of one `telemetry::record_request` call for an answered
/// batch-1 request.
pub fn record_cost(chain: &FallbackChain<'_>, pool: &[Example], m: &mut Metrics) {
    const CALLS: usize = 20_000;
    let cx = RequestCx::new(1, bootleg_core::Deadline::none());
    let timing = telemetry::Timing::from_stamps(0, 100, 300, 900);
    let t = Instant::now();
    for i in 0..CALLS {
        let ex = &pool[i % pool.len()];
        let outcome = Ok(ServeResponse {
            predictions: vec![0; ex.mentions.len()],
            tier: 0,
            tier_name: "bootleg",
            degraded: false,
        });
        telemetry::record_request(chain, ex, &cx, 1, timing, Vec::new(), &outcome);
    }
    m.set(
        "telemetry.record_ns",
        "ns",
        t.elapsed().as_nanos() as f64 / CALLS as f64,
    );
}

/// Training-step phases outside `train`: per step of 16 sentences, the
/// forward passes, the backward passes, and the Adam update, in ms.
pub fn train_steps(
    model: &mut BootlegModel,
    kb: &KnowledgeBase,
    sentences: &[Sentence],
    m: &mut Metrics,
) {
    const STEPS: usize = 6;
    const BATCH: usize = 16;
    let examples: Vec<Example> = sentences.iter().filter_map(Example::training).collect();
    let mut opt = bootleg_nn::optim::Adam::new(&model.params, 1e-3);
    let (mut fwd, mut bwd, mut optim) = (0.0, 0.0, 0.0);
    let mut seed = 0u64;
    for step in 0..STEPS {
        for ex in examples.iter().cycle().skip(step * BATCH).take(BATCH) {
            seed += 1;
            let t = Instant::now();
            let out = model
                .run(kb, std::slice::from_ref(ex), ForwardOptions::training(seed))
                .expect("no deadline")
                .pop()
                .expect("one output");
            fwd += t.elapsed().as_secs_f64();
            let t = Instant::now();
            if let Some(loss) = &out.loss {
                out.graph.backward(loss, &mut model.params);
            }
            bwd += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        opt.step(&mut model.params);
        model.params.zero_grad();
        optim += t.elapsed().as_secs_f64();
    }
    let per_step = |s: f64| s * 1e3 / STEPS as f64;
    m.set("train.forward_ms", "ms", per_step(fwd));
    m.set("train.backward_ms", "ms", per_step(bwd));
    m.set("train.optim_ms", "ms", per_step(optim));
}

/// A matmul kernel's signature: `(a, b, c, m, k, n)`.
type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Achieved GFLOP/s of the two matmul kernels at serving-config shapes:
/// `A·B` for a ragged batch of 8 requests (64 candidate rows × H = 128),
/// and `A·Bᵀ`, the input gradient of a training example (24 rows).
pub fn kernels(m: &mut Metrics) {
    fn gflops(m: usize, k: usize, n: usize, f: Kernel) -> f64 {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) / 8.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 % 11) as f32 - 5.0) / 8.0)
            .collect();
        let mut c = vec![0.0f32; m * n];
        let iters = 2_000;
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            for _ in 0..iters {
                f(black_box(&a), black_box(&b), &mut c, m, k, n);
            }
            best = best.min(t.elapsed().as_secs_f64() / iters as f64);
        }
        black_box(&c);
        2.0 * (m * k * n) as f64 / best / 1e9
    }
    m.set(
        "kernels.matmul_gflops",
        "GFLOP/s",
        gflops(64, 128, 128, bootleg_tensor::kernels::matmul_acc),
    );
    m.set(
        "kernels.a_bt_gflops",
        "GFLOP/s",
        gflops(24, 128, 128, bootleg_tensor::kernels::matmul_a_bt_acc),
    );
}
