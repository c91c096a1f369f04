//! Open-loop serving and training benchmark for the bootleg workspace.
//!
//! ```text
//! perfbench gen --seed N --dir D
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//! ```

mod gen;
mod inputs;
mod loadgen;
mod probes;
mod serve;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

/// A failed correctness check, named so the run says which one failed.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub detail: String,
}

impl Check {
    pub fn fail(name: &'static str, detail: impl Into<String>) -> Self {
        Self {
            name,
            detail: detail.into(),
        }
    }

    pub fn io(name: &'static str, e: std::io::Error) -> Self {
        Self::fail(name, e.to_string())
    }
}

/// Metrics a run reports without tracing (`end_to_end` in BENCHMARK.json).
const END_TO_END: &[&str] = &["setup_s", "p50_ms", "max_qps_at_slo", "peak_rss_mb"];

/// Metrics a traced run reports (`per_layer` in BENCHMARK.json, less the
/// steal share, which the runner measures from outside the process). The
/// first three are end-to-end figures whose run-to-run spread on a shared
/// host exceeds any bound worth gating on; they are recorded, not gated.
const PER_LAYER: &[&str] = &[
    "p99_ms",
    "tail_p99_ms",
    "train_sents_per_s",
    "server.wait_ms.p50",
    "server.wait_ms.p99",
    "server.batch_size.mean",
    "server.shed_frac",
    "chain.tier0_frac",
    "fail_frac",
    "telemetry.record_ns",
    "forward.us_per_req.b1",
    "forward.us_per_req.bN",
    "forward.candgen_ns.b1",
    "forward.embed_ns.b1",
    "forward.attention_ns.b1",
    "forward.score_ns.b1",
    "forward.candgen_ns.b8",
    "forward.embed_ns.b8",
    "forward.attention_ns.b8",
    "forward.score_ns.b8",
    "entitycache.bytes",
    "frozen.thaw_ms",
    "frozen.artifact_bytes",
    "kernels.matmul_gflops",
    "kernels.a_bt_gflops",
    "arena.miss_per_req",
    "train.forward_ms",
    "train.backward_ms",
    "train.optim_ms",
    "loadgen.late_ms.p99",
    "trace_overhead_frac",
];

/// Named measurements with units, plus run facts for the run record.
#[derive(Default)]
pub struct Metrics {
    vals: Vec<(String, &'static str, f64)>,
    info: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.set_owned(name.to_string(), unit, value);
    }

    pub fn set_owned(&mut self, name: String, unit: &'static str, value: f64) {
        self.vals.retain(|v| v.0 != name);
        self.vals.push((name, unit, value));
    }

    pub fn info(&mut self, name: &'static str, value: f64) {
        self.info.push((name, value));
    }

    /// The result line: the selected metrics, in `names` order.
    fn json(&self, names: &[&str], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|n| self.vals.iter().find(|v| v.0 == *n))
            .map(|(n, u, v)| format!(r#""{n}":{{"value":{},"unit":"{u}"}}"#, num(*v)))
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(n, v)| format!(r#""{n}":{}"#, num(*v)))
            .collect();
        format!(
            r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}},"info":{{{}}}}}"#,
            metrics.join(","),
            info.join(",")
        )
    }
}

/// A JSON number with every digit; a latency percentile that landed on a
/// failed request (infinite) reads as 1e9 ms.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e9".to_string()
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let dir = PathBuf::from(arg(&args, "--dir").unwrap_or(".bench_work"));
    let result = match args.get(1).map(String::as_str) {
        Some("gen") => gen::run(seed, &dir),
        Some("run") => run(&args, seed, &dir),
        _ => {
            eprintln!("usage: perfbench gen|run [flags]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(c) => {
            eprintln!("check failed: {}: {}", c.name, c.detail);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String], seed: u64, dir: &std::path::Path) -> Result<(), Check> {
    // One kernel-pool thread while serving; training installs its own pool.
    std::env::set_var("BOOTLEG_THREADS", "1");
    let trace = arg(args, "--trace") == Some("1");
    let out = PathBuf::from(arg(args, "--out").unwrap_or(".bench_runs"));
    std::fs::create_dir_all(&out).map_err(|e| Check::io("out_dir", e))?;
    let a = serve::Args {
        workload: arg(args, "--workload").unwrap_or(""),
        seed,
        seconds: arg(args, "--seconds")
            .and_then(|s| s.parse().ok())
            .unwrap_or(10.0),
        trace,
        dir,
        out: &out,
    };
    let mut m = Metrics::default();
    let (attempted, failed) = serve::run(&a, &mut m)?;
    let names = if trace { PER_LAYER } else { END_TO_END };
    if let Some(missing) = names.iter().find(|n| !m.vals.iter().any(|v| v.0 == **n)) {
        return Err(Check::fail("metric_reported", missing.to_string()));
    }
    println!("{}", m.json(names, true, attempted, failed));
    Ok(())
}
