//! The verifier's benchmark: one workload per run, every metric by name
//! and unit, every verdict and count checked against `expected.txt`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bridge_safety --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics, writes its spans to `perfbench/out/`, and measures its own
//! overhead. The last line of standard output is the result as one JSON
//! object. See `README.md` for the workloads and metrics.

mod expected;
mod probe;
mod search;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics, `(name, unit)`, reported by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics, `(name, unit)`, reported by every traced run.
/// A layer the workload does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_s", "s"),
    ("lang.compile_s", "s"),
    ("ltl.translate_s", "s"),
    ("ltl.buchi_states", "count"),
    ("explore.search_s", "s"),
    ("explore.states", "count"),
    ("explore.steps", "count"),
    ("explore.max_depth", "count"),
    ("explore.peak_frontier", "count"),
    ("explore.new_per_step", "ratio"),
    ("explore.rss_bytes_per_state", "B"),
    ("explore.accounted_to_rss", "ratio"),
    ("parallel.search_s", "s"),
    ("parallel.cpu_per_wall", "ratio"),
    ("parallel.states", "count"),
    ("parallel.steps", "count"),
    ("parallel.rss_bytes_per_state", "B"),
    ("liveness.search_s", "s"),
    ("liveness.product_states", "count"),
    ("liveness.product_steps", "count"),
    ("liveness.rss_bytes_per_state", "B"),
    ("extmem.spilled_states", "count"),
    ("extmem.spill_bytes", "B"),
    ("extmem.merge_passes", "count"),
    ("extmem.cpu_s", "s"),
    ("vfs.read_s", "s"),
    ("vfs.write_s", "s"),
    ("vfs.sync_s", "s"),
    ("vfs.meta_s", "s"),
    ("vfs.read_bytes", "B"),
    ("vfs.write_bytes", "B"),
    ("vfs.ops", "count"),
    ("vfs.syncs", "count"),
    ("vfs.read_amplification", "ratio"),
    ("durable.stores", "count"),
    ("durable.store_s", "s"),
    ("durable.store_bytes", "B"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.verify_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.panics_caught", "count"),
    ("trace.overhead", "ratio"),
];

const WORKLOADS: &[&str] = &[
    "bridge_safety",
    "bridge_safety_t2",
    "bridge_liveness",
    "bridge_spill",
    "service_jobs",
];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch space for spill files, checkpoints and service state,
    /// removed when the run ends.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Whether the timed loop should start another operation: until the
    /// traced run has one untraced and one traced operation to compare,
    /// then while `--seconds` have not yet passed.
    pub fn another_op(&self, started: Instant, done: usize) -> bool {
        let minimum = if self.traced { 2 } else { 1 };
        done < minimum || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a run measured and how many of its operations failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one operation, failed when `result` is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.failed += 1;
            self.errors.push(error);
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `f` `n` times and returns each run's wall time in seconds.
pub fn time_each<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 20.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let work_dir = out_dir().join(format!("work-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        traced,
        work_dir,
    })
}

/// Where traced runs write their spans, inside the benchmark's directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {error}",
            ctx.work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let outcome = match ctx.workload.as_str() {
        "bridge_safety" => search::safety(&ctx, search::Mode::Memory { threads: 1 }),
        "bridge_safety_t2" => search::safety(&ctx, search::Mode::Memory { threads: 2 }),
        "bridge_spill" => search::safety(&ctx, search::Mode::Spill),
        "bridge_liveness" => search::liveness(&ctx),
        "service_jobs" => service::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {}: {error}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    report(&ctx, &outcome)
}

/// Prints the metric table and the result line, and turns the outcome
/// into the exit code.
fn report(ctx: &Ctx, outcome: &Outcome) -> ExitCode {
    let table = if ctx.traced { PER_LAYER } else { END_TO_END };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        // A layer the workload never calls did no work: 0, not missing.
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        assert!(
            ctx.traced || outcome.failed > 0 || outcome.metrics.contains_key(name),
            "end-to-end metric {name} was not measured"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<30} {value:>18.6} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "# fail_ratio {} ({} of {} operations failed)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for error in &outcome.errors {
        eprintln!("perfbench: FAILED {error}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the traced run's self-time table and writes its spans to
/// `perfbench/out/spans-<workload>-seed<seed>.jsonl`.
pub fn write_trace(ctx: &Ctx, spans: &[trace::Span]) {
    println!("# span                           count      total_s       self_s");
    for (name, t) in trace::totals(spans) {
        println!(
            "# {name:<28} {:>7} {:>12.6} {:>12.6}",
            t.count, t.seconds, t.self_seconds
        );
    }
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    match trace::write_spans(&path, spans) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(error) => eprintln!("perfbench: cannot write {}: {error}", path.display()),
    }
}
