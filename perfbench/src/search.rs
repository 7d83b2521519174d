//! The four bridge workloads: the in-memory safety search on one and on
//! two threads, the same search forced out of core, and the liveness
//! search over the Büchi product.
//!
//! One operation is one job as a `pnp-check` user runs it: the spec text
//! (or, for liveness, the bridge builder) to every verdict. The traced
//! run alternates untraced and traced operations, so one process gives
//! both sides of the tracing overhead.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pnp_bridge::{exactly_n_bridge, safety_invariant, BridgeConfig};
use pnp_core::System;
use pnp_kernel::{real_fs, Checker, Fairness, GenSink, Proposition, SearchConfig, SnapshotSink};
use pnp_lang::{PropertyResult, SinkFactory, VerifyOptions};

use crate::expected::{self, Answer};
use crate::probe;
use crate::trace::{self, TimingSink, TimingVfs, Totals};
use crate::{median, quantile, ratio, time_each, Ctx, Outcome};

const BRIDGE_FIXED: &str = include_str!("../../examples/specs/bridge_fixed.pnp");

/// How many times set-up is timed before each operation; the median of
/// all of them is `setup_s`. Spreading the samples over the run keeps one
/// moment's load on the host from deciding it.
const SETUP_BATCH: usize = 21;
/// How many times the traced run times each layer of set-up.
const LAYER_REPEATS: usize = 101;
/// `bridge_spill`'s memory budget: below the search's in-memory
/// footprint, so the visited set and frontier move to disk mid-run.
const SPILL_AT_BYTES: usize = 32 << 20;
/// `bridge_spill` writes a checkpoint generation every this many states.
const CHECKPOINT_EVERY: usize = 8192;

/// Which safety search runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// In memory, exact visited set, on this many threads.
    Memory { threads: usize },
    /// One thread, spilling past [`SPILL_AT_BYTES`], checkpointing every
    /// [`CHECKPOINT_EVERY`] states.
    Spill,
}

impl Mode {
    fn options(self, work: &Path, traced: bool) -> VerifyOptions {
        let mut options = VerifyOptions::default();
        match self {
            Mode::Memory { threads } => options.config.threads = threads,
            Mode::Spill => {
                options.config.spill_at_bytes = Some(SPILL_AT_BYTES);
                options.checkpoint = Some((work.join("ckpt").join("bridge"), CHECKPOINT_EVERY));
                options.spill_dir = Some(work.join("spill"));
                if traced {
                    let vfs = TimingVfs::wrap(real_fs());
                    options.vfs = Some(Arc::clone(&vfs));
                    let sink: SinkFactory = Arc::new(move |path: &Path| {
                        Box::new(TimingSink::wrap(GenSink::new(Arc::clone(&vfs), path)))
                            as Box<dyn SnapshotSink>
                    });
                    options.checkpoint_sink = Some(sink);
                }
            }
        }
        options
    }

    fn search_span(self) -> &'static str {
        match self {
            Mode::Memory { threads } if threads > 1 => "parallel.search",
            _ => "explore.search",
        }
    }
}

/// One timed operation.
struct Op {
    traced: bool,
    job_s: f64,
    verdict_s: f64,
    cpu_s: f64,
    /// `VmHWM` after the search minus `VmRSS` before it: the RSS the
    /// search grew by, for the first operation of the process (later
    /// ones reuse heap the allocator kept).
    rss_growth: f64,
    /// `VmHWM` of the process when the operation ended.
    peak_rss: u64,
    states: usize,
    steps: usize,
}

/// What one operation's job returns: its answers, and its search time
/// and RSS growth as [`search`] measured them.
type Job = Result<(Vec<Answer>, f64, f64), String>;

/// Runs and times the search of one operation, under `span` when traced.
fn search<T>(traced: bool, span: &'static str, run: impl FnOnce() -> T) -> (T, f64, f64) {
    let rss0 = probe::rss_bytes();
    let span = traced.then(|| trace::enter(span));
    let t = Instant::now();
    let value = run();
    let seconds = t.elapsed().as_secs_f64();
    drop(span);
    let growth = probe::peak_rss_bytes().saturating_sub(rss0) as f64;
    (value, seconds, growth)
}

/// The timed loop shared by the bridge workloads. Before each operation
/// it times `set_up` [`SETUP_BATCH`] times; `job(traced)` runs the
/// operation, whose answers are checked against `subject`'s. A traced
/// run alternates traced and untraced operations, starting traced.
/// Returns the set-up times and the operations.
fn timed_loop<S>(
    ctx: &Ctx,
    out: &mut Outcome,
    subject: &str,
    mut set_up: impl FnMut() -> S,
    mut job: impl FnMut(bool) -> Job,
) -> (Vec<f64>, Vec<Op>) {
    let answers = expected::of(subject);
    let (mut setup, mut ops) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while ctx.another_op(started, ops.len()) && out.failed == 0 {
        setup.extend(time_each(SETUP_BATCH, &mut set_up));
        let traced = ctx.traced && ops.len() % 2 == 0;
        let root = traced.then(|| trace::enter_op("op", ops.len() as u64 + 1));
        let cpu0 = probe::cpu_seconds();
        let t0 = Instant::now();
        let result = job(traced);
        let job_s = t0.elapsed().as_secs_f64();
        let cpu_s = probe::cpu_seconds() - cpu0;
        let peak_rss = probe::peak_rss_bytes();
        drop(root);
        let (observed, verdict_s, rss_growth) = match result {
            Ok(done) => done,
            Err(error) => {
                out.record(Err(format!("{subject}: {error}")));
                break;
            }
        };
        out.record(expected::check(subject, &answers, &observed));
        ops.push(Op {
            traced,
            job_s,
            verdict_s,
            cpu_s,
            rss_growth,
            peak_rss,
            states: observed.iter().map(|a| a.states).sum(),
            steps: observed.iter().map(|a| a.steps).sum(),
        });
    }
    (setup, ops)
}

/// The end-to-end metrics of an untraced run, the same way for every
/// bridge workload.
fn end_to_end(out: &mut Outcome, setup: &[f64], ops: &[Op]) {
    let each = |f: fn(&Op) -> f64| ops.iter().map(f).collect::<Vec<_>>();
    let verdicts = each(|op| op.verdict_s);
    let jobs_ms = each(|op| op.job_s * 1e3);
    let shown: Vec<String> = verdicts.iter().map(|v| format!("{v:.3}")).collect();
    println!("# {} operations, verdict_s: {}", ops.len(), shown.join(" "));
    let verdict = median(&verdicts);
    out.set("setup_s", median(setup));
    out.set("verdict_s", verdict);
    out.set("states_per_s", ratio(ops[0].states as f64, verdict));
    // The peak of a process that verified the spec once, as `pnp-check`
    // does; later operations only add the allocator's fragmentation.
    out.set("peak_rss_mib", ops[0].peak_rss as f64 / (1 << 20) as f64);
    out.set("cpu_s", median(&each(|op| op.cpu_s)));
    out.set("job_p50_ms", median(&jobs_ms));
    out.set("job_p90_ms", quantile(&jobs_ms, 0.9));
    out.set(
        "jobs_per_s",
        ratio(ops.len() as f64, jobs_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("ok_ratio", out.ok_ratio());
}

/// `lang.parse_s` and `lang.compile_s`: the medians over repeated parses
/// and compiles, each under its own span.
pub fn lang_layer(sources: &[&str]) -> (f64, f64) {
    let (mut parse, mut compile) = (0.0, 0.0);
    for source in sources {
        let (mut p, mut c) = (Vec::new(), Vec::new());
        for _ in 0..LAYER_REPEATS {
            let span = trace::enter("lang.parse");
            let ast = pnp_lang::parse_system(source).expect("committed spec parses");
            p.push(span.finish());
            let span = trace::enter("lang.compile");
            std::hint::black_box(pnp_lang::compile_ast(&ast).expect("committed spec compiles"));
            c.push(span.finish());
        }
        parse += median(&p);
        compile += median(&c);
    }
    let n = sources.len() as f64;
    (parse / n, compile / n)
}

/// The overhead of tracing: traced over untraced median search time.
/// The first operation runs on a cold heap, so it is left out of the
/// traced side when a later traced operation exists.
fn overhead(ops: &[Op]) -> f64 {
    let warm = if ops.len() > 2 { &ops[1..] } else { ops };
    let side = |traced: bool| {
        median(
            &warm
                .iter()
                .filter(|op| op.traced == traced)
                .map(|op| op.verdict_s)
                .collect::<Vec<_>>(),
        )
    };
    ratio(side(true), side(false)) - 1.0
}

/// Sums of the storage-layer spans per traced operation.
pub fn storage_layers(
    out: &mut Outcome,
    totals: &std::collections::BTreeMap<&str, Totals>,
    ops: f64,
) {
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (read, write, sync, meta) = (
        get("vfs.read"),
        get("vfs.write"),
        get("vfs.sync"),
        get("vfs.meta"),
    );
    out.set("vfs.read_s", read.seconds / ops);
    out.set("vfs.write_s", write.seconds / ops);
    out.set("vfs.sync_s", sync.seconds / ops);
    out.set("vfs.meta_s", meta.seconds / ops);
    out.set("vfs.read_bytes", read.bytes as f64 / ops);
    out.set("vfs.write_bytes", write.bytes as f64 / ops);
    out.set(
        "vfs.ops",
        (read.count + write.count + sync.count + meta.count) as f64 / ops,
    );
    out.set("vfs.syncs", sync.count as f64 / ops);
    out.set(
        "vfs.read_amplification",
        ratio(read.bytes as f64, write.bytes as f64),
    );
    let store = get("durable.store");
    out.set("durable.stores", store.count as f64 / ops);
    out.set("durable.store_s", store.seconds / ops);
    out.set("durable.store_bytes", store.bytes as f64 / ops);
}

/// `bridge_safety`, `bridge_safety_t2` and `bridge_spill`.
pub fn safety(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lang = ctx.traced.then(|| lang_layer(&[BRIDGE_FIXED]));
    let mut last: Option<PropertyResult> = None;
    let compile = || pnp_lang::compile(BRIDGE_FIXED);
    let (setup, ops) = timed_loop(ctx, &mut out, "bridge_fixed", compile, |traced| {
        let options = mode.options(&ctx.work_dir, traced);
        if mode == Mode::Spill {
            std::fs::create_dir_all(ctx.work_dir.join("ckpt")).map_err(|e| e.to_string())?;
        }
        let spec = pnp_lang::compile(BRIDGE_FIXED).map_err(|e| e.to_string())?;
        let (verdicts, seconds, growth) = search(traced, mode.search_span(), || {
            spec.verify_all_with_options(&options)
        });
        for dir in ["ckpt", "spill"] {
            let _ = std::fs::remove_dir_all(ctx.work_dir.join(dir));
        }
        let verdicts = verdicts.map_err(|e| e.to_string())?;
        let observed = verdicts.iter().map(Answer::of_result).collect();
        last = verdicts.into_iter().next();
        Ok((observed, seconds, growth))
    });
    if ops.is_empty() {
        return Ok(out);
    }
    if !ctx.traced {
        end_to_end(&mut out, &setup, &ops);
        return Ok(out);
    }

    let (parse_s, compile_s) = lang.expect("traced runs measure the lang layer");
    out.set("lang.parse_s", parse_s);
    out.set("lang.compile_s", compile_s);
    out.set("trace.overhead", overhead(&ops));
    let traced_ops: Vec<&Op> = ops.iter().filter(|op| op.traced).collect();
    let search_s = median(&traced_ops.iter().map(|op| op.verdict_s).collect::<Vec<_>>());
    let growth = ops[0].rss_growth;
    let (states, steps) = (ops[0].states as f64, ops[0].steps as f64);
    let spans = trace::take();
    if let Mode::Memory { threads: 2.. } = mode {
        let cpu_per_wall = median(
            &traced_ops
                .iter()
                .map(|op| ratio(op.cpu_s, op.job_s))
                .collect::<Vec<_>>(),
        );
        out.set("parallel.search_s", search_s);
        out.set("parallel.cpu_per_wall", cpu_per_wall);
        out.set("parallel.states", states);
        out.set("parallel.steps", steps);
        out.set("parallel.rss_bytes_per_state", ratio(growth, states));
    } else {
        let result = last.expect("a completed operation has a result");
        out.set("explore.search_s", search_s);
        out.set("explore.states", states);
        out.set("explore.steps", steps);
        out.set("explore.max_depth", result.max_depth as f64);
        out.set("explore.peak_frontier", result.peak_frontier as f64);
        out.set("explore.new_per_step", ratio(states, steps));
        out.set("explore.rss_bytes_per_state", ratio(growth, states));
        out.set(
            "explore.accounted_to_rss",
            ratio(result.memory_bytes as f64, growth),
        );
        if mode == Mode::Spill {
            let n = traced_ops.len() as f64;
            let totals = trace::totals(&spans);
            let search = totals.get("explore.search").copied().unwrap_or_default();
            out.set("extmem.spilled_states", result.spilled_states as f64);
            out.set("extmem.spill_bytes", result.spill_bytes as f64);
            out.set("extmem.merge_passes", result.merge_passes as f64);
            out.set("extmem.cpu_s", search.self_seconds / n);
            storage_layers(&mut out, &totals, n);
        }
    }
    crate::write_trace(ctx, &spans);
    Ok(out)
}

/// The 1-lap fixed bridge, its `safe` proposition and `[] safe`: the
/// liveness workload's input, built the way the E20 experiment builds it.
fn liveness_model() -> (System, Vec<Proposition>, pnp_ltl::Ltl) {
    let system = exactly_n_bridge(&BridgeConfig::fixed().with_laps(Some(1)))
        .expect("the fixed bridge builds");
    let (_, safe) = safety_invariant(system.program());
    let formula = pnp_ltl::parse("[] safe").expect("the formula parses");
    (system, vec![Proposition::new("safe", safe)], formula)
}

/// Checks `[] safe` on the model under `fairness`, on one thread.
fn check_liveness(
    (system, props, formula): &(System, Vec<Proposition>, pnp_ltl::Ltl),
    fairness: Fairness,
) -> Result<Answer, String> {
    let config = SearchConfig {
        threads: 1,
        ..SearchConfig::default()
    };
    let report = Checker::with_config(system.program(), config)
        .check_ltl_with(formula, props, fairness)
        .map_err(|e| e.to_string())?;
    let verdict = if report.outcome.is_holds() {
        "HOLDS"
    } else {
        "VIOLATED"
    };
    Ok(Answer::new(
        "safe",
        verdict,
        report.stats.unique_states,
        report.stats.steps,
    ))
}

/// `bridge_liveness`.
pub fn liveness(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Cross-check of the product pinned by the golden-count tests.
    let model = liveness_model();
    let golden = check_liveness(&model, Fairness::None).and_then(|answer| {
        let subject = "bridge_1lap_nofair";
        expected::check(subject, &expected::of(subject), &[answer])
    });
    out.record(golden);

    let ltl = ctx.traced.then(|| {
        let times: Vec<f64> = (0..LAYER_REPEATS)
            .map(|_| {
                let span = trace::enter("ltl.translate");
                std::hint::black_box(pnp_ltl::translate(&model.2));
                span.finish()
            })
            .collect();
        (median(&times), pnp_ltl::translate(&model.2).state_count())
    });

    let (setup, ops) = timed_loop(
        ctx,
        &mut out,
        "bridge_1lap_weak",
        liveness_model,
        |traced| {
            let model = liveness_model();
            let (answer, seconds, growth) = search(traced, "liveness.search", || {
                check_liveness(&model, Fairness::Weak)
            });
            Ok((vec![answer?], seconds, growth))
        },
    );
    if ops.is_empty() {
        return Ok(out);
    }
    if !ctx.traced {
        end_to_end(&mut out, &setup, &ops);
        return Ok(out);
    }
    let (translate_s, buchi_states) = ltl.expect("traced runs measure the ltl layer");
    out.set("ltl.translate_s", translate_s);
    out.set("ltl.buchi_states", buchi_states as f64);
    out.set("trace.overhead", overhead(&ops));
    let traced_ops: Vec<f64> = ops
        .iter()
        .filter(|op| op.traced)
        .map(|op| op.verdict_s)
        .collect();
    let states = ops[0].states as f64;
    out.set("liveness.search_s", median(&traced_ops));
    out.set("liveness.product_states", states);
    out.set("liveness.product_steps", ops[0].steps as f64);
    out.set(
        "liveness.rss_bytes_per_state",
        ratio(ops[0].rss_growth, states),
    );
    crate::write_trace(ctx, &trace::take());
    Ok(out)
}
