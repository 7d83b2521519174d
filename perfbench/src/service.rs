//! `service_jobs`: a closed loop of clients against an in-process
//! `pnp-serve` over loopback HTTP.
//!
//! Each client sends `POST /jobs`, long-polls `GET /jobs/{id}?wait=…`,
//! then fetches `GET /jobs/{id}/result`, and only then sends its next
//! job. The job mix is the small committed specs; the seed shuffles their
//! order. The HTTP client is plain `std::net`.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pnp_kernel::{real_fs, watch_termination, SplitMix64, TerminationFlag, VfsHandle};
use pnp_serve::json::{find_num, find_str};
use pnp_serve::supervisor::{ServeConfig, ServeStats, Supervisor};

use crate::expected::{self, Answer};
use crate::probe;
use crate::trace::{self, TimingVfs};
use crate::{median, quantile, ratio, time_each, Ctx, Outcome};

/// The job mix: `(subject in expected.txt, spec source)`.
const MIX: [(&str, &str); 5] = [
    (
        "bridge_buggy",
        include_str!("../../examples/specs/bridge_buggy.pnp"),
    ),
    (
        "newswire",
        include_str!("../../examples/specs/newswire.pnp"),
    ),
    (
        "priority_mail",
        include_str!("../../examples/specs/priority_mail.pnp"),
    ),
    ("wire", include_str!("../../examples/specs/wire.pnp")),
    (
        "wire_lossy",
        include_str!("../../examples/specs/wire_lossy.pnp"),
    ),
];

/// Closed-loop clients, one per CPU of the 2-CPU reference host.
const CLIENTS: usize = 2;
/// Slices of each timed phase. Before each slice, and after the last,
/// the clients are idle while every spec of the mix is verified in
/// process `VERIFY_REPEATS` times (the medians make `verdict_s` and
/// `serve.verify_ms`), and before each slice of an untraced run
/// `PROBES_PER_SLICE` probe services are started and timed (with the
/// service the jobs run on, the median makes `setup_s`). So those samples
/// cover the whole run rather than one moment of it: within a run they
/// agree closely, but the level they agree on drifts from moment to
/// moment on a shared host.
const SLICES: usize = 10;
const VERIFY_REPEATS: usize = 5;
const PROBES_PER_SLICE: usize = 2;
/// The long-poll window of `GET /jobs/{id}?wait=`; a job still running
/// after it counts as timed out.
const WAIT_MS: u64 = 30_000;

/// The job order: consecutive blocks of the five specs, each block
/// shuffled by SplitMix64 from the workload seed.
fn job_order(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut order = Vec::with_capacity(len + MIX.len());
    while order.len() < len {
        let mut block: Vec<usize> = (0..MIX.len()).collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_index(i + 1));
        }
        order.extend(block);
    }
    order
}

/// One HTTP/1.1 exchange on a fresh connection; returns the status code
/// and the body. The service closes the connection after each response.
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(WAIT_MS + 30_000)))?;
    send_request(&mut stream, method, target, body)?;
    read_response(&mut stream)
}

fn send_request(stream: &mut TcpStream, method: &str, target: &str, body: &str) -> io::Result<()> {
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())
}

fn read_response(stream: &mut TcpStream) -> io::Result<(u16, String)> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, format!("bad response {raw:?}"));
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(malformed)?;
    let (_, body) = raw.split_once("\r\n\r\n").ok_or_else(malformed)?;
    Ok((status, body.to_string()))
}

/// The verdicts and counts in a `/jobs/{id}/result` body.
fn answers_in(body: &str) -> Vec<Answer> {
    let Some((_, properties)) = body.split_once("\"properties\":[") else {
        return Vec::new();
    };
    properties
        .split("{\"name\":")
        .skip(1)
        .map(|object| {
            let object = format!("{{\"name\":{object}");
            let verdict = if object.contains("\"inconclusive\":true") {
                "INCONCLUSIVE"
            } else if object.contains("\"holds\":true") {
                "HOLDS"
            } else {
                "VIOLATED"
            };
            let count = |key| find_num(&object, key).unwrap_or(-1) as usize;
            let name = find_str(&object, "name").unwrap_or_default();
            Answer::new(&name, verdict, count("states"), count("steps"))
        })
        .collect()
}

/// A running service: its supervisor, its address, and the thread
/// running `pnp_serve::serve` on it.
struct Service {
    supervisor: Arc<Supervisor>,
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// Starts a service with its state in `dir` and returns it with the time
/// from `Supervisor::start` until it answered its first request. The
/// probe connects and sends before the accept loop starts, so the time
/// does not depend on where the loop's accept polling happens to be.
fn start(dir: &Path, vfs: VfsHandle, term: TerminationFlag) -> io::Result<(Service, f64)> {
    let config = ServeConfig {
        state_dir: dir.to_path_buf(),
        vfs,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let supervisor = Arc::new(Supervisor::start(config)?);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut probe = TcpStream::connect(addr)?;
    send_request(&mut probe, "GET", "/health", "")?;
    let thread = {
        let supervisor = Arc::clone(&supervisor);
        std::thread::spawn(move || pnp_serve::serve(listener, supervisor, term))
    };
    let (status, _) = read_response(&mut probe)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if status != 200 {
        return Err(io::Error::other(format!("/health answered {status}")));
    }
    Ok((
        Service {
            supervisor,
            addr,
            thread,
        },
        setup_s,
    ))
}

/// Stops every service: raises the process's termination flag, on which
/// each accept loop drains its supervisor and returns, and joins them.
fn stop(services: Vec<Service>) -> Result<(), String> {
    extern "C" {
        fn raise(signum: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `raise` only delivers SIGTERM to this thread. Every service
    // was started with the flag of `watch_termination`, which installed
    // the handler first; the handler does two atomic stores.
    if unsafe { raise(SIGTERM) } != 0 {
        return Err("raise(SIGTERM) failed".into());
    }
    for service in services {
        match service.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(error)) => return Err(format!("accept loop failed: {error}")),
            Err(_) => return Err("accept loop panicked".into()),
        }
    }
    Ok(())
}

/// One job's client-side spans, in milliseconds.
struct Job {
    spec: usize,
    latency_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    result_ms: f64,
}

/// Runs one job: submit, wait, fetch, check.
fn job(
    addr: SocketAddr,
    spec: usize,
    answers: &[Vec<Answer>],
    traced: bool,
) -> Result<Job, String> {
    let (subject, source) = MIX[spec];
    let fail = |step: &str, detail: String| format!("{subject}: {step}: {detail}");
    let t0 = Instant::now();

    let span = traced.then(|| trace::enter("serve.submit"));
    let (status, body) =
        exchange(addr, "POST", "/jobs", source).map_err(|e| fail("submit", e.to_string()))?;
    drop(span);
    if status != 202 {
        return Err(fail("submit", format!("{status} {body}")));
    }
    let id = find_str(&body, "id").ok_or_else(|| fail("submit", body.clone()))?;
    let t1 = Instant::now();

    let span = traced.then(|| trace::enter("serve.wait"));
    let target = format!("/jobs/{id}?wait={WAIT_MS}");
    let (status, body) =
        exchange(addr, "GET", &target, "").map_err(|e| fail("wait", e.to_string()))?;
    drop(span);
    if status != 200 || find_str(&body, "phase").as_deref() != Some("done") {
        return Err(fail("wait", format!("{status} {body}")));
    }
    let t2 = Instant::now();

    let span = traced.then(|| trace::enter("serve.result"));
    let target = format!("/jobs/{id}/result");
    let (status, body) =
        exchange(addr, "GET", &target, "").map_err(|e| fail("result", e.to_string()))?;
    drop(span);
    let t3 = Instant::now();
    if status != 200 {
        return Err(fail("result", format!("{status} {body}")));
    }
    expected::check(subject, &answers[spec], &answers_in(&body))?;
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Job {
        spec,
        latency_ms: ms(t0, t3),
        submit_ms: ms(t0, t1),
        wait_ms: ms(t1, t2),
        result_ms: ms(t2, t3),
    })
}

/// The jobs of one timed phase and what the process spent on them.
struct Phase {
    jobs: Vec<Job>,
    wall_s: f64,
    cpu_s: f64,
    stats_before: ServeStats,
    stats_after: ServeStats,
    start_ns: u64,
    end_ns: u64,
}

impl Phase {
    /// Adds a later slice of the same phase.
    fn extend(&mut self, later: Phase) {
        self.jobs.extend(later.jobs);
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
        self.stats_after = later.stats_after;
        self.end_ns = later.end_ns;
    }
}

/// Runs the closed loop against `service` for `seconds`: every client
/// takes the next job of `order` and waits for its result before the
/// next. Failed jobs are recorded in `out`.
fn phase(
    service: &Service,
    order: &[usize],
    next: &AtomicUsize,
    seconds: f64,
    traced: bool,
    answers: &[Vec<Answer>],
    out: &mut Outcome,
) -> Phase {
    let stats_before = service.supervisor.stats();
    let results = Mutex::new(Vec::new());
    let start_ns = trace::now_ns();
    let cpu0 = probe::cpu_seconds();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while started.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let root = traced.then(|| trace::enter_op("job", i as u64 + 1));
                    let result = job(service.addr, order[i % order.len()], answers, traced);
                    drop(root);
                    let failed = result.is_err();
                    results
                        .lock()
                        .expect("no client panics holding the results")
                        .push(result);
                    if failed {
                        break;
                    }
                }
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let mut jobs = Vec::new();
    for result in results
        .into_inner()
        .expect("no client panics holding the results")
    {
        match result {
            Ok(job) => {
                out.record(Ok(()));
                jobs.push(job);
            }
            Err(error) => out.record(Err(error)),
        }
    }
    Phase {
        jobs,
        wall_s,
        cpu_s,
        stats_before,
        stats_after: service.supervisor.stats(),
        start_ns,
        end_ns: trace::now_ns(),
    }
}

/// Verifies each spec of the mix `repeats` times in process, checks the
/// answers, and appends each run's time to that spec's samples.
fn verify_mix(
    specs: &[pnp_lang::ArchSpec],
    answers: &[Vec<Answer>],
    repeats: usize,
    verify_s: &mut [Vec<f64>],
    out: &mut Outcome,
) {
    for (i, spec) in specs.iter().enumerate() {
        verify_s[i].extend(time_each(repeats, || {
            let observed: Vec<Answer> = spec
                .verify_all()
                .map(|v| v.iter().map(Answer::of_result).collect())
                .unwrap_or_default();
            out.record(expected::check(MIX[i].0, &answers[i], &observed));
        }));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let answers: Vec<Vec<Answer>> = MIX
        .iter()
        .map(|(subject, _)| expected::of(subject))
        .collect();
    let specs = MIX
        .iter()
        .map(|(subject, source)| pnp_lang::compile(source).map_err(|e| format!("{subject}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let lang = ctx
        .traced
        .then(|| crate::search::lang_layer(&MIX.map(|(_, source)| source)));

    // Every timed phase runs with no other live service in the process:
    // a service is drained (its workers and watchdog stopped) as soon as
    // its phase or its start-up probe is over. Only the idle accept loops,
    // each a 25 ms poll, remain until `stop`. An untraced run has one
    // phase; a traced run has two, the first untraced on a plain service
    // and the second traced on a service whose storage calls are timed.
    let term = watch_termination();
    let order = job_order(ctx.seed, 1 << 14);
    let next = AtomicUsize::new(0);
    let mut services: Vec<Service> = Vec::new();
    let mut setup = Vec::new();
    let mut verify_s = vec![Vec::new(); MIX.len()];
    let mut phases: Vec<Phase> = Vec::new();
    let traced_phases: &[bool] = if ctx.traced { &[false, true] } else { &[false] };
    for (k, &traced) in traced_phases.iter().enumerate() {
        let vfs = if traced {
            TimingVfs::wrap(real_fs())
        } else {
            real_fs()
        };
        let dir = ctx.work_dir.join(format!("serve-{k}"));
        let (service, setup_s) = start(&dir, vfs, term).map_err(|e| e.to_string())?;
        setup.push(setup_s);
        let seconds = ctx.seconds / (traced_phases.len() * SLICES) as f64;
        let mut whole: Option<Phase> = None;
        for i in 0..SLICES {
            let probes = if ctx.traced { 0 } else { PROBES_PER_SLICE };
            for p in 0..probes {
                let dir = ctx.work_dir.join(format!("probe-{i}-{p}"));
                let (probe, setup_s) = start(&dir, real_fs(), term).map_err(|e| e.to_string())?;
                probe.supervisor.drain();
                services.push(probe);
                setup.push(setup_s);
            }
            verify_mix(&specs, &answers, VERIFY_REPEATS, &mut verify_s, &mut out);
            let slice = phase(&service, &order, &next, seconds, traced, &answers, &mut out);
            match whole.as_mut() {
                Some(whole) => whole.extend(slice),
                None => whole = Some(slice),
            }
            if out.failed > 0 {
                break;
            }
        }
        phases.extend(whole);
        service.supervisor.drain();
        services.push(service);
        if out.failed > 0 {
            break;
        }
    }
    if out.failed == 0 {
        verify_mix(&specs, &answers, VERIFY_REPEATS, &mut verify_s, &mut out);
    }
    stop(services)?;
    if out.failed > 0 {
        return Ok(out);
    }
    let verify_s: Vec<f64> = verify_s.iter().map(|times| median(times)).collect();

    let latencies = |p: &Phase| p.jobs.iter().map(|j| j.latency_ms).collect::<Vec<_>>();
    if !ctx.traced {
        let p = &phases[0];
        let verdict: f64 = verify_s.iter().sum();
        let mix_states: usize = answers.iter().flatten().map(|a| a.states).sum();
        out.set("setup_s", median(&setup));
        out.set("verdict_s", verdict);
        out.set("states_per_s", ratio(mix_states as f64, verdict));
        out.set(
            "peak_rss_mib",
            probe::peak_rss_bytes() as f64 / (1 << 20) as f64,
        );
        out.set("cpu_s", ratio(p.cpu_s, p.jobs.len() as f64));
        out.set("job_p50_ms", median(&latencies(p)));
        out.set("job_p90_ms", quantile(&latencies(p), 0.9));
        out.set("jobs_per_s", ratio(p.jobs.len() as f64, p.wall_s));
        out.set("ok_ratio", out.ok_ratio());
        return Ok(out);
    }

    let (plain, traced) = (&phases[0], &phases[1]);
    let (parse_s, compile_s) = lang.expect("traced runs measure the lang layer");
    out.set("lang.parse_s", parse_s);
    out.set("lang.compile_s", compile_s);
    out.set(
        "trace.overhead",
        ratio(median(&latencies(traced)), median(&latencies(plain))) - 1.0,
    );
    let span_ms = |f: fn(&Job) -> f64| median(&traced.jobs.iter().map(f).collect::<Vec<_>>());
    out.set("serve.submit_ms", span_ms(|j| j.submit_ms));
    out.set("serve.wait_ms", span_ms(|j| j.wait_ms));
    out.set("serve.result_ms", span_ms(|j| j.result_ms));
    let verify_ms: Vec<f64> = traced.jobs.iter().map(|j| verify_s[j.spec] * 1e3).collect();
    out.set(
        "serve.verify_ms",
        ratio(verify_ms.iter().sum(), verify_ms.len() as f64),
    );
    let (before, after) = (&traced.stats_before, &traced.stats_after);
    out.set("serve.retries", (after.retries - before.retries) as f64);
    out.set("serve.shed", (after.shed - before.shed) as f64);
    out.set(
        "serve.panics_caught",
        (after.panics_caught - before.panics_caught) as f64,
    );

    // Storage calls of the traced service, per job of the traced phase.
    let spans = trace::take();
    let in_phase: Vec<trace::Span> = spans
        .iter()
        .filter(|s| {
            s.name.starts_with("vfs.") && s.start_ns >= traced.start_ns && s.end_ns <= traced.end_ns
        })
        .copied()
        .collect();
    crate::search::storage_layers(
        &mut out,
        &trace::totals(&in_phase),
        traced.jobs.len() as f64,
    );
    crate::write_trace(ctx, &spans);
    Ok(out)
}
