//! The simulated cluster the chaos arenas ([`crate::chaosgen`]) are
//! built from: [`SimWorker`], a worker daemon on a seeded
//! [`pnp_net::SimNet`] with a durable [`SimFs`], plus the coordinator
//! configurations and constructor the arenas share.
//!
//! A real [`crate::cluster::Coordinator`] runs against these workers
//! entirely single-threaded on virtual time: each virtual step ticks
//! the coordinator, then lets every worker pump its pending work. The
//! same seed replays the same run bit for bit, which is what lets a
//! fault schedule check the cluster's two load-bearing promises:
//!
//! 1. **Exactly once**: every submitted job reaches a terminal verdict
//!    recorded exactly once; late results from superseded attempt
//!    epochs are fenced (`409`) and provably discarded.
//! 2. **Byte-identical results**: the adopted completion's
//!    [`crate::chaosgen::results_fingerprint`] equals an uninterrupted
//!    single-node run of the same specification, crashes, partitions,
//!    and migrations notwithstanding.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pnp_kernel::{load_latest_snapshot, SearchConfig, SimFs, Snapshot, Vfs, VfsHandle};
use pnp_lang::{compile, PropertyResult, VerifyOptions};
use pnp_net::{SimNet, Transport, WireRequest, WireResponse};

use crate::chaosgen::results_fingerprint;
use crate::cluster::{ClusterConfig, Coordinator};
use crate::job::Verdict;
use crate::json::Obj;
use crate::membership::DetectorConfig;
use crate::transport::{decode_dispatch, encode_completion, Completion, Dispatch};

/// A second, smaller specification so the matrix mixes job shapes.
pub const SMALL_SPEC: &str = r#"
system {
    global handoff = 0;

    component left {
        var steps = 0;
        state run, idle;
        end idle;
        from run if steps < 5 do steps = steps + 1 goto run;
        from run if steps >= 5 do handoff = handoff + 1 goto idle;
    }
    component right {
        var steps = 0;
        state run, idle;
        end idle;
        from run if steps < 5 do steps = steps + 1 goto run;
        from run if steps >= 5 do handoff = handoff + 1 goto idle;
    }

    property bounded: invariant handoff <= 2;
}
"#;

/// Virtual milliseconds per harness step.
pub(crate) const STEP_MS: u64 = 100;
/// `run_pending` calls a job occupies before its full verification runs
/// — the window in which crashes and partitions catch it "mid-job".
const WORK_TICKS: u32 = 4;
/// One simulated worker: accepts dispatches, "works" on each job for
/// [`WORK_TICKS`] virtual steps (flushing a real checkpoint generation
/// to its durable [`SimFs`] first), then runs the full verification and
/// pushes the completion. A crash wipes its memory but not its
/// filesystem, exactly like a real daemon restart.
pub struct SimWorker {
    /// The worker's SimNet peer name.
    pub name: String,
    net: Arc<SimNet>,
    coordinator: String,
    /// The shared virtual clock, for end-to-end deadline checks.
    clock: Arc<AtomicU64>,
    /// Pumps a job occupies before its full verification runs
    /// (default [`WORK_TICKS`]; the `cluster-hedge` arena slows `w2`).
    work_ticks: AtomicU32,
    /// Durable across crashes.
    fs: Arc<SimFs>,
    state: Arc<Mutex<WorkerState>>,
}

#[derive(Default)]
struct WorkerState {
    registered: bool,
    /// Pump counter; heartbeats go out every [`HEARTBEAT_EVERY`] pumps.
    pumps: u64,
    jobs: HashMap<u64, SimJob>,
    /// Results the coordinator fenced; retained as proof of discard.
    discarded: u64,
}

/// Pumps between heartbeats (500 virtual ms at [`STEP_MS`]).
const HEARTBEAT_EVERY: u64 = 5;

/// What one pump decided to do with one job.
enum Pump {
    /// First pump: flush a checkpoint generation mid-"run".
    Checkpoint,
    /// Work pumps exhausted: run the full verification.
    Finish,
    /// End-to-end deadline passed: stop with partial statistics.
    Expire,
}

struct SimJob {
    epoch: u64,
    dispatch: Dispatch,
    /// Work pumps this job started with (the worker's tick count at
    /// accept time — the first pump flushes a checkpoint).
    total: u32,
    remaining: u32,
    completion: Option<Completion>,
    settled: bool,
}

impl SimWorker {
    /// Creates the worker and registers its request handler on `net`.
    /// `clock` is the harness's shared virtual clock, read for
    /// end-to-end deadline expiry.
    pub fn new(
        net: &Arc<SimNet>,
        name: &str,
        coordinator: &str,
        seed: u64,
        clock: &Arc<AtomicU64>,
    ) -> Arc<SimWorker> {
        let worker = Arc::new(SimWorker {
            name: name.to_string(),
            net: Arc::clone(net),
            coordinator: coordinator.to_string(),
            clock: Arc::clone(clock),
            work_ticks: AtomicU32::new(WORK_TICKS),
            fs: Arc::new(SimFs::new(seed)),
            state: Arc::new(Mutex::new(WorkerState::default())),
        });
        let _ = worker.fs.as_ref().create_dir_all(&PathBuf::from("/state"));
        let handler = {
            let worker = Arc::clone(&worker);
            Arc::new(move |request: &WireRequest| worker.serve(request))
        };
        net.register(name, handler);
        worker
    }

    /// Makes this worker grind: every accepted job takes `ticks` pumps
    /// instead of the default [`WORK_TICKS`]. Already-accepted jobs
    /// keep their pace.
    pub fn set_work_ticks(&self, ticks: u32) {
        self.work_ticks.store(ticks.max(1), Ordering::Relaxed);
    }

    /// Crashes the process: unreachable, memory gone, checkpoints kept.
    pub fn crash(&self) {
        self.net.crash(&self.name);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.clear();
        state.registered = false;
    }

    /// Boots the process back up (it re-registers on its next pump).
    pub fn restart(&self) {
        self.net.restart(&self.name);
    }

    /// The worker's durable simulated disk — the generated-schedule
    /// harness ([`crate::chaosgen`]) aims exact storage injections at it
    /// and reboots it when an injected crash kills the "machine".
    pub(crate) fn sim_fs(&self) -> Arc<SimFs> {
        Arc::clone(&self.fs)
    }

    /// Accepted attempts whose result is not yet settled (adopted or
    /// fenced by the coordinator).
    pub fn unsettled(&self) -> usize {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.values().filter(|j| !j.settled).count()
    }

    /// How many of this worker's results the coordinator fenced.
    pub fn discarded(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .discarded
    }

    fn checkpoint_base(&self, job: u64) -> PathBuf {
        PathBuf::from(format!("/state/job-{job}.pnpsnap"))
    }

    fn serve(&self, request: &WireRequest) -> WireResponse {
        let path = request.path();
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["cluster", "ping"]) => ok_json("ok"),
            ("POST", ["cluster", "execute"]) => self.accept(request),
            ("GET", ["cluster", "snapshot"]) => self.snapshot(request),
            ("GET", ["cluster", "poll"]) => self.poll(request),
            ("POST", ["cluster", "cancel"]) => ok_json("cancelling"),
            _ => WireResponse::new(404, b"{}".to_vec()),
        }
    }

    fn accept(&self, request: &WireRequest) -> WireResponse {
        let dispatch = match decode_dispatch(&request.body) {
            Ok(dispatch) => dispatch,
            Err(reason) => {
                return WireResponse::new(
                    400,
                    Obj::new().str("error", &reason).build().into_bytes(),
                )
            }
        };
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = state.jobs.get(&dispatch.job) {
            if dispatch.epoch < existing.epoch {
                return WireResponse::new(
                    409,
                    Obj::new().str("error", "fenced").build().into_bytes(),
                );
            }
            if dispatch.epoch == existing.epoch {
                // Duplicated delivery: already accepted.
                return ok_json("accepted");
            }
        }
        let job = dispatch.job;
        let epoch = dispatch.epoch;
        let total = self.work_ticks.load(Ordering::Relaxed);
        state.jobs.insert(
            job,
            SimJob {
                epoch,
                dispatch,
                total,
                remaining: total,
                completion: None,
                settled: false,
            },
        );
        ok_json("accepted")
    }

    fn snapshot(&self, request: &WireRequest) -> WireResponse {
        let Some(job) = request.query("job").and_then(|j| j.parse::<u64>().ok()) else {
            return WireResponse::new(400, b"{}".to_vec());
        };
        let vfs: VfsHandle = self.fs.clone();
        match load_latest_snapshot(&vfs, self.checkpoint_base(job)) {
            Ok(Some((_generation, snapshot))) => WireResponse::new(200, snapshot.encode()),
            _ => WireResponse::new(404, b"{}".to_vec()),
        }
    }

    fn poll(&self, request: &WireRequest) -> WireResponse {
        let Some(job) = request.query("job").and_then(|j| j.parse::<u64>().ok()) else {
            return WireResponse::new(400, b"{}".to_vec());
        };
        let epoch = request.query("epoch").and_then(|e| e.parse::<u64>().ok());
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.jobs.get(&job) {
            // An attempt from another epoch is not the attempt the
            // coordinator is asking about: that attempt is gone.
            Some(entry) if epoch.is_some_and(|e| e != entry.epoch) => {
                WireResponse::new(404, b"{}".to_vec())
            }
            Some(entry) => match &entry.completion {
                Some(completion) => WireResponse::new(200, encode_completion(completion)),
                None => WireResponse::new(
                    202,
                    Obj::new().str("status", "running").build().into_bytes(),
                ),
            },
            None => WireResponse::new(404, b"{}".to_vec()),
        }
    }

    /// One pump of the worker's main loop: (re-)register, heartbeat,
    /// advance jobs, push finished results. No-op while crashed.
    pub fn run_pending(&self) {
        if self.net.is_down(&self.name) {
            return;
        }
        let endpoint = self.net.endpoint(&self.name);
        let (registered, beat) = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let beat = state.pumps.is_multiple_of(HEARTBEAT_EVERY);
            state.pumps += 1;
            (state.registered, beat)
        };
        if !registered {
            let target = format!("/cluster/register?name={}&peer={}", self.name, self.name);
            if endpoint
                .request(&self.coordinator, &WireRequest::post(target, Vec::new()))
                .is_ok()
            {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                state.registered = true;
            }
        } else if beat {
            // Heartbeats carry load telemetry, like a real worker
            // daemon's: the coordinator's weighted placement feed.
            let (queue, running) = {
                let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                let open = state
                    .jobs
                    .values()
                    .filter(|j| j.completion.is_none())
                    .count() as u64;
                (open, open.min(1))
            };
            let target = format!(
                "/cluster/heartbeat?name={}&queue={queue}&running={running}&mem=0&spill=0",
                self.name
            );
            if let Ok(response) =
                endpoint.request(&self.coordinator, &WireRequest::post(target, Vec::new()))
            {
                if response.status == 404 {
                    // The coordinator forgot us (restart or declared
                    // dead): re-register next pump.
                    let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                    state.registered = false;
                }
            }
        }

        // Advance at most one job per pump (a two-thread worker daemon
        // is approximated well enough for placement purposes).
        let next: Vec<u64> = {
            let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let mut ids: Vec<u64> = state
                .jobs
                .iter()
                .filter(|(_, j)| j.completion.is_none())
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let now = self.clock.load(Ordering::Relaxed);
        for id in next {
            let work = {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                let Some(job) = state.jobs.get_mut(&id) else {
                    continue;
                };
                // An expired end-to-end deadline preempts the work: a
                // real worker's clamped kernel time budget trips here,
                // yielding an honest Inconclusive with partial stats.
                if job.dispatch.deadline_at_ms.is_some_and(|d| now >= d) {
                    Some((job.dispatch.clone(), Pump::Expire))
                } else if job.remaining == job.total {
                    job.remaining -= 1;
                    Some((job.dispatch.clone(), Pump::Checkpoint))
                } else if job.remaining > 0 {
                    job.remaining -= 1;
                    None
                } else {
                    Some((job.dispatch.clone(), Pump::Finish))
                }
            };
            match work {
                Some((dispatch, Pump::Checkpoint)) => self.flush_checkpoint(&dispatch),
                Some((dispatch, Pump::Finish)) => self.finish(&dispatch),
                Some((dispatch, Pump::Expire)) => self.expire(&dispatch),
                None => {}
            }
        }

        // Push unsettled completions; a 409 is the coordinator fencing
        // a stale result — record the discard and stop retrying.
        let pending: Vec<(u64, Completion)> = {
            let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state
                .jobs
                .iter()
                .filter(|(_, j)| !j.settled)
                .filter_map(|(&id, j)| j.completion.clone().map(|c| (id, c)))
                .collect()
        };
        for (id, completion) in pending {
            let request = WireRequest::post(
                "/cluster/complete".to_string(),
                encode_completion(&completion),
            );
            if let Ok(response) = endpoint.request(&self.coordinator, &request) {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(job) = state.jobs.get_mut(&id) {
                    match response.status {
                        200 => job.settled = true,
                        409 => {
                            job.settled = true;
                            state.discarded += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// The "mid-job" pass: a bounded verification whose budget trip
    /// flushes a genuine checkpoint generation to the durable SimFs —
    /// the snapshot a migration ships or a sticky retry resumes.
    fn flush_checkpoint(&self, dispatch: &Dispatch) {
        let _ = self.bounded_pass(dispatch, Some(self.fs.clone()));
    }

    /// Deadline expiry: what a real worker's clamped time budget does —
    /// a bounded pass, reported as an `Inconclusive` completion that
    /// still carries the partial statistics.
    fn expire(&self, dispatch: &Dispatch) {
        if let Some(results) = self.bounded_pass(dispatch, None) {
            self.complete(dispatch, Verdict::Inconclusive, results);
        }
    }

    /// A single-threaded pass bounded at 200 states, so its budget trips
    /// mid-search deterministically (a state count on virtual time, not
    /// a wall-clock race); with `vfs`, the trip flushes a checkpoint
    /// there.
    fn bounded_pass(
        &self,
        dispatch: &Dispatch,
        vfs: Option<VfsHandle>,
    ) -> Option<Vec<PropertyResult>> {
        let spec = compile(&dispatch.request.source).ok()?;
        let mut config = dispatch.request.config.config;
        config.max_states = 200;
        config.threads = 1;
        let options = VerifyOptions {
            config,
            checkpoint: vfs
                .is_some()
                .then(|| (self.checkpoint_base(dispatch.job), 0)),
            vfs,
            ..VerifyOptions::default()
        };
        spec.verify_all_with_options(&options).ok()
    }

    /// The full verification: resume from the local checkpoint if one
    /// survived, else from the snapshot the coordinator shipped, else
    /// from scratch. Deterministic, so every path converges to the same
    /// fingerprint.
    fn finish(&self, dispatch: &Dispatch) {
        let Ok(spec) = compile(&dispatch.request.source) else {
            return;
        };
        let vfs: VfsHandle = self.fs.clone();
        let resume = load_latest_snapshot(&vfs, self.checkpoint_base(dispatch.job))
            .ok()
            .flatten()
            .map(|(_, snapshot)| snapshot)
            .or_else(|| {
                let payload = dispatch.request.seed_snapshot.as_deref()?;
                Snapshot::decode(payload).ok()
            })
            .filter(|s| s.matches_program(spec.system().program()));
        let mut config = dispatch.request.config.config;
        config.threads = 1;
        let options = VerifyOptions {
            config,
            resume,
            ..VerifyOptions::default()
        };
        let Ok(results) = spec.verify_all_with_options(&options) else {
            return;
        };
        let violated = results.iter().any(|r| !r.holds && !r.inconclusive);
        let verdict = if violated {
            Verdict::Violated
        } else {
            Verdict::Passed
        };
        self.complete(dispatch, verdict, results);
    }

    /// Records the attempt's completion, unless a newer epoch replaced
    /// the attempt meanwhile.
    fn complete(&self, dispatch: &Dispatch, verdict: Verdict, results: Vec<PropertyResult>) {
        let completion = Completion {
            job: dispatch.job,
            epoch: dispatch.epoch,
            worker: self.name.clone(),
            verdict,
            attempts: dispatch.attempts + 1,
            error: None,
            results: Some(results),
        };
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(job) = state.jobs.get_mut(&dispatch.job) {
            if job.epoch == dispatch.epoch && job.completion.is_none() {
                job.completion = Some(completion);
            }
        }
    }
}

fn ok_json(status: &str) -> WireResponse {
    WireResponse::new(202, Obj::new().str("status", status).build().into_bytes())
}

pub(crate) fn cluster_config(vfs: VfsHandle) -> ClusterConfig {
    ClusterConfig {
        detector: DetectorConfig {
            heartbeat_ms: STEP_MS,
            suspect_after_ms: 1000,
            dead_after_ms: 2000,
        },
        max_attempts: 6,
        request_timeout_ms: 1500,
        backoff_base_ms: 200,
        state_dir: PathBuf::from("/coord"),
        vfs,
        ..ClusterConfig::default()
    }
}

/// The `cluster` arena's config: hedging would speculatively rescue a
/// crashed or partitioned worker's jobs *before* the failure detector
/// fires, and that arena exists to isolate the migration machinery —
/// so park the hedge threshold out of reach.
pub(crate) fn migration_cluster_config(vfs: VfsHandle) -> ClusterConfig {
    ClusterConfig {
        hedge_floor_ms: 3_600_000,
        ..cluster_config(vfs)
    }
}

pub(crate) fn make_coordinator(
    net: &Arc<SimNet>,
    config: ClusterConfig,
    now: &Arc<AtomicU64>,
) -> Arc<Coordinator> {
    let transport = Arc::new(net.endpoint("coord"));
    let coordinator = Arc::new(Coordinator::new(config, transport));
    let handler = {
        let coordinator = Arc::clone(&coordinator);
        let now = Arc::clone(now);
        Arc::new(move |request: &WireRequest| {
            coordinator.handle(request, now.load(Ordering::Relaxed))
        })
    };
    net.register("coord", handler);
    coordinator
}

/// The fingerprint of an uninterrupted single-node run of `source`.
pub(crate) fn baseline_fingerprint(source: &str) -> Result<u64, String> {
    let spec = compile(source).map_err(|e| format!("spec does not compile: {e}"))?;
    let options = VerifyOptions {
        config: SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        },
        ..VerifyOptions::default()
    };
    let results = spec
        .verify_all_with_options(&options)
        .map_err(|e| format!("baseline run failed: {e}"))?;
    Ok(results_fingerprint(&results))
}
