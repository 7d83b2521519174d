//! Cluster mode: a coordinator that hash-shards submitted jobs across
//! worker daemons, detects failed workers, migrates their jobs behind a
//! fencing epoch, and records every job's completion exactly once.
//!
//! ## Exactly-once argument
//!
//! A cluster job has a global id (`g-N`) and a monotonically increasing
//! *attempt epoch*. Every dispatch carries the current epoch; every
//! completion upload carries the epoch its dispatch ran under. The
//! coordinator accepts a completion only when (a) the job is not yet
//! terminal and (b) the upload's epoch equals the job's current epoch.
//! Migration bumps the epoch *before* re-dispatching, so a stale worker
//! that finishes after its job moved is fenced with `409` — its result
//! is provably discarded, never double-counted. Verification itself is
//! deterministic, so whichever attempt's completion is adopted carries
//! the same property results byte for byte (the chaos matrix asserts
//! the fingerprint against a single-node run).
//!
//! ## Failure detection and affinity
//!
//! Workers register and heartbeat; the [`Membership`] detector demotes
//! them on silence (suspect → dead), and the coordinator additionally
//! polls a dispatched worker once its request deadline passes — an
//! unreachable worker is declared dead immediately instead of waiting
//! out the heartbeat windows. Retries are *sticky*: a job re-dispatches
//! to the worker already holding its newest checkpoint generation when
//! that worker is alive; otherwise the coordinator fetches the
//! checkpoint from the old worker if it is still reachable and ships it
//! with the dispatch (`seed_snapshot`), falling back to a fresh start.
//!
//! All coordinator methods take an explicit `now_ms`, so the
//! deterministic chaos harness ([`crate::netchaos`]) drives the whole
//! cluster on virtual time over a [`pnp_net::SimNet`].

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use pnp_kernel::{commit_replace, real_fs, SearchConfig, VfsHandle};
use pnp_net::{NetError, Transport, WireRequest, WireResponse};

use crate::job::{resolve_job_config, JobId, JobRequest, Verdict};
use crate::json::{array, Obj};
use crate::membership::{BreakerConfig, DetectorConfig, Membership, WorkerLoad};
use crate::queue::{decode_queue, encode_queue, PersistedJob, QueuePolicy, Reader, Writer};
use crate::supervisor::{property_json, Supervisor};
use crate::transport::{
    decode_completion, decode_dispatch, encode_completion, encode_dispatch, Completion, Dispatch,
};

/// Milliseconds since the Unix epoch — the real-mode clock behind the
/// coordinator's `now_ms` parameters (the sim harness uses virtual
/// time instead).
pub fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Coordinator policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Heartbeat failure-detector windows.
    pub detector: DetectorConfig,
    /// Dispatch attempts per job before it fails as
    /// `transient_exhausted` (default 4).
    pub max_attempts: u32,
    /// How long a dispatched job may sit without completing before the
    /// coordinator polls its worker and, if unreachable, migrates
    /// (default 10 000 ms).
    pub request_timeout_ms: u64,
    /// First re-dispatch backoff; doubles per attempt (default 200 ms).
    pub backoff_base_ms: u64,
    /// Total non-terminal jobs admitted before shedding (default 64).
    pub capacity: usize,
    /// Non-terminal jobs one tenant may hold before its submissions
    /// shed with reason `tenant_quota` (default 16).
    pub tenant_quota: usize,
    /// Concurrent dispatches per worker (default 2 — the worker
    /// daemon's thread count).
    pub max_inflight_per_worker: usize,
    /// Terminal jobs retained for result queries before the oldest are
    /// evicted (default 256). Keeps a long-lived coordinator's job and
    /// idempotency maps bounded; an evicted job's late stale upload
    /// gets `404` instead of `409`, which discards it just the same.
    pub retain_done: usize,
    /// Settled gateway entries a *worker* keeps before the oldest are
    /// evicted (default 256). The worker-side twin of `retain_done`:
    /// bounds a long-lived worker's global-job map while still
    /// answering duplicated dispatches of finished epochs idempotently.
    /// `pnp-serve --retain-done N` sets both.
    pub settled_retain: usize,
    /// Shed `Retry-After` scaling (reuses the queue policy's
    /// pressure-derived hint).
    pub queue: QueuePolicy,
    /// Where `cluster.pnpq` (the drained job set) lives.
    pub state_dir: std::path::PathBuf,
    /// The filesystem durable state goes through (SimFs in the chaos
    /// harness).
    pub vfs: VfsHandle,
    /// Base search configuration submissions resolve against.
    pub default_search: SearchConfig,
    /// Per-worker circuit-breaker tuning (trips on dispatch/poll
    /// failures, not heartbeat silence).
    pub breaker: BreakerConfig,
    /// Floor for the hedge threshold: a dispatched job is never hedged
    /// before this much time on one worker, no matter how fast the
    /// completed-duration percentile says jobs usually finish
    /// (default 500 ms).
    pub hedge_floor_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            detector: DetectorConfig::default(),
            max_attempts: 4,
            request_timeout_ms: 10_000,
            backoff_base_ms: 200,
            capacity: 64,
            tenant_quota: 16,
            max_inflight_per_worker: 2,
            retain_done: 256,
            settled_retain: 256,
            queue: QueuePolicy::default(),
            state_dir: std::path::PathBuf::from(".pnp-serve"),
            vfs: real_fs(),
            default_search: SearchConfig::default(),
            breaker: BreakerConfig::default(),
            hedge_floor_ms: 500,
        }
    }
}

/// Monotonic coordinator counters, surfaced by `/cluster/status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that reached a terminal phase (each counted exactly once).
    pub completed: u64,
    /// Submissions shed.
    pub shed: u64,
    /// Dispatches sent to workers.
    pub dispatches: u64,
    /// Jobs migrated off a dead worker.
    pub migrations: u64,
    /// Stale completion uploads fenced with `409`.
    pub fenced: u64,
    /// Migrations that shipped a checkpoint snapshot with the dispatch.
    pub snapshots_shipped: u64,
    /// Jobs restored from a persisted `cluster.pnpq` at startup.
    pub restored: u64,
    /// Speculative second attempts launched for stalled dispatches.
    pub hedges: u64,
    /// Jobs force-expired as `Inconclusive` when their end-to-end
    /// deadline passed without an adoptable completion.
    pub expired: u64,
    /// Circuit-breaker trips (closed → open, or a failed half-open
    /// probe reopening).
    pub breaker_trips: u64,
}

/// Where a cluster job is.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GlobalPhase {
    /// Waiting for placement (possibly behind a backoff).
    Pending,
    /// Running on a worker under the current epoch.
    Dispatched {
        worker: String,
        at_ms: u64,
    },
    Done(Verdict),
}

/// A speculative second attempt for a stalled dispatch. It runs under
/// its own (higher) epoch; [`Coordinator::adopt_completion`] accepts
/// whichever of the primary and hedge epochs reports first, and the
/// loser is fenced by the job-already-terminal 409.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HedgeAttempt {
    worker: String,
    epoch: u64,
    at_ms: u64,
}

#[derive(Debug)]
struct GlobalJob {
    id: u64,
    tenant: String,
    request: JobRequest,
    /// Fencing epoch; bumped on every migration.
    epoch: u64,
    /// Dispatches so far.
    attempts: u32,
    phase: GlobalPhase,
    /// The worker that ran (or is running) the newest attempt — the
    /// sticky-affinity target and snapshot source.
    last_worker: Option<String>,
    /// Earliest virtual time the next dispatch may happen.
    not_before_ms: u64,
    /// Minimum live workers the submitter required (`workers=N`).
    required_workers: usize,
    /// Adopted completion (for result rendering).
    completion: Option<Completion>,
    /// Stale uploads fenced for this job.
    fenced: u64,
    /// Absolute end-to-end deadline on the coordinator clock
    /// (admission time + the client's `job_deadline_ms`). The envelope
    /// every dispatch hop re-derives its remaining budget from.
    deadline_at_ms: Option<u64>,
    /// When the current primary dispatch was sent. Unlike the phase's
    /// `at_ms` (re-stamped by 202 progress polls to push out the
    /// request deadline), this is fixed for the attempt — it is the
    /// hedge trigger's reference point and the duration-sample start.
    dispatched_at_ms: Option<u64>,
    /// The in-flight hedge, if one was launched for this dispatch.
    hedge: Option<HedgeAttempt>,
}

impl GlobalJob {
    /// The highest epoch any live attempt of this job runs under.
    fn top_epoch(&self) -> u64 {
        match &self.hedge {
            Some(h) => self.epoch.max(h.epoch),
            None => self.epoch,
        }
    }
}

struct CoInner {
    jobs: BTreeMap<u64, GlobalJob>,
    next_id: u64,
    idem: HashMap<String, u64>,
    membership: Membership,
    /// Round-robin cursor over tenants for fair-share dispatch.
    rr: u64,
    stats: ClusterStats,
    /// Recent dispatch→adoption durations (ms), the sample the hedge
    /// threshold's percentile is derived from. Bounded ring.
    durations: Vec<u64>,
}

/// The cluster coordinator. Shared behind an [`Arc`]; `handle` serves
/// client and worker requests, `tick` advances failure detection and
/// dispatch. Network calls never run under the lock.
pub struct Coordinator {
    config: ClusterConfig,
    transport: Arc<dyn Transport>,
    inner: Mutex<CoInner>,
    /// Signalled whenever a job reaches a terminal phase; long-poll
    /// result requests (`GET /jobs/<id>?wait=ms`) block on it.
    settled: Condvar,
}

/// One outbound action computed under the lock, performed outside it.
enum Outbound {
    /// Poll `worker` for `job`'s completion (request-deadline check).
    Poll {
        job: u64,
        epoch: u64,
        worker: String,
        peer: String,
    },
    /// Dispatch `job` to `worker`, optionally pre-fetching the newest
    /// checkpoint from `fetch_from` (the peer that last ran the job).
    Dispatch {
        dispatch: Box<Dispatch>,
        worker: String,
        peer: String,
        fetch_from: Option<String>,
    },
}

const CLUSTER_QUEUE_MAGIC: &[u8; 8] = b"PNPCLST2";

impl Coordinator {
    /// Starts a coordinator, restoring any `cluster.pnpq` a previous
    /// drain left behind (restored jobs get a bumped epoch, so an
    /// attempt dispatched before the restart is fenced when it reports
    /// back).
    pub fn new(config: ClusterConfig, transport: Arc<dyn Transport>) -> Coordinator {
        let mut membership = Membership::new(config.detector);
        membership.breaker = config.breaker;
        let mut inner = CoInner {
            jobs: BTreeMap::new(),
            next_id: 1,
            idem: HashMap::new(),
            membership,
            rr: 0,
            stats: ClusterStats::default(),
            durations: Vec::new(),
        };
        let path = config.state_dir.join("cluster.pnpq");
        if let Ok(bytes) = config.vfs.read(&path) {
            match decode_cluster_queue(&bytes) {
                Ok((next_id, jobs)) => {
                    for job in jobs {
                        inner.next_id = inner.next_id.max(job.id + 1);
                        inner.stats.restored += 1;
                        inner.stats.submitted += 1;
                        if let Some(key) = &job.request.idem {
                            inner.idem.insert(key.clone(), job.id);
                        }
                        inner.jobs.insert(job.id, job);
                    }
                    inner.next_id = inner.next_id.max(next_id);
                }
                Err(reason) => eprintln!("pnp-serve: ignoring persisted cluster queue: {reason}"),
            }
            let _ = config.vfs.remove(&path);
        }
        Coordinator {
            config,
            transport,
            inner: Mutex::new(inner),
            settled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CoInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the coordinator counters.
    pub fn stats(&self) -> ClusterStats {
        self.lock().stats
    }

    /// The adopted completion for a terminal job (test hook).
    pub fn completion(&self, job: u64) -> Option<Completion> {
        self.lock().jobs.get(&job)?.completion.clone()
    }

    /// The worker a job is currently dispatched to (harness hook).
    pub fn worker_of(&self, job: u64) -> Option<String> {
        match &self.lock().jobs.get(&job)?.phase {
            GlobalPhase::Dispatched { worker, .. } => Some(worker.clone()),
            _ => None,
        }
    }

    /// How many stale uploads were fenced for `job`.
    pub fn fenced_count(&self, job: u64) -> u64 {
        self.lock().jobs.get(&job).map_or(0, |j| j.fenced)
    }

    /// Whether every admitted job is terminal.
    pub fn all_done(&self) -> bool {
        let inner = self.lock();
        !inner.jobs.is_empty()
            && inner
                .jobs
                .values()
                .all(|j| matches!(j.phase, GlobalPhase::Done(_)))
    }

    /// Serves one request — from a client (`/jobs*`, `/health`) or a
    /// worker (`/cluster/*`).
    pub fn handle(&self, request: &WireRequest, now_ms: u64) -> WireResponse {
        let path = request.path();
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let wait_ms = request
            .query("wait")
            .and_then(|w| w.parse::<u64>().ok())
            .filter(|w| *w > 0);
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["health"]) | ("GET", ["cluster", "status"]) => self.status_response(),
            ("POST", ["jobs"]) => self.submit_response(request, now_ms),
            ("GET", ["jobs", id]) => self.job_response(id, false, wait_ms),
            ("GET", ["jobs", id, "result"]) => self.job_response(id, true, wait_ms),
            ("POST", ["jobs", id, "cancel"]) => self.cancel_response(id),
            ("POST", ["cluster", "register"]) => self.register_response(request, now_ms),
            ("POST", ["cluster", "heartbeat"]) => self.heartbeat_response(request, now_ms),
            ("POST", ["cluster", "complete"]) => self.complete_response(request, now_ms),
            _ => not_found(),
        }
    }

    fn status_response(&self) -> WireResponse {
        let inner = self.lock();
        let s = inner.stats;
        let workers = array(inner.membership.all().iter().map(|w| {
            Obj::new()
                .str("name", &w.name)
                .str("peer", &w.peer)
                .str("state", w.state.as_str())
                .num("incarnation", w.incarnation)
                .str("breaker", w.breaker.as_str())
                .num("queue_depth", w.load.queue_depth)
                .num("running", w.load.running)
                .num("memory_bytes", w.load.memory_bytes)
                .num("spill_bytes", w.load.spill_bytes)
                .build()
        }));
        let pending = inner
            .jobs
            .values()
            .filter(|j| j.phase == GlobalPhase::Pending)
            .count();
        let running = inner
            .jobs
            .values()
            .filter(|j| matches!(j.phase, GlobalPhase::Dispatched { .. }))
            .count();
        let body = Obj::new()
            .str("status", "ok")
            .str("role", "coordinator")
            .num("pending", pending as u64)
            .num("running", running as u64)
            .num("submitted", s.submitted)
            .num("completed", s.completed)
            .num("shed", s.shed)
            .num("dispatches", s.dispatches)
            .num("migrations", s.migrations)
            .num("fenced", s.fenced)
            .num("snapshots_shipped", s.snapshots_shipped)
            .num("restored", s.restored)
            .num("hedges", s.hedges)
            .num("expired", s.expired)
            .num("breaker_trips", s.breaker_trips)
            .raw("workers", &workers)
            .build();
        WireResponse::new(200, body.into_bytes())
    }

    fn submit_response(&self, request: &WireRequest, now_ms: u64) -> WireResponse {
        let source = match String::from_utf8(request.body.clone()) {
            Ok(source) if !source.trim().is_empty() => source,
            Ok(_) => return bad_request("empty body: POST the .pnp source"),
            Err(_) => return bad_request("body is not UTF-8"),
        };
        let config = match resolve_job_config(&|key| request.query(key), self.config.default_search)
        {
            Ok(config) => config,
            Err(message) => return bad_request(&message),
        };
        let tenant = request.query("tenant").unwrap_or_else(|| "default".into());
        let required_workers = request
            .query("workers")
            .and_then(|w| w.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let idem = request.query("idem");

        let mut inner = self.lock();
        if let Some(key) = &idem {
            if let Some(&id) = inner.idem.get(key) {
                return accepted(id);
            }
        }
        let open = |inner: &CoInner, tenant: Option<&str>| {
            inner
                .jobs
                .values()
                .filter(|j| !matches!(j.phase, GlobalPhase::Done(_)))
                .filter(|j| tenant.is_none_or(|t| j.tenant == t))
                .count()
        };
        let shed = |inner: &mut CoInner, reason: &str| {
            inner.stats.shed += 1;
            let depth = open(inner, None);
            shed_response(reason, self.config.queue.retry_after_for(depth), depth)
        };
        if inner.membership.live().len() < required_workers {
            return shed(&mut inner, "workers");
        }
        if open(&inner, None) >= self.config.capacity {
            return shed(&mut inner, "queue_full");
        }
        if open(&inner, Some(&tenant)) >= self.config.tenant_quota {
            return shed(&mut inner, "tenant_quota");
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.stats.submitted += 1;
        if let Some(key) = &idem {
            inner.idem.insert(key.clone(), id);
        }
        let mut request = JobRequest::new(source, config);
        request.idem = idem;
        // The end-to-end envelope starts at admission: queueing time,
        // dispatch, migrations, and hedges all spend from it.
        let deadline_at_ms = config
            .job_deadline
            .map(|d| now_ms.saturating_add(d.as_millis() as u64));
        inner.jobs.insert(
            id,
            GlobalJob {
                id,
                tenant,
                request,
                epoch: 0,
                attempts: 0,
                phase: GlobalPhase::Pending,
                last_worker: None,
                not_before_ms: now_ms,
                required_workers,
                completion: None,
                fenced: 0,
                deadline_at_ms,
                dispatched_at_ms: None,
                hedge: None,
            },
        );
        accepted(id)
    }

    fn job_response(&self, id: &str, with_result: bool, wait_ms: Option<u64>) -> WireResponse {
        let Some(id) = parse_global(id) else {
            return not_found();
        };
        let mut inner = self.lock();
        // Long-poll: block up to the window for a terminal phase. Only
        // real-mode clients pass `wait` — the single-threaded sim
        // harness never does, so this cannot deadlock virtual time.
        if let Some(window) = wait_ms {
            let deadline = std::time::Instant::now() + Duration::from_millis(window.min(60_000));
            while !matches!(
                inner.jobs.get(&id).map(|j| &j.phase),
                None | Some(GlobalPhase::Done(_))
            ) {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    break;
                }
                let (guard, _timeout) = self
                    .settled
                    .wait_timeout(inner, left)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
            }
        }
        let inner = inner;
        let Some(job) = inner.jobs.get(&id) else {
            return not_found();
        };
        let phase = match &job.phase {
            GlobalPhase::Pending if job.attempts > 0 => "retrying",
            GlobalPhase::Pending => "queued",
            GlobalPhase::Dispatched { .. } => "running",
            GlobalPhase::Done(_) => "done",
        };
        let mut obj = Obj::new()
            .str("id", &format!("g-{id}"))
            .str("phase", phase)
            .num("attempts", job.attempts)
            .num("epoch", job.epoch);
        if let Some(deadline) = job.deadline_at_ms {
            obj = obj.num("deadline_at_ms", deadline);
        }
        if let GlobalPhase::Dispatched { worker, .. } = &job.phase {
            obj = obj.str("worker", worker);
            if let Some(hedge) = &job.hedge {
                obj = obj.str("hedge_worker", &hedge.worker);
            }
        }
        let done = if let GlobalPhase::Done(verdict) = job.phase {
            obj = obj
                .str("verdict", verdict.as_str())
                .num("exit_code", verdict.exit_code());
            true
        } else {
            false
        };
        if with_result && done {
            if let Some(completion) = &job.completion {
                if let Some(results) = &completion.results {
                    obj = obj.raw("properties", &array(results.iter().map(property_json)));
                }
                if let Some(error) = &completion.error {
                    obj = obj.raw(
                        "error",
                        &Obj::new()
                            .str("kind", error.kind)
                            .str("reason", &error.reason)
                            .num("attempts", error.attempts)
                            .bool("retryable", false)
                            .build(),
                    );
                }
            }
        }
        let status = if with_result && !done { 202 } else { 200 };
        WireResponse::new(status, obj.build().into_bytes())
    }

    fn cancel_response(&self, id: &str) -> WireResponse {
        let Some(id) = parse_global(id) else {
            return not_found();
        };
        let relay = {
            let mut inner = self.lock();
            let worker = match inner.jobs.get(&id) {
                None => return not_found(),
                Some(job) => match &job.phase {
                    GlobalPhase::Done(_) => None,
                    GlobalPhase::Dispatched { worker, .. } => Some(worker.clone()),
                    GlobalPhase::Pending => None,
                },
            };
            let already_done = matches!(
                inner.jobs.get(&id).map(|j| &j.phase),
                Some(GlobalPhase::Done(_))
            );
            if already_done {
                None
            } else {
                let peer = worker
                    .as_deref()
                    .and_then(|w| inner.membership.get(w).map(|w| w.peer.clone()));
                let job = inner.jobs.get_mut(&id).expect("job exists");
                job.phase = GlobalPhase::Done(Verdict::Cancelled);
                inner.stats.completed += 1;
                self.evict_terminal(&mut inner);
                self.settled.notify_all();
                peer
            }
        };
        if let Some(peer) = relay {
            // Best effort: the fence discards the worker's eventual
            // upload either way.
            let _ = self.transport.request(
                &peer,
                &WireRequest::post(format!("/cluster/cancel?job={id}"), Vec::new()),
            );
        }
        let body = Obj::new()
            .str("id", &format!("g-{id}"))
            .bool("cancelled", true)
            .build();
        WireResponse::new(200, body.into_bytes())
    }

    fn register_response(&self, request: &WireRequest, now_ms: u64) -> WireResponse {
        let (Some(name), Some(peer)) = (request.query("name"), request.query("peer")) else {
            return bad_request("register needs name and peer");
        };
        let mut inner = self.lock();
        let incarnation = inner.membership.register(&name, &peer, now_ms);
        let body = Obj::new()
            .str("name", &name)
            .num("incarnation", incarnation)
            .build();
        WireResponse::new(200, body.into_bytes())
    }

    fn heartbeat_response(&self, request: &WireRequest, now_ms: u64) -> WireResponse {
        let Some(name) = request.query("name") else {
            return bad_request("heartbeat needs name");
        };
        // Load telemetry rides on the heartbeat as query parameters; a
        // heartbeat without them leaves the last report in place.
        let field = |key: &str| request.query(key).and_then(|v| v.parse::<u64>().ok());
        let load = field("queue").map(|queue_depth| WorkerLoad {
            queue_depth,
            running: field("running").unwrap_or(0),
            memory_bytes: field("mem").unwrap_or(0),
            spill_bytes: field("spill").unwrap_or(0),
        });
        let mut inner = self.lock();
        if inner.membership.heartbeat(&name, now_ms, load) {
            WireResponse::new(200, Obj::new().str("status", "ok").build().into_bytes())
        } else {
            // Dead or unknown: the worker must re-register (fresh
            // incarnation) before it is placeable again.
            not_found()
        }
    }

    fn complete_response(&self, request: &WireRequest, now_ms: u64) -> WireResponse {
        let completion = match decode_completion(&request.body) {
            Ok(completion) => completion,
            Err(reason) => return bad_request(&reason),
        };
        let mut inner = self.lock();
        self.adopt_completion(&mut inner, completion, now_ms)
    }

    /// The single point where completions are accepted or fenced. A
    /// hedged job has two live epochs (primary and hedge); whichever
    /// reports a terminal result first is adopted, which makes the job
    /// terminal and fences the loser with the job-already-terminal 409.
    fn adopt_completion(
        &self,
        inner: &mut CoInner,
        completion: Completion,
        now_ms: u64,
    ) -> WireResponse {
        let job_id = completion.job;
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return not_found();
        };
        let fence = |job: &mut GlobalJob, stats: &mut ClusterStats, why: &str| {
            job.fenced += 1;
            stats.fenced += 1;
            let body = Obj::new()
                .str("error", "fenced")
                .str("reason", why)
                .num("epoch", job.epoch)
                .build();
            WireResponse::new(409, body.into_bytes())
        };
        if matches!(job.phase, GlobalPhase::Done(_)) {
            // Deadline-expired jobs keep their honest Inconclusive
            // verdict, but a matching-epoch upload that arrives late
            // still donates its partial statistics to the result body
            // (the job stays counted exactly once — `completed` was
            // incremented at expiry).
            if matches!(job.phase, GlobalPhase::Done(Verdict::Inconclusive))
                && job.completion.is_none()
                && completion.epoch == job.top_epoch()
            {
                job.completion = Some(completion);
                return WireResponse::new(
                    200,
                    Obj::new().str("status", "recorded").build().into_bytes(),
                );
            }
            return fence(job, &mut inner.stats, "job already terminal");
        }
        let hedge_epoch = job.hedge.as_ref().map(|h| h.epoch);
        if completion.epoch != job.epoch && Some(completion.epoch) != hedge_epoch {
            return fence(job, &mut inner.stats, "stale epoch");
        }
        // Duration sample for the hedge threshold: measured from the
        // attempt the completion actually came from.
        let started = if Some(completion.epoch) == hedge_epoch {
            job.hedge.as_ref().map(|h| h.at_ms)
        } else {
            job.dispatched_at_ms
        };
        if let Some(started) = started {
            record_duration(&mut inner.durations, now_ms.saturating_sub(started));
        }
        job.phase = GlobalPhase::Done(completion.verdict);
        job.last_worker = Some(completion.worker.clone());
        job.completion = Some(completion);
        inner.stats.completed += 1;
        self.evict_terminal(inner);
        self.settled.notify_all();
        WireResponse::new(
            200,
            Obj::new().str("status", "recorded").build().into_bytes(),
        )
    }

    /// Evicts the oldest terminal jobs (and their idempotency keys)
    /// once more than `retain_done` are held, so a long-lived
    /// coordinator does not grow without bound.
    fn evict_terminal(&self, inner: &mut CoInner) {
        let done: Vec<u64> = inner
            .jobs
            .values()
            .filter(|j| matches!(j.phase, GlobalPhase::Done(_)))
            .map(|j| j.id)
            .collect();
        if done.len() <= self.config.retain_done {
            return;
        }
        // BTreeMap iteration is id-ascending, so `done` is oldest-first.
        for id in &done[..done.len() - self.config.retain_done] {
            if let Some(job) = inner.jobs.remove(id) {
                if let Some(key) = &job.request.idem {
                    if inner.idem.get(key) == Some(&job.id) {
                        inner.idem.remove(key);
                    }
                }
            }
        }
    }

    /// One coordinator step at `now_ms`: run the failure detector,
    /// migrate jobs off newly dead workers, expire jobs past their
    /// end-to-end deadline, poll request-deadline overruns, hedge
    /// stalled dispatches, and dispatch pending jobs fair-share across
    /// tenants and least-loaded across workers.
    pub fn tick(&self, now_ms: u64) {
        // Phase 1 (locked): heartbeat detector + migration of jobs on
        // newly dead workers + end-to-end deadline expiry.
        {
            let mut inner = self.lock();
            let newly_dead = inner.membership.tick(now_ms);
            for worker in newly_dead {
                self.migrate_from(&mut inner, &worker, now_ms);
            }
            self.expire_deadlines(&mut inner, now_ms);
        }

        // Phase 2: request-deadline detection. Collect overdue
        // dispatches under the lock, poll outside it.
        let polls: Vec<Outbound> = {
            let inner = self.lock();
            inner
                .jobs
                .values()
                .filter_map(|job| match &job.phase {
                    GlobalPhase::Dispatched { worker, at_ms }
                        if now_ms.saturating_sub(*at_ms) >= self.config.request_timeout_ms =>
                    {
                        let peer = inner.membership.get(worker)?.peer.clone();
                        Some(Outbound::Poll {
                            job: job.id,
                            epoch: job.epoch,
                            worker: worker.clone(),
                            peer,
                        })
                    }
                    _ => None,
                })
                .collect()
        };
        for poll in polls {
            let Outbound::Poll {
                job,
                epoch,
                worker,
                peer,
            } = poll
            else {
                continue;
            };
            let request = WireRequest::get(format!("/cluster/poll?job={job}&epoch={epoch}"));
            match self.transport.request(&peer, &request) {
                Ok(response) if response.status == 200 => {
                    if let Ok(completion) = decode_completion(&response.body) {
                        let mut inner = self.lock();
                        inner.membership.record_success(&worker, now_ms);
                        let adopted = self.adopt_completion(&mut inner, completion, now_ms);
                        if adopted.status != 200 && still_dispatched(&inner, job, epoch, &worker) {
                            // The worker answered with a stale attempt's
                            // result; it will never produce the current
                            // epoch, so move the job elsewhere.
                            self.migrate_job(&mut inner, job, now_ms);
                        }
                    }
                }
                Ok(response) if response.status == 202 => {
                    // Reachable and still working: push the deadline
                    // out by re-stamping the dispatch time.
                    let mut inner = self.lock();
                    inner.membership.record_success(&worker, now_ms);
                    if let Some(job) = inner.jobs.get_mut(&job) {
                        if let GlobalPhase::Dispatched { worker: w, at_ms } = &mut job.phase {
                            if *w == worker {
                                *at_ms = now_ms;
                            }
                        }
                    }
                }
                Ok(_) => {
                    // Reachable but the job is gone (the worker
                    // restarted and lost its in-memory state): migrate
                    // this job without condemning the whole worker.
                    let mut inner = self.lock();
                    if still_dispatched(&inner, job, epoch, &worker) {
                        self.migrate_job(&mut inner, job, now_ms);
                    }
                }
                Err(_) => {
                    // Unreachable past the request deadline: feed the
                    // breaker, declare the worker dead now, and migrate
                    // its jobs.
                    let mut inner = self.lock();
                    if inner.membership.record_failure(&worker, now_ms) {
                        inner.stats.breaker_trips += 1;
                    }
                    if inner.membership.declare_dead(&worker) {
                        self.migrate_from(&mut inner, &worker, now_ms);
                    }
                }
            }
        }

        // Phase 2.5: hedged dispatch. A dispatch that has been out
        // longer than the percentile-derived threshold gets a
        // speculative second attempt on another worker, under a fresh
        // epoch; first terminal result wins, the loser is fenced.
        let hedges = {
            let mut inner = self.lock();
            self.select_hedges(&mut inner, now_ms)
        };
        for action in hedges {
            if let Outbound::Dispatch {
                dispatch,
                worker,
                peer,
                ..
            } = action
            {
                self.send_hedge(*dispatch, &worker, &peer, now_ms);
            }
        }

        // Phase 3: dispatch. Select placements fair-share under the
        // lock; fetch snapshots and send dispatches outside it.
        let outbound = {
            let mut inner = self.lock();
            self.select_dispatches(&mut inner, now_ms)
        };
        for action in outbound {
            match action {
                Outbound::Poll { .. } => {}
                Outbound::Dispatch {
                    mut dispatch,
                    worker,
                    peer,
                    fetch_from,
                } => {
                    // Snapshot shipping: when the target is not the
                    // sticky worker, try to pull the newest checkpoint
                    // from wherever the job last ran (even a worker the
                    // detector condemned — zombies often still answer).
                    if let Some(source_peer) = fetch_from {
                        let request =
                            WireRequest::get(format!("/cluster/snapshot?job={}", dispatch.job));
                        if let Ok(response) = self.transport.request(&source_peer, &request) {
                            if response.status == 200 && !response.body.is_empty() {
                                dispatch.request.seed_snapshot = Some(response.body);
                                self.lock().stats.snapshots_shipped += 1;
                            }
                        }
                    }
                    self.send_dispatch(*dispatch, &worker, &peer, now_ms);
                }
            }
        }
    }

    /// Re-queues every job dispatched to `worker` behind a bumped epoch.
    fn migrate_from(&self, inner: &mut CoInner, worker: &str, now_ms: u64) {
        let ids: Vec<u64> = inner
            .jobs
            .values()
            .filter(|job| {
                matches!(&job.phase, GlobalPhase::Dispatched { worker: w, .. } if w == worker)
            })
            .map(|job| job.id)
            .collect();
        for id in ids {
            self.migrate_job(inner, id, now_ms);
        }
    }

    /// Re-queues one dispatched job behind a bumped epoch, or fails it
    /// when its dispatch budget is spent.
    fn migrate_job(&self, inner: &mut CoInner, id: u64, now_ms: u64) {
        let max_attempts = self.config.max_attempts;
        let Some(job) = inner.jobs.get_mut(&id) else {
            return;
        };
        if matches!(job.phase, GlobalPhase::Done(_)) {
            return;
        }
        // Bump past *both* live epochs so the primary and any hedge
        // are fenced when they eventually report.
        job.epoch = job.top_epoch() + 1;
        job.hedge = None;
        job.dispatched_at_ms = None;
        if job.attempts >= max_attempts {
            job.phase = GlobalPhase::Done(Verdict::Failed);
            inner.stats.completed += 1;
            self.evict_terminal(inner);
            self.settled.notify_all();
            return;
        }
        job.phase = GlobalPhase::Pending;
        job.not_before_ms = now_ms + self.config.backoff_base_ms;
        inner.stats.migrations += 1;
    }

    /// Force-expires jobs whose end-to-end deadline has passed: an
    /// honest `Inconclusive` (exit 3) instead of a hang. A *pending*
    /// job expires the moment its deadline does; a *dispatched* job
    /// gets one request-timeout of grace first, because its worker's
    /// clamped time budget should trip right at the deadline and
    /// deliver the same verdict with partial statistics — the backstop
    /// only fires when that completion never arrives.
    fn expire_deadlines(&self, inner: &mut CoInner, now_ms: u64) {
        let grace = self.config.request_timeout_ms;
        let expired: Vec<u64> = inner
            .jobs
            .values()
            .filter(|job| {
                let Some(deadline) = job.deadline_at_ms else {
                    return false;
                };
                match &job.phase {
                    GlobalPhase::Pending => now_ms >= deadline,
                    GlobalPhase::Dispatched { .. } => now_ms >= deadline.saturating_add(grace),
                    GlobalPhase::Done(_) => false,
                }
            })
            .map(|job| job.id)
            .collect();
        for id in expired {
            let job = inner.jobs.get_mut(&id).expect("job exists");
            job.phase = GlobalPhase::Done(Verdict::Inconclusive);
            inner.stats.completed += 1;
            inner.stats.expired += 1;
            self.evict_terminal(inner);
            self.settled.notify_all();
        }
    }

    /// The stall threshold for hedging, derived from recent completed
    /// dispatch durations: twice the p95, clamped between the
    /// configured floor and the request timeout. With too few samples
    /// to call a percentile, half the request timeout. A floor raised
    /// past the request timeout effectively disables hedging — the
    /// request-deadline poll always reconciles first.
    fn hedge_threshold(&self, inner: &CoInner) -> u64 {
        let floor = self.config.hedge_floor_ms;
        let cap = self.config.request_timeout_ms.max(floor);
        if inner.durations.len() < 5 {
            return (self.config.request_timeout_ms / 2).max(floor);
        }
        let mut sorted = inner.durations.clone();
        sorted.sort_unstable();
        let p95 = sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)];
        p95.saturating_mul(2).clamp(floor, cap)
    }

    /// Picks stalled dispatches to hedge, marking the hedge under the
    /// lock (so a concurrent tick cannot double-hedge) and returning
    /// the sends to perform outside it. At most one hedge per dispatch;
    /// the hedge runs under `top_epoch + 1` on a different worker.
    fn select_hedges(&self, inner: &mut CoInner, now_ms: u64) -> Vec<Outbound> {
        let threshold = self.hedge_threshold(inner);
        let mut inflight = inflight(inner);
        let candidates: Vec<(u64, String)> = inner
            .jobs
            .values()
            .filter_map(|job| match (&job.phase, &job.hedge, job.dispatched_at_ms) {
                (GlobalPhase::Dispatched { worker, .. }, None, Some(started))
                    if now_ms.saturating_sub(started) >= threshold
                        && job.deadline_at_ms.is_none_or(|d| now_ms < d) =>
                {
                    Some((job.id, worker.clone()))
                }
                _ => None,
            })
            .collect();
        let mut actions = Vec::new();
        for (id, primary) in candidates {
            let Some(target) = inner.membership.place_weighted(
                &format!("g-{id}-hedge"),
                Some(&primary),
                &inflight,
            ) else {
                continue;
            };
            if target == primary {
                // Only one placeable worker: a hedge there would just
                // double the load that made it slow.
                continue;
            }
            let Some(peer) = inner.membership.get(&target).map(|w| w.peer.clone()) else {
                continue;
            };
            *inflight.entry(target.clone()).or_insert(0) += 1;
            let job = inner.jobs.get_mut(&id).expect("job exists");
            let hedge_epoch = job.top_epoch() + 1;
            job.hedge = Some(HedgeAttempt {
                worker: target.clone(),
                epoch: hedge_epoch,
                at_ms: now_ms,
            });
            inner.stats.hedges += 1;
            inner.stats.dispatches += 1;
            let job = inner.jobs.get(&id).expect("job exists");
            actions.push(Outbound::Dispatch {
                dispatch: Box::new(dispatch_payload(job, hedge_epoch, now_ms)),
                worker: target,
                peer,
                // Hedges start fresh: the primary still owns the
                // newest checkpoint, and pulling it from a straggler
                // would stall the hedge on the same slow worker.
                fetch_from: None,
            });
        }
        actions
    }

    /// Sends one hedge dispatch and reconciles: a failed or shed hedge
    /// is simply cleared (the primary is still running; a later tick
    /// may hedge again), never migrated.
    fn send_hedge(&self, dispatch: Dispatch, worker: &str, peer: &str, now_ms: u64) {
        let job_id = dispatch.job;
        let epoch = dispatch.epoch;
        let body = encode_dispatch(&dispatch);
        let request = WireRequest::post("/cluster/execute".to_string(), body);
        let result = self.transport.request(peer, &request);
        let mut inner = self.lock();
        let accepted = matches!(&result, Ok(response) if response.status < 300);
        match &result {
            Ok(_) => inner.membership.record_success(worker, now_ms),
            Err(error) if !error.request_delivered() => {
                if inner.membership.record_failure(worker, now_ms) {
                    inner.stats.breaker_trips += 1;
                }
            }
            // Ambiguous (timeout/reset after delivery): the hedge may
            // be running; keep it armed and let the fence sort it out.
            Err(_) => return,
        }
        if !accepted {
            if let Some(job) = inner.jobs.get_mut(&job_id) {
                if job.hedge.as_ref().is_some_and(|h| h.epoch == epoch) {
                    job.hedge = None;
                }
            }
        }
    }

    /// Fair-share placement: walk tenants round-robin, placing each
    /// tenant's oldest ready job until workers run out of slots.
    /// Worker choice is weighted by load — heartbeat-reported queue
    /// depth and running attempts plus the coordinator's own in-flight
    /// count — with sticky checkpoint affinity kept as a *preference*:
    /// the checkpoint holder wins unless it is loaded well past the
    /// least-loaded alternative.
    fn select_dispatches(&self, inner: &mut CoInner, now_ms: u64) -> Vec<Outbound> {
        let mut inflight = inflight(inner);
        let mut tenants: Vec<String> = inner
            .jobs
            .values()
            .filter(|j| j.phase == GlobalPhase::Pending && j.not_before_ms <= now_ms)
            .map(|j| j.tenant.clone())
            .collect();
        tenants.sort();
        tenants.dedup();
        if tenants.is_empty() {
            return Vec::new();
        }
        let start = (inner.rr as usize) % tenants.len();
        inner.rr = inner.rr.wrapping_add(1);
        let mut actions = Vec::new();
        let mut placed: Vec<u64> = Vec::new();
        // One pass per tenant, starting at the rotating cursor; each
        // tenant places its ready jobs oldest-first while slots remain.
        for offset in 0..tenants.len() {
            let tenant = &tenants[(start + offset) % tenants.len()];
            let ready: Vec<u64> = inner
                .jobs
                .values()
                .filter(|j| {
                    j.tenant == *tenant
                        && j.phase == GlobalPhase::Pending
                        && j.not_before_ms <= now_ms
                })
                .map(|j| j.id)
                .collect();
            for id in ready {
                let job = inner.jobs.get(&id).expect("job exists");
                if inner.membership.live().len() < job.required_workers {
                    continue;
                }
                // Sticky affinity as a preference: the worker already
                // holding this job's checkpoint wins unless it is
                // loaded more than one full slot allotment past the
                // least-loaded alternative; a sticky worker that is
                // dead, suspect, or breaker-open is skipped entirely
                // (and avoided in the weighted choice — it just
                // failed).
                let extra = |name: &str| inflight.get(name).copied().unwrap_or(0);
                let sticky = job.last_worker.as_deref();
                let sticky_score =
                    sticky.and_then(|name| inner.membership.weighted_score(name, extra(name)));
                let target = match (sticky, sticky_score) {
                    (Some(name), Some(score)) => {
                        let slack = self.config.max_inflight_per_worker as u64;
                        let best =
                            inner
                                .membership
                                .place_weighted(&format!("g-{id}"), None, &inflight);
                        let best_score = best
                            .as_deref()
                            .and_then(|b| inner.membership.weighted_score(b, extra(b)))
                            .unwrap_or(score);
                        if score <= best_score.saturating_add(slack) {
                            Some(name.to_string())
                        } else {
                            best
                        }
                    }
                    _ => inner
                        .membership
                        .place_weighted(&format!("g-{id}"), sticky, &inflight),
                };
                let Some(worker) = target else {
                    continue;
                };
                let slots = inflight.entry(worker.clone()).or_insert(0);
                if *slots >= self.config.max_inflight_per_worker {
                    continue;
                }
                *slots += 1;
                placed.push(id);
                let peer = inner
                    .membership
                    .get(&worker)
                    .expect("placed worker exists")
                    .peer
                    .clone();
                let job = inner.jobs.get(&id).expect("job exists");
                // Resolve the snapshot source now, before placement
                // overwrites `last_worker` with the new target.
                let fetch_from = job
                    .last_worker
                    .as_deref()
                    .filter(|last| *last != worker)
                    .and_then(|last| inner.membership.get(last).map(|w| w.peer.clone()));
                actions.push(Outbound::Dispatch {
                    dispatch: Box::new(dispatch_payload(job, job.epoch, now_ms)),
                    worker,
                    peer,
                    fetch_from,
                });
            }
        }
        // Mark placements as dispatched *before* releasing the lock so
        // a concurrent tick cannot double-place them; a failed send
        // reverts to Pending.
        for id in &placed {
            let job = inner.jobs.get_mut(id).expect("job exists");
            job.attempts += 1;
            inner.stats.dispatches += 1;
        }
        for action in &actions {
            if let Outbound::Dispatch {
                dispatch, worker, ..
            } = action
            {
                let job = inner.jobs.get_mut(&dispatch.job).expect("job exists");
                job.phase = GlobalPhase::Dispatched {
                    worker: worker.clone(),
                    at_ms: now_ms,
                };
                job.last_worker = Some(worker.clone());
                job.dispatched_at_ms = Some(now_ms);
                job.hedge = None;
            }
        }
        actions
    }

    fn send_dispatch(&self, dispatch: Dispatch, worker: &str, peer: &str, now_ms: u64) {
        let job_id = dispatch.job;
        let epoch = dispatch.epoch;
        let body = encode_dispatch(&dispatch);
        let request = WireRequest::post("/cluster/execute".to_string(), body);
        let result = self.transport.request(peer, &request);
        let mut inner = self.lock();
        // Breaker accounting is independent of whether the dispatch is
        // still the live one: it judges the *worker*, not the job.
        match &result {
            Ok(_) => inner.membership.record_success(worker, now_ms),
            Err(error) if !error.request_delivered() => {
                if inner.membership.record_failure(worker, now_ms) {
                    inner.stats.breaker_trips += 1;
                }
            }
            Err(_) => {}
        }
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return;
        };
        // The job may have completed or migrated while we were off the
        // lock; only reconcile if this dispatch is still the live one.
        let still_ours = job.epoch == epoch
            && matches!(&job.phase, GlobalPhase::Dispatched { worker: w, .. } if w == worker);
        if !still_ours {
            return;
        }
        match result {
            Ok(response) if response.status < 300 => {}
            Ok(response) if response.status == 409 => {
                // The worker has a newer epoch for this job than we
                // thought — leave it dispatched; the poll path
                // reconciles.
                let _ = response;
            }
            Ok(response) if response.status == 503 => {
                // Shed: the worker never started the job, so refund the
                // attempt, back off by its hint, and retry placement.
                job.phase = GlobalPhase::Pending;
                job.attempts = job.attempts.saturating_sub(1);
                let hint = response
                    .retry_after
                    .map(|s| s * 1000)
                    .unwrap_or(self.config.backoff_base_ms);
                job.not_before_ms = now_ms + hint;
            }
            Ok(_) => {
                // Rejected (4xx/5xx): likely deterministic, so the
                // attempt stays consumed — a persistent rejection burns
                // through the budget instead of retrying forever.
                if job.attempts >= self.config.max_attempts {
                    job.phase = GlobalPhase::Done(Verdict::Failed);
                    inner.stats.completed += 1;
                    self.evict_terminal(&mut inner);
                    self.settled.notify_all();
                } else {
                    job.phase = GlobalPhase::Pending;
                    job.not_before_ms = now_ms + self.config.backoff_base_ms;
                }
            }
            Err(error) => {
                if error.request_delivered() {
                    // Ambiguous: the worker may be running it. Leave it
                    // dispatched; the request-deadline poll reconciles
                    // (adopts the completion or migrates).
                } else {
                    // Provably undelivered: safe to retry elsewhere.
                    job.phase = GlobalPhase::Pending;
                    job.attempts = job.attempts.saturating_sub(1);
                    job.not_before_ms = now_ms + self.config.backoff_base_ms;
                    drop(inner);
                    let mut inner = self.lock();
                    if inner.membership.declare_dead(worker) {
                        self.migrate_from(&mut inner, worker, now_ms);
                    }
                }
            }
        }
    }

    /// Persists every non-terminal job to `cluster.pnpq` so a restarted
    /// coordinator resumes exactly where this one stopped. Dispatched
    /// jobs are persisted too — their epoch is bumped on restore, so a
    /// completion from the pre-restart dispatch is fenced.
    pub fn drain(&self) {
        let inner = self.lock();
        let open: Vec<&GlobalJob> = inner
            .jobs
            .values()
            .filter(|j| !matches!(j.phase, GlobalPhase::Done(_)))
            .collect();
        let path = self.config.state_dir.join("cluster.pnpq");
        if open.is_empty() {
            let _ = self.config.vfs.remove(&path);
            return;
        }
        let bytes = encode_cluster_queue(inner.next_id, &open);
        let _ = self.config.vfs.create_dir_all(&self.config.state_dir);
        if commit_replace(self.config.vfs.as_ref(), &path, &bytes).is_err() {
            eprintln!(
                "pnp-serve: failed to persist cluster queue to {}",
                path.display()
            );
        }
    }
}

/// Attempts in flight per worker: every dispatched job's primary and
/// its hedge. A terminal job's hedge record is kept for the epoch fence
/// but no longer holds a slot.
fn inflight(inner: &CoInner) -> HashMap<String, usize> {
    let mut inflight = HashMap::new();
    for job in inner.jobs.values() {
        if let GlobalPhase::Dispatched { worker, .. } = &job.phase {
            *inflight.entry(worker.clone()).or_insert(0) += 1;
            if let Some(hedge) = &job.hedge {
                *inflight.entry(hedge.worker.clone()).or_insert(0) += 1;
            }
        }
    }
    inflight
}

fn encode_cluster_queue(next_id: u64, jobs: &[&GlobalJob]) -> Vec<u8> {
    let mut w = Writer::new(CLUSTER_QUEUE_MAGIC);
    w.u64(next_id);
    w.u64(jobs.len() as u64);
    for job in jobs {
        w.u64(job.epoch);
        w.u32(job.attempts);
        w.str(&job.tenant);
        w.u64(job.required_workers as u64);
        // The deadline is persisted as the *absolute* coordinator
        // timestamp: a restart does not reset the envelope.
        w.opt_u64(job.deadline_at_ms);
        match &job.request.idem {
            Some(key) => {
                w.u8(1);
                w.str(key);
            }
            None => w.u8(0),
        }
        let mut request = job.request.clone();
        request.seed_snapshot = None;
        w.bytes(&encode_queue(&[PersistedJob {
            id: job.id,
            attempts: job.attempts,
            request,
        }]));
    }
    w.finish()
}

fn decode_cluster_queue(bytes: &[u8]) -> Result<(u64, Vec<GlobalJob>), String> {
    let mut r = Reader::open(bytes, CLUSTER_QUEUE_MAGIC, "cluster queue")?;
    let next_id = r.u64()?;
    let count = r.usize()?;
    if count > 100_000 {
        return Err(format!("implausible job count {count}"));
    }
    let mut jobs = Vec::with_capacity(count);
    for _ in 0..count {
        let epoch = r.u64()?;
        let attempts = r.u32()?;
        let tenant = r.str()?;
        let required_workers = r.usize()?;
        let deadline_at_ms = r.opt_u64()?;
        let idem = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            other => return Err(format!("bad idem flag {other}")),
        };
        let inner_bytes = r.blob()?;
        let mut decoded = decode_queue(&inner_bytes)?;
        let persisted = match (decoded.pop(), decoded.is_empty()) {
            (Some(job), true) => job,
            _ => return Err("cluster queue entry must carry exactly one job".into()),
        };
        let mut request = persisted.request;
        request.idem = idem;
        jobs.push(GlobalJob {
            id: persisted.id,
            tenant,
            request,
            // Bump past the persisted epoch: any attempt dispatched
            // before the restart reports against a stale epoch.
            epoch: epoch + 1,
            attempts,
            phase: GlobalPhase::Pending,
            last_worker: None,
            not_before_ms: 0,
            required_workers,
            completion: None,
            fenced: 0,
            deadline_at_ms,
            dispatched_at_ms: None,
            hedge: None,
        });
    }
    r.done()?;
    Ok((next_id, jobs))
}

/// Builds the wire dispatch for one attempt of `job` under `epoch`,
/// re-deriving the remaining end-to-end window at `now_ms` and
/// clamping it into the kernel's time budget and the per-attempt
/// watchdog. Because the window is recomputed against the *original*
/// absolute deadline at every hop, a migrated or hedged attempt always
/// gets a smaller budget than its predecessor — the envelope only
/// shrinks. An already-expired window still dispatches with a minimal
/// budget so the worker reports an honest `Inconclusive` with partial
/// stats instead of the job hanging.
fn dispatch_payload(job: &GlobalJob, epoch: u64, now_ms: u64) -> Dispatch {
    let mut request = job.request.clone();
    if let Some(deadline) = job.deadline_at_ms {
        let remaining = Duration::from_millis(deadline.saturating_sub(now_ms));
        request.config.config.clamp_time(remaining);
        // The watchdog gets a hair of grace past the kernel budget so
        // the cooperative time trip (honest partial stats) wins the
        // race against the watchdog's cancel-and-retry.
        let watchdog = remaining.max(Duration::from_millis(1)) + Duration::from_millis(100);
        request.config.deadline = Some(match request.config.deadline {
            Some(existing) => existing.min(watchdog),
            None => watchdog,
        });
    }
    Dispatch {
        job: job.id,
        epoch,
        attempts: job.attempts,
        deadline_at_ms: job.deadline_at_ms,
        request,
    }
}

/// Appends one dispatch→adoption duration sample, keeping the ring
/// bounded (the hedge threshold only needs a recent window).
fn record_duration(durations: &mut Vec<u64>, sample_ms: u64) {
    const KEEP: usize = 256;
    if durations.len() >= KEEP {
        durations.remove(0);
    }
    durations.push(sample_ms);
}

/// Whether `job` is still dispatched to `worker` under `epoch` — the
/// guard every poll-outcome handler must pass before acting, because a
/// poll collected at the top of `tick` can go stale while earlier polls
/// in the same loop migrate jobs or condemn workers.
fn still_dispatched(inner: &CoInner, job: u64, epoch: u64, worker: &str) -> bool {
    inner.jobs.get(&job).is_some_and(|j| {
        j.epoch == epoch
            && matches!(&j.phase, GlobalPhase::Dispatched { worker: w, .. } if w == worker)
    })
}

fn parse_global(id: &str) -> Option<u64> {
    id.strip_prefix("g-")?.parse().ok()
}

fn not_found() -> WireResponse {
    WireResponse::new(
        404,
        Obj::new().str("error", "not_found").build().into_bytes(),
    )
}

fn bad_request(message: &str) -> WireResponse {
    WireResponse::new(400, Obj::new().str("error", message).build().into_bytes())
}

fn accepted(id: u64) -> WireResponse {
    let body = Obj::new()
        .str("id", &format!("g-{id}"))
        .str("status_url", &format!("/jobs/g-{id}"))
        .str("result_url", &format!("/jobs/g-{id}/result"))
        .build();
    WireResponse::new(202, body.into_bytes())
}

fn shed_response(reason: &str, retry_after: Duration, depth: usize) -> WireResponse {
    let body = Obj::new()
        .str("error", "overloaded")
        .str("reason", reason)
        .bool("retryable", true)
        .num("retry_after_ms", retry_after.as_millis() as u64)
        .num("queue_depth", depth as u64)
        .build();
    let mut response = WireResponse::new(503, body.into_bytes());
    response.retry_after = Some(retry_after.as_secs().max(1));
    response
}

/// The worker-side cluster adapter: executes dispatches on the local
/// [`Supervisor`], answers snapshot and poll requests, and pushes
/// completions back to the coordinator.
pub struct WorkerGateway {
    /// This worker's stable name.
    pub name: String,
    supervisor: Arc<Supervisor>,
    settled_retain: usize,
    inner: Mutex<GatewayInner>,
}

#[derive(Default)]
struct GatewayInner {
    /// Global job → the epoch we run it under and its local id.
    /// Settled entries stay so a duplicated dispatch of a finished
    /// epoch answers idempotently; [`settle`] evicts the oldest beyond
    /// [`ClusterConfig::settled_retain`] (a re-run of an evicted job is
    /// fenced by the coordinator's epoch check anyway).
    jobs: HashMap<u64, GatewayJob>,
}

/// Marks `job` settled and evicts the oldest settled entries beyond
/// `retain`, keeping a long-lived worker's map bounded.
fn settle(inner: &mut GatewayInner, job: u64, retain: usize) {
    if let Some(entry) = inner.jobs.get_mut(&job) {
        entry.settled = true;
    }
    let mut settled: Vec<u64> = inner
        .jobs
        .iter()
        .filter(|(_, entry)| entry.settled)
        .map(|(&job, _)| job)
        .collect();
    if settled.len() <= retain {
        return;
    }
    settled.sort_unstable();
    for id in &settled[..settled.len() - retain] {
        inner.jobs.remove(id);
    }
}

struct GatewayJob {
    epoch: u64,
    local: JobId,
    /// Set once the completion was acknowledged (200) or fenced (409)
    /// by the coordinator.
    settled: bool,
}

/// What pushing pending completions accomplished (test observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushReport {
    /// Completions acknowledged by the coordinator.
    pub acknowledged: u64,
    /// Completions the coordinator fenced (stale epoch / terminal job)
    /// — discarded locally, never retried.
    pub fenced: u64,
    /// Completions still unacknowledged (push them again later).
    pub pending: u64,
}

impl WorkerGateway {
    /// A gateway over the local supervisor, with the default
    /// settled-entry retention ([`ClusterConfig::settled_retain`]).
    pub fn new(name: &str, supervisor: Arc<Supervisor>) -> WorkerGateway {
        WorkerGateway {
            name: name.to_string(),
            supervisor,
            settled_retain: ClusterConfig::default().settled_retain,
            inner: Mutex::new(GatewayInner::default()),
        }
    }

    /// Overrides how many settled entries the gateway retains before
    /// evicting the oldest (`pnp-serve --retain-done N`).
    pub fn with_settled_retain(mut self, retain: usize) -> WorkerGateway {
        self.settled_retain = retain;
        self
    }

    fn lock(&self) -> MutexGuard<'_, GatewayInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serves one `/cluster/*` request from the coordinator.
    pub fn handle(&self, request: &WireRequest) -> WireResponse {
        let path = request.path();
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["cluster", "ping"]) => {
                WireResponse::new(200, Obj::new().str("status", "ok").build().into_bytes())
            }
            ("POST", ["cluster", "execute"]) => self.execute_response(request),
            ("GET", ["cluster", "snapshot"]) => self.snapshot_response(request),
            ("GET", ["cluster", "poll"]) => self.poll_response(request),
            ("POST", ["cluster", "cancel"]) => self.cancel_response(request),
            _ => not_found(),
        }
    }

    fn execute_response(&self, request: &WireRequest) -> WireResponse {
        let mut dispatch = match decode_dispatch(&request.body) {
            Ok(dispatch) => dispatch,
            Err(reason) => return bad_request(&reason),
        };
        // Re-derive the remaining end-to-end window against this
        // worker's clock at acceptance: whatever the dispatch spent in
        // flight is gone from the budget, so the envelope only ever
        // shrinks. An already-expired window still runs with a minimal
        // time budget — an immediate, honest Inconclusive with partial
        // stats rather than a silent drop.
        if let Some(deadline) = dispatch.deadline_at_ms {
            let remaining = Duration::from_millis(deadline.saturating_sub(wall_ms()));
            dispatch.request.config.config.clamp_time(remaining);
        }
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get(&dispatch.job) {
            if dispatch.epoch < entry.epoch {
                // A delayed dispatch from before a migration cycle we
                // already superseded: fence it.
                let body = Obj::new()
                    .str("error", "fenced")
                    .str("reason", "stale dispatch epoch")
                    .num("epoch", entry.epoch)
                    .build();
                return WireResponse::new(409, body.into_bytes());
            }
            if dispatch.epoch == entry.epoch {
                // Idempotent duplicate (e.g. a SimNet-duplicated
                // delivery): the job is already running or done here.
                return execute_accepted(dispatch.job, entry.local);
            }
            // Newer epoch: the coordinator migrated the job away and
            // back. Cancel the old local attempt and start fresh.
            let stale_local = entry.local;
            drop(inner);
            let _ = self.supervisor.cancel(stale_local);
            inner = self.lock();
        }
        match self.supervisor.submit(dispatch.request.clone()) {
            Ok(local) => {
                inner.jobs.insert(
                    dispatch.job,
                    GatewayJob {
                        epoch: dispatch.epoch,
                        local,
                        settled: false,
                    },
                );
                execute_accepted(dispatch.job, local)
            }
            Err(shed) => {
                let mut response = shed_response(shed.reason, shed.retry_after, shed.queue_depth);
                response.status = 503;
                response
            }
        }
    }

    fn snapshot_response(&self, request: &WireRequest) -> WireResponse {
        let Some(job) = request.query("job").and_then(|j| j.parse::<u64>().ok()) else {
            return bad_request("snapshot needs job=N");
        };
        let local = {
            let inner = self.lock();
            inner.jobs.get(&job).map(|entry| entry.local)
        };
        let Some(local) = local else {
            return not_found();
        };
        match self.supervisor.export_checkpoint(local) {
            Some((_generation, payload)) => WireResponse::new(200, payload),
            None => not_found(),
        }
    }

    fn poll_response(&self, request: &WireRequest) -> WireResponse {
        let Some(job) = request.query("job").and_then(|j| j.parse::<u64>().ok()) else {
            return bad_request("poll needs job=N");
        };
        let entry = {
            let inner = self.lock();
            inner.jobs.get(&job).map(|e| (e.epoch, e.local))
        };
        let Some((epoch, local)) = entry else {
            return not_found();
        };
        match self.completion_for(job, epoch, local) {
            Some(completion) => WireResponse::new(200, encode_completion(&completion)),
            None => WireResponse::new(
                202,
                Obj::new().str("status", "running").build().into_bytes(),
            ),
        }
    }

    fn cancel_response(&self, request: &WireRequest) -> WireResponse {
        let Some(job) = request.query("job").and_then(|j| j.parse::<u64>().ok()) else {
            return bad_request("cancel needs job=N");
        };
        let local = {
            let inner = self.lock();
            inner.jobs.get(&job).map(|entry| entry.local)
        };
        match local {
            Some(local) => {
                let _ = self.supervisor.cancel(local);
                WireResponse::new(
                    200,
                    Obj::new().str("status", "cancelling").build().into_bytes(),
                )
            }
            None => not_found(),
        }
    }

    /// The completion for a finished local job, or `None` while it is
    /// still in flight.
    fn completion_for(&self, job: u64, epoch: u64, local: JobId) -> Option<Completion> {
        let verdict = self.supervisor.verdict(local)??;
        Some(Completion {
            job,
            epoch,
            worker: self.name.clone(),
            verdict,
            attempts: self.supervisor.attempts(local).unwrap_or(0),
            error: self.supervisor.error(local),
            results: self.supervisor.results(local),
        })
    }

    /// Pushes every finished-but-unsettled job's completion to the
    /// coordinator at `peer` over `transport`. A `409` means the
    /// coordinator fenced the upload (the job migrated past us) — the
    /// result is discarded locally, exactly as the exactly-once
    /// argument requires.
    pub fn push_completions(&self, transport: &dyn Transport, peer: &str) -> PushReport {
        let candidates: Vec<(u64, u64, JobId)> = {
            let inner = self.lock();
            inner
                .jobs
                .iter()
                .filter(|(_, entry)| !entry.settled)
                .map(|(&job, entry)| (job, entry.epoch, entry.local))
                .collect()
        };
        let mut report = PushReport::default();
        for (job, epoch, local) in candidates {
            let Some(completion) = self.completion_for(job, epoch, local) else {
                continue;
            };
            let request = WireRequest::post(
                "/cluster/complete".to_string(),
                encode_completion(&completion),
            );
            match transport.request(peer, &request) {
                Ok(response) if response.status == 200 => {
                    report.acknowledged += 1;
                    settle(&mut self.lock(), job, self.settled_retain);
                }
                Ok(response) if response.status == 409 => {
                    report.fenced += 1;
                    settle(&mut self.lock(), job, self.settled_retain);
                }
                Ok(_) | Err(_) => {
                    // Unreachable or shedding: keep it pending and push
                    // again on the next pump.
                    report.pending += 1;
                }
            }
        }
        report
    }

    /// Registers with the coordinator at `peer`, announcing this
    /// worker's own address as `self_peer`.
    ///
    /// # Errors
    ///
    /// Returns the transport error when the coordinator is unreachable.
    pub fn register(
        &self,
        transport: &dyn Transport,
        peer: &str,
        self_peer: &str,
    ) -> Result<(), NetError> {
        let target = format!(
            "/cluster/register?name={}&peer={}",
            pnp_net::percent_encode(&self.name),
            pnp_net::percent_encode(self_peer)
        );
        transport
            .request(peer, &WireRequest::post(target, Vec::new()))
            .map(|_| ())
    }

    /// Sends one heartbeat. Returns `Ok(false)` when the coordinator no
    /// longer knows this worker (re-register).
    ///
    /// # Errors
    ///
    /// Returns the transport error when the coordinator is unreachable.
    pub fn heartbeat(&self, transport: &dyn Transport, peer: &str) -> Result<bool, NetError> {
        let load = self.supervisor.load_snapshot();
        let target = format!(
            "/cluster/heartbeat?name={}&queue={}&running={}&mem={}&spill={}",
            pnp_net::percent_encode(&self.name),
            load.queue_depth,
            load.running,
            load.memory_bytes,
            load.spill_bytes,
        );
        let response = transport.request(peer, &WireRequest::post(target, Vec::new()))?;
        Ok(response.status == 200)
    }
}

fn execute_accepted(job: u64, local: JobId) -> WireResponse {
    let body = Obj::new()
        .str("job", &format!("g-{job}"))
        .str("local", &local.to_string())
        .build();
    WireResponse::new(202, body.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_ids_parse() {
        assert_eq!(parse_global("g-12"), Some(12));
        assert_eq!(parse_global("j-12"), None);
        assert_eq!(parse_global("g-"), None);
    }

    #[test]
    fn wall_clock_is_sane() {
        // After 2020, before 2100.
        let now = wall_ms();
        assert!(now > 1_577_836_800_000);
        assert!(now < 4_102_444_800_000);
    }
}
