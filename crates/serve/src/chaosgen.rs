//! The chaos system: fault schedules, the harness arenas that run them,
//! the named presets of the curated matrix, and the randomized search
//! with deterministic replay and automatic shrinking.
//!
//! A [`FaultSchedule`] is a small, serializable text file: an arena, a
//! seed, and a list of *exact* injections — storage faults at precise
//! [`SimFs`] operation indices, network faults at precise
//! [`pnp_net::SimNet`] delivery indices, and worker, partition and
//! coordinator events at precise virtual-time steps. Because both fault
//! counters are monotonic for the life of a run (they keep counting
//! across reboots), one schedule file describes one whole multi-crash
//! run, bit for bit. `require <witness>` directives make a schedule
//! non-vacuous: a run that converges without the named behaviour (a
//! migration, a fenced stale result, a hedge, ...) fails its
//! `no-<witness>` oracle.
//!
//! Every scenario is a schedule over one of a handful of arenas — the
//! harness loops themselves never change:
//!
//! * [`preset`] builds the schedule of a named matrix cell
//!   (`checkpoint-crash`, `straggler`, ...) from a seed: the curated
//!   scenarios are data, replayable and shrinkable like any other.
//! * [`generate`] derives a random schedule from a single
//!   [`SplitMix64`] seed and an intensity [`Profile`], its injection
//!   windows sized from the arena's fault-free run.
//! * [`run_generated`] drives a schedule through its arena and checks
//!   the full invariant oracle (see [`ORACLES`]). A failure carries a
//!   stable oracle name — the failure's *identity* — plus the trace of
//!   every fault that actually fired.
//! * On failure, [`shrink_schedule`] runs a ddmin-style shrinker
//!   ([`shrink_with`]) that deletes and coarsens injections while the
//!   same oracle keeps failing, down to a 1-minimal schedule: removing
//!   any single remaining injection makes the run pass or changes the
//!   failure.
//! * The minimized schedule is written to a file that [`replay`] (and
//!   the committed `chaos-corpus/` CI step) re-runs deterministically.
//!
//! [`search`] ties the last three together: a bounded seeded loop of
//! generate → run → shrink, used by the `chaos_search` bench binary's
//! `search` subcommand and the nightly CI job. To prove the detector
//! end to end, a schedule file may also arm a [`BugPlant`] — a known
//! historical bug re-introduced at runtime — and declare the oracle it
//! `expect`s to fail; such a file replays green exactly while the
//! search still catches the planted bug.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pnp_kernel::{
    commit_replace, fnv64, load_latest_snapshot, tmp_sibling, BudgetKind, FailureClass,
    FsFaultKind, FsInjection, JobOutcome, SearchConfig, SimFs, SplitMix64, Vfs, VfsHandle,
    VisitedKind,
};
use pnp_lang::{compile, PropertyResult, VerifyOptions};
use pnp_net::{ClientError, NetFaultKind, NetInjection, SimNet, SubmitClient};

use crate::cluster::ClusterConfig;
use crate::job::{JobConfig, JobRequest, Verdict};
use crate::membership::BreakerConfig;
use crate::netchaos::{
    baseline_fingerprint, cluster_config, make_coordinator, migration_cluster_config, SimWorker,
    SMALL_SPEC, STEP_MS,
};
use crate::queue::{decode_queue, encode_queue, PersistedJob};

/// The specification the storage and queue arenas verify (and the
/// cluster arenas' larger job): three independent counters, ~1000
/// unique states — enough for a dozen checkpoint flushes at
/// [`CHECKPOINT_EVERY`], small enough that one attempt is a few
/// milliseconds in a debug build.
pub const CHAOS_SPEC: &str = r#"
system {
    global total = 0;

    component a {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }
    component b {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }
    component c {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }

    property totals: invariant total <= 3;
}
"#;

/// Checkpoint flush cadence (newly interned states) for chaos runs.
pub const CHECKPOINT_EVERY: usize = 64;

/// A stable fingerprint over everything a caller observes in a result
/// set: names, verdicts, totals, and rendered details. Two runs with the
/// same fingerprint are indistinguishable to a client.
pub fn results_fingerprint(results: &[PropertyResult]) -> u64 {
    let mut rendered = String::new();
    for r in results {
        rendered.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{}|{}\n",
            r.name, r.holds, r.inconclusive, r.approx, r.states, r.steps, r.max_depth, r.detail
        ));
    }
    fnv64(rendered.as_bytes())
}

/// The queue arena's two sample queues, with distinct job sets.
pub(crate) fn sample_queues() -> (Vec<PersistedJob>, Vec<PersistedJob>) {
    let job = |id: u64, source: &str| PersistedJob {
        id,
        attempts: 0,
        request: JobRequest::new(source.to_string(), JobConfig::default()),
    };
    let old = vec![job(1, "system { global x = 0; }"), job(2, CHAOS_SPEC)];
    let new = vec![
        job(2, CHAOS_SPEC),
        job(3, "system { global y = 1; }"),
        job(4, "system { global z = 2; }"),
    ];
    (old, new)
}

/// Every invariant oracle a generated run checks, with the stable name
/// a [`GenFailure`] carries. The name is the failure's identity: the
/// shrinker only keeps deletions that preserve it, and a corpus file's
/// `expect` directive names the oracle it must keep tripping. An unmet
/// `require` adds one more per [`Witness`]: `no-<witness>`.
pub const ORACLES: [(&str, &str); 13] = [
    (
        "fingerprint-divergence",
        "a recovered/adopted result set is not byte-identical to the fault-free baseline",
    ),
    (
        "dishonest-stop",
        "a faulted attempt stopped on a budget other than an honest memory trip",
    ),
    (
        "misclassified-error",
        "a storage fault surfaced as anything but a transient, retryable failure",
    ),
    (
        "no-convergence",
        "the run did not converge within the attempt/step ceiling",
    ),
    (
        "torn-queue",
        "the persisted queue no longer decodes after a crash",
    ),
    (
        "queue-content",
        "the recovered queue is neither the complete old nor the complete new job set",
    ),
    (
        "lost-commit",
        "a commit reported success but the old content came back after a crash",
    ),
    (
        "queue-lost",
        "the queue file vanished entirely (old copy lost)",
    ),
    ("lost-job", "a submitted job has no completion"),
    ("missing-results", "a completion carries no result payload"),
    (
        "completion-count",
        "completions recorded != jobs submitted (exactly-once broken)",
    ),
    (
        "submit-failed",
        "a submission failed fatally through the retrying client",
    ),
    (
        "dishonest-deadline",
        "a job whose end-to-end deadline expired did not end Inconclusive with partial statistics",
    ),
];

/// The setup-error oracle: the harness itself could not run (a spec
/// that does not compile, an injection aimed at a target the arena does
/// not have). Deterministic, so a search surfaces it loudly on
/// iteration one rather than masking it as a pass.
pub const HARNESS_ORACLE: &str = "harness-setup";

/// Finds the value of `all` named `name`, or lists the valid names.
fn parse_name<T: Copy, const N: usize>(
    kind: &str,
    name: &str,
    all: [T; N],
    as_str: fn(T) -> &'static str,
) -> Result<T, String> {
    all.into_iter().find(|v| as_str(*v) == name).ok_or_else(|| {
        format!(
            "unknown {kind} '{name}' (want one of: {})",
            all.map(as_str).join(", ")
        )
    })
}

/// Which harness a schedule drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arena {
    /// The checkpointed verify-crash-resume loop on a seeded [`SimFs`].
    Storage,
    /// The same loop forced out of core: tiny spill budget, visited
    /// partitions and frontier chunks on the faulty simulated disk.
    StorageSpill,
    /// The `queue.pnpq` commit/recover cycle, where the all-or-nothing
    /// promise lives.
    Queue,
    /// The virtual-time cluster: a real coordinator, two simulated
    /// workers with durable disks, and a seeded [`SimNet`] — network,
    /// storage, crash, and timing faults combined in one run. Hedging
    /// is parked out of reach, so migrations stay isolated.
    Cluster,
    /// The cluster with hedging on and worker `w2` grinding at 60 work
    /// ticks per job: its dispatches stall past the hedge threshold.
    ClusterHedge,
    /// The cluster with two admission slots and a five-job burst headed
    /// by a job with a 350 ms end-to-end deadline.
    ClusterBurst,
    /// The cluster with a tight circuit breaker (two failures trip it)
    /// and a six-job mix.
    ClusterBreaker,
}

impl Arena {
    /// Every arena, in matrix order.
    pub const ALL: [Arena; 7] = [
        Arena::Storage,
        Arena::StorageSpill,
        Arena::Queue,
        Arena::Cluster,
        Arena::ClusterHedge,
        Arena::ClusterBurst,
        Arena::ClusterBreaker,
    ];

    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Arena::Storage => "storage",
            Arena::StorageSpill => "storage-spill",
            Arena::Queue => "queue",
            Arena::Cluster => "cluster",
            Arena::ClusterHedge => "cluster-hedge",
            Arena::ClusterBurst => "cluster-burst",
            Arena::ClusterBreaker => "cluster-breaker",
        }
    }

    /// Parses a serialized name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<Arena, String> {
        parse_name("arena", name, Arena::ALL, Arena::as_str)
    }

    /// Whether the arena runs the cluster harness.
    pub fn is_cluster(self) -> bool {
        matches!(
            self,
            Arena::Cluster | Arena::ClusterHedge | Arena::ClusterBurst | Arena::ClusterBreaker
        )
    }

    /// The coordinator configuration of a cluster arena.
    fn cluster_config(self, vfs: VfsHandle) -> ClusterConfig {
        match self {
            Arena::ClusterHedge => cluster_config(vfs),
            Arena::ClusterBurst => ClusterConfig {
                capacity: 2,
                ..cluster_config(vfs)
            },
            Arena::ClusterBreaker => ClusterConfig {
                breaker: BreakerConfig {
                    failures: 2,
                    window_ms: 10_000,
                    cooldown_ms: 2_000,
                },
                ..cluster_config(vfs)
            },
            _ => migration_cluster_config(vfs),
        }
    }

    /// A cluster arena's job mix: `(source, tenant, end-to-end deadline
    /// in ms)`, in submission order.
    fn jobs(self) -> Vec<(&'static str, &'static str, Option<u64>)> {
        match self {
            // The deadline job goes first so it is admitted (and its
            // budget starts) before the burst fills the two slots.
            Arena::ClusterBurst => vec![
                (CHAOS_SPEC, "a", Some(350)),
                (SMALL_SPEC, "b", None),
                (SMALL_SPEC, "a", None),
                (CHAOS_SPEC, "b", None),
                (SMALL_SPEC, "b", None),
            ],
            Arena::ClusterBreaker => vec![
                (CHAOS_SPEC, "a", None),
                (SMALL_SPEC, "b", None),
                (SMALL_SPEC, "a", None),
                (CHAOS_SPEC, "b", None),
                (SMALL_SPEC, "a", None),
                (SMALL_SPEC, "b", None),
            ],
            _ => vec![
                (CHAOS_SPEC, "a", None),
                (SMALL_SPEC, "b", None),
                (CHAOS_SPEC, "a", None),
            ],
        }
    }
}

impl fmt::Display for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How hard [`generate`] leans on a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// 1–3 injections: single-fault scenarios.
    Light,
    /// 3–8 injections: the default search intensity.
    Medium,
    /// 8–16 injections: compound multi-crash runs.
    Heavy,
}

impl Profile {
    /// Every profile.
    pub const ALL: [Profile; 3] = [Profile::Light, Profile::Medium, Profile::Heavy];

    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Light => "light",
            Profile::Medium => "medium",
            Profile::Heavy => "heavy",
        }
    }

    /// Parses a serialized name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<Profile, String> {
        parse_name("profile", name, Profile::ALL, Profile::as_str)
    }

    /// Inclusive injection-count range.
    fn injection_range(self) -> (usize, usize) {
        match self {
            Profile::Light => (1, 3),
            Profile::Medium => (3, 8),
            Profile::Heavy => (8, 16),
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a storage injection or worker event aims at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// The single simulated disk of the storage/queue arenas.
    Main,
    /// Cluster worker `w1` (its disk, or its process for worker events).
    W1,
    /// Cluster worker `w2`.
    W2,
    /// Worker events only: whichever worker holds job `g-1` when the
    /// event fires (no-op while `g-1` is not dispatched).
    Holder,
}

impl Target {
    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Target::Main => "main",
            Target::W1 => "w1",
            Target::W2 => "w2",
            Target::Holder => "holder",
        }
    }

    /// Parses a serialized name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<Target, String> {
        let all = [Target::Main, Target::W1, Target::W2, Target::Holder];
        parse_name("injection target", name, all, Target::as_str)
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A timed worker-process event (cluster arenas only): the timing-fault
/// axis of the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkerEvent {
    /// Kill the worker process: unreachable, memory wiped, disk kept.
    Crash,
    /// Boot it back up (no-op when it is not down).
    Restart,
    /// Cut both directions between the worker and the coordinator; heal
    /// at the first step after the coordinator records a migration, so
    /// the healed worker serves the snapshot fetch and its late result
    /// meets the epoch fence.
    Partition,
}

impl WorkerEvent {
    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerEvent::Crash => "crash",
            WorkerEvent::Restart => "restart",
            WorkerEvent::Partition => "partition",
        }
    }
}

impl fmt::Display for WorkerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One exact injection of a [`FaultSchedule`]. Serialized one per line:
///
/// ```text
/// fs main crash @117
/// net drop-response @12
/// worker w1 crash @5
/// worker holder partition @3
/// coord restart @3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// A storage fault on the `at_op`-th [`Vfs`] operation of the
    /// target's [`SimFs`] (1-based, monotonic across reboots).
    Fs {
        /// Whose disk.
        target: Target,
        /// What fires.
        kind: FsFaultKind,
        /// The 1-based operation index.
        at_op: u64,
    },
    /// A network fault on the `at_delivery`-th exchange attempted on
    /// the run's [`SimNet`] (1-based, any endpoint).
    Net {
        /// What fires.
        kind: NetFaultKind,
        /// The 1-based delivery index.
        at_delivery: u64,
    },
    /// A worker-process event at the `at_step`-th virtual harness step.
    Worker {
        /// Which worker.
        target: Target,
        /// Crash, restart, or partition.
        event: WorkerEvent,
        /// The 1-based virtual step.
        at_step: u64,
    },
    /// Drain the coordinator (persisting its open jobs) and replace it
    /// with a fresh one over the same disk at the `at_step`-th step.
    CoordRestart {
        /// The 1-based virtual step.
        at_step: u64,
    },
}

impl Injection {
    /// The injection's index (op, delivery, or step) — the value the
    /// shrinker coarsens.
    pub fn at(self) -> u64 {
        match self {
            Injection::Fs { at_op, .. } => at_op,
            Injection::Net { at_delivery, .. } => at_delivery,
            Injection::Worker { at_step, .. } | Injection::CoordRestart { at_step } => at_step,
        }
    }

    /// The same injection re-aimed at index `at`.
    pub fn with_at(self, at: u64) -> Injection {
        match self {
            Injection::Fs { target, kind, .. } => Injection::Fs {
                target,
                kind,
                at_op: at,
            },
            Injection::Net { kind, .. } => Injection::Net {
                kind,
                at_delivery: at,
            },
            Injection::Worker { target, event, .. } => Injection::Worker {
                target,
                event,
                at_step: at,
            },
            Injection::CoordRestart { .. } => Injection::CoordRestart { at_step: at },
        }
    }

    /// Canonical ordering key, so generated and shrunk schedules encode
    /// byte-identically regardless of construction order.
    fn sort_key(self) -> (u8, u64, u8, u8) {
        match self {
            Injection::Fs {
                target,
                kind,
                at_op,
            } => (0, at_op, target as u8, kind as u8),
            Injection::Net { kind, at_delivery } => (1, at_delivery, 0, kind as u8),
            Injection::Worker {
                target,
                event,
                at_step,
            } => (2, at_step, target as u8, event as u8),
            Injection::CoordRestart { at_step } => (3, at_step, 0, 0),
        }
    }

    /// Parses one serialized injection line (already split on
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed part.
    fn parse_tokens(tokens: &[&str]) -> Result<Injection, String> {
        let at = |token: &str| -> Result<u64, String> {
            let digits = token
                .strip_prefix('@')
                .ok_or_else(|| format!("expected an '@index', got '{token}'"))?;
            let value: u64 = digits
                .parse()
                .map_err(|_| format!("bad index '{token}' (want '@N')"))?;
            if value == 0 {
                return Err("indices are 1-based: '@0' never fires".to_string());
            }
            Ok(value)
        };
        match tokens {
            ["fs", target, kind, index] => Ok(Injection::Fs {
                target: Target::parse(target)?,
                kind: FsFaultKind::parse(kind)?,
                at_op: at(index)?,
            }),
            ["net", kind, index] => Ok(Injection::Net {
                kind: NetFaultKind::parse(kind)?,
                at_delivery: at(index)?,
            }),
            ["worker", target, event, index] => Ok(Injection::Worker {
                target: Target::parse(target)?,
                event: parse_name(
                    "worker event",
                    event,
                    [
                        WorkerEvent::Crash,
                        WorkerEvent::Restart,
                        WorkerEvent::Partition,
                    ],
                    WorkerEvent::as_str,
                )?,
                at_step: at(index)?,
            }),
            ["coord", "restart", index] => Ok(Injection::CoordRestart {
                at_step: at(index)?,
            }),
            _ => Err(format!(
                "unrecognized injection '{}' (want 'fs <target> <kind> @N', \
                 'net <kind> @N', 'worker <target> crash|restart|partition @N', \
                 or 'coord restart @N')",
                tokens.join(" ")
            )),
        }
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Injection::Fs {
                target,
                kind,
                at_op,
            } => write!(f, "fs {target} {kind} @{at_op}"),
            Injection::Net { kind, at_delivery } => write!(f, "net {kind} @{at_delivery}"),
            Injection::Worker {
                target,
                event,
                at_step,
            } => write!(f, "worker {target} {event} @{at_step}"),
            Injection::CoordRestart { at_step } => write!(f, "coord restart @{at_step}"),
        }
    }
}

/// A behaviour a schedule can `require` of its run, beyond the
/// invariants every run must keep. An unmet witness fails the run with
/// the oracle `no-<witness>`, so a schedule cannot pass while testing
/// nothing. Witnesses are checked in declaration order — causes before
/// their consequences — so a run reports the first link that broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Witness {
    /// At least one injected fault fired.
    Fault,
    /// A resumed attempt loaded a disk-backed (`DiskExact`) snapshot.
    DiskResume,
    /// The coordinator migrated a job.
    Migration,
    /// A restarted coordinator restored open jobs.
    Restore,
    /// The coordinator hedged a stalled dispatch.
    Hedge,
    /// The coordinator shed a submission.
    Shed,
    /// A worker's circuit breaker tripped.
    BreakerTrip,
    /// A migration shipped a checkpoint snapshot.
    SnapshotShip,
    /// The coordinator fenced a stale result and a worker discarded it.
    Fence,
}

impl Witness {
    /// Every witness.
    pub const ALL: [Witness; 9] = [
        Witness::Fault,
        Witness::DiskResume,
        Witness::Migration,
        Witness::Restore,
        Witness::Hedge,
        Witness::Shed,
        Witness::BreakerTrip,
        Witness::SnapshotShip,
        Witness::Fence,
    ];

    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        &self.oracle()[3..]
    }

    /// The oracle an unmet `require` of this witness fails with.
    pub fn oracle(self) -> &'static str {
        match self {
            Witness::Fault => "no-fault",
            Witness::DiskResume => "no-disk-resume",
            Witness::Migration => "no-migration",
            Witness::Restore => "no-restore",
            Witness::Hedge => "no-hedge",
            Witness::Shed => "no-shed",
            Witness::BreakerTrip => "no-breaker-trip",
            Witness::SnapshotShip => "no-snapshot-ship",
            Witness::Fence => "no-fence",
        }
    }

    /// Parses a serialized name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<Witness, String> {
        parse_name("witness", name, Witness::ALL, Witness::as_str)
    }

    /// Whether `arena` can exhibit this witness at all.
    fn applies_to(self, arena: Arena) -> bool {
        match self {
            Witness::Fault => true,
            Witness::DiskResume => matches!(arena, Arena::Storage | Arena::StorageSpill),
            _ => arena.is_cluster(),
        }
    }

    /// Whether a converged run exhibited this witness.
    fn met(self, outcome: &GenOutcome) -> bool {
        let e = &outcome.evidence;
        match self {
            Witness::Fault => !outcome.fired.is_empty(),
            Witness::DiskResume => e.disk_resumes > 0,
            Witness::Migration => e.migrations > 0,
            Witness::Restore => e.restored > 0,
            Witness::Hedge => e.hedges > 0,
            Witness::Shed => e.shed > 0,
            Witness::BreakerTrip => e.breaker_trips > 0,
            Witness::SnapshotShip => e.snapshots_shipped > 0,
            Witness::Fence => e.fenced > 0 && e.discards > 0,
        }
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A known historical bug a schedule can re-introduce at runtime, to
/// prove (in tests, CI, and the committed corpus) that the search and
/// its oracles still catch it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BugPlant {
    /// No plant: the shipped code runs as-is.
    #[default]
    None,
    /// The pre-PR-5 queue-commit bug: write the `.tmp` sibling and
    /// rename it over `queue.pnpq` with *no* `sync_file`/`sync_dir`. A
    /// crash after the "successful" commit can then expose a torn or
    /// stale queue — exactly what [`commit_replace`] exists to prevent.
    UnsyncedQueueCommit,
}

impl BugPlant {
    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            BugPlant::None => "none",
            BugPlant::UnsyncedQueueCommit => "unsynced-queue-commit",
        }
    }

    /// Parses a serialized name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<BugPlant, String> {
        let all = [BugPlant::None, BugPlant::UnsyncedQueueCommit];
        parse_name("bug plant", name, all, BugPlant::as_str)
    }
}

impl fmt::Display for BugPlant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A complete, replayable fault schedule: everything [`run_generated`]
/// needs to reproduce a run bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Which harness to drive.
    pub arena: Arena,
    /// The seed for every RNG the run touches (SimFs tear offsets,
    /// SimNet streams, worker disks).
    pub seed: u64,
    /// The intensity the schedule was generated at (informational; the
    /// injections below are what replays).
    pub profile: Option<Profile>,
    /// A re-introduced historical bug, for detector self-tests.
    pub plant: BugPlant,
    /// When set, replay *expects* the run to fail with this oracle:
    /// the file guards a detection, and a pass means the detector
    /// regressed.
    pub expect: Option<String>,
    /// Witnesses the run must exhibit, canonically ordered: an unmet
    /// one fails with its `no-<witness>` oracle.
    pub require: Vec<Witness>,
    /// The exact injections, canonically ordered.
    pub injections: Vec<Injection>,
}

impl FaultSchedule {
    /// A schedule of `injections` (canonically ordered) with no profile,
    /// plant, expectation, or requirement.
    fn plain(arena: Arena, seed: u64, injections: Vec<Injection>) -> FaultSchedule {
        let mut schedule = FaultSchedule {
            arena,
            seed,
            profile: None,
            plant: BugPlant::None,
            expect: None,
            require: Vec::new(),
            injections,
        };
        schedule.canonicalize();
        schedule
    }

    /// Serializes the schedule to its line-based text form.
    pub fn encode(&self) -> String {
        let mut out = String::from("# pnp fault schedule v1\n");
        out.push_str(&format!("arena {}\n", self.arena));
        out.push_str(&format!("seed {}\n", self.seed));
        if let Some(profile) = self.profile {
            out.push_str(&format!("profile {profile}\n"));
        }
        if self.plant != BugPlant::None {
            out.push_str(&format!("plant {}\n", self.plant));
        }
        if let Some(oracle) = &self.expect {
            out.push_str(&format!("expect {oracle}\n"));
        }
        for witness in &self.require {
            out.push_str(&format!("require {witness}\n"));
        }
        for injection in &self.injections {
            out.push_str(&format!("{injection}\n"));
        }
        out
    }

    /// Parses the text form produced by [`FaultSchedule::encode`].
    /// Blank lines and `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (with its line number) or a
    /// missing required directive (`arena`, `seed`).
    pub fn parse(text: &str) -> Result<FaultSchedule, String> {
        let mut arena = None;
        let mut seed = None;
        let mut profile = None;
        let mut plant = BugPlant::None;
        let mut expect = None;
        let mut require = Vec::new();
        let mut injections = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at_line = |e: String| format!("line {}: {e}", index + 1);
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.as_slice() {
                ["arena", name] => arena = Some(Arena::parse(name).map_err(at_line)?),
                ["seed", value] => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| at_line(format!("bad seed '{value}'")))?,
                    )
                }
                ["profile", name] => profile = Some(Profile::parse(name).map_err(at_line)?),
                ["plant", name] => plant = BugPlant::parse(name).map_err(at_line)?,
                ["expect", oracle] => {
                    let mut known = ORACLES.map(|(name, _)| name).to_vec();
                    known.extend(Witness::ALL.map(Witness::oracle));
                    if !known.contains(oracle) {
                        return Err(at_line(format!(
                            "unknown oracle '{oracle}' (want one of: {})",
                            known.join(", ")
                        )));
                    }
                    expect = Some((*oracle).to_string());
                }
                ["require", name] => require.push(Witness::parse(name).map_err(at_line)?),
                _ => injections.push(Injection::parse_tokens(&tokens).map_err(at_line)?),
            }
        }
        let mut schedule = FaultSchedule {
            arena: arena.ok_or("missing 'arena <name>' directive")?,
            seed: seed.ok_or("missing 'seed <n>' directive")?,
            profile,
            plant,
            expect,
            require,
            injections,
        };
        schedule.canonicalize();
        Ok(schedule)
    }

    /// Sorts injections and witnesses into canonical order and drops
    /// exact duplicates, so equal schedules encode byte-identically.
    fn canonicalize(&mut self) {
        self.injections.sort_by_key(|i| i.sort_key());
        self.injections.dedup();
        self.require.sort();
        self.require.dedup();
    }

    /// The storage injections aimed at `target`, in [`SimFs`] form.
    fn fs_injections(&self, target: Target) -> Vec<FsInjection> {
        self.injections
            .iter()
            .filter_map(|i| match i {
                Injection::Fs {
                    target: t,
                    kind,
                    at_op,
                } if *t == target => Some(FsInjection {
                    at_op: *at_op,
                    kind: *kind,
                }),
                _ => None,
            })
            .collect()
    }

    /// The network injections, in [`SimNet`] form.
    fn net_injections(&self) -> Vec<NetInjection> {
        self.injections
            .iter()
            .filter_map(|i| match i {
                Injection::Net { kind, at_delivery } => Some(NetInjection {
                    at_delivery: *at_delivery,
                    kind: *kind,
                }),
                _ => None,
            })
            .collect()
    }

    /// The timed events (worker and coordinator), in canonical order.
    fn timed_events(&self) -> Vec<Injection> {
        self.injections
            .iter()
            .copied()
            .filter(|i| matches!(i, Injection::Worker { .. } | Injection::CoordRestart { .. }))
            .collect()
    }
}

/// What a converged (invariant-clean) generated run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenOutcome {
    /// The arena that ran.
    pub arena: Arena,
    /// The seed it ran under.
    pub seed: u64,
    /// Attempts (storage/queue) or virtual steps (cluster) until
    /// convergence.
    pub attempts: u32,
    /// Simulated machine reboots performed.
    pub reboots: u32,
    /// Every fault that actually fired, in firing order per source —
    /// the injected-fault trace a report prints and the determinism
    /// regression compares.
    pub fired: Vec<String>,
    /// The counters the run's witnesses are judged on.
    pub evidence: Evidence,
    /// One line of context for the report table.
    pub detail: String,
}

/// What a run did beyond keeping its invariants: the counters its
/// [`Witness`]es are judged on. Cluster counters are the run's last
/// coordinator's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evidence {
    /// Jobs submitted (and completed) on a cluster arena.
    pub jobs: u64,
    /// Resumed attempts that loaded a disk-backed (`DiskExact`)
    /// snapshot.
    pub disk_resumes: u64,
    /// Jobs the coordinator migrated.
    pub migrations: u64,
    /// Stale uploads the coordinator fenced.
    pub fenced: u64,
    /// Fenced results the workers saw rejected and discarded.
    pub discards: u64,
    /// Migrations that shipped a checkpoint snapshot.
    pub snapshots_shipped: u64,
    /// Jobs a restarted coordinator restored.
    pub restored: u64,
    /// Speculative second attempts launched.
    pub hedges: u64,
    /// Submissions shed with a `Retry-After` hint.
    pub shed: u64,
    /// Jobs whose end-to-end deadline expired.
    pub expired: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
}

impl fmt::Display for Evidence {
    /// The nonzero counters as `name=value` pairs (`-` when all are 0).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counters = [
            ("jobs", self.jobs),
            ("disk-resumes", self.disk_resumes),
            ("migrations", self.migrations),
            ("fenced", self.fenced),
            ("discards", self.discards),
            ("snapshots", self.snapshots_shipped),
            ("restored", self.restored),
            ("hedges", self.hedges),
            ("shed", self.shed),
            ("expired", self.expired),
            ("trips", self.breaker_trips),
        ];
        let shown: Vec<String> = counters
            .iter()
            .filter(|(_, value)| *value > 0)
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        if shown.is_empty() {
            f.write_str("-")
        } else {
            f.write_str(&shown.join(" "))
        }
    }
}

/// One violated invariant: the stable oracle name (the failure's
/// identity for shrinking and `expect` directives), the human message,
/// and the trace of faults that fired on the failing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenFailure {
    /// Which oracle tripped (a name from [`ORACLES`] or
    /// [`HARNESS_ORACLE`]).
    pub oracle: &'static str,
    /// What happened, with seeds and fingerprints.
    pub message: String,
    /// Every fault that actually fired before the failure.
    pub fired: Vec<String>,
}

impl fmt::Display for GenFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.message)?;
        for fault in &self.fired {
            write!(f, "\n  fired: {fault}")?;
        }
        Ok(())
    }
}

/// The one-line repro command for a failing [`preset`] matrix cell.
pub fn matrix_repro(schedule: &str, seed: u64) -> String {
    format!("cargo run --release -p pnp-bench --bin chaos_search -- matrix --schedule {schedule} --seed {seed}")
}

/// The one-line repro command for a schedule file.
pub fn replay_repro(path: &str) -> String {
    format!("cargo run --release -p pnp-bench --bin chaos_search -- replay {path}")
}

/// The named cells of the curated chaos matrix, in matrix order. Each
/// is a [`preset`]: a schedule built from a seed, run on an unchanged
/// arena.
pub const PRESETS: [&str; 12] = [
    "checkpoint-crash",
    "drain-crash",
    "enospc",
    "spill-crash",
    "enospc-during-merge",
    "resume-after-spill",
    "worker_crash_mid_job",
    "partition_during_result",
    "coordinator_restart",
    "straggler",
    "overload_burst",
    "flapping_worker",
];

/// Builds the schedule of the named matrix cell for `seed`. Every
/// preset requires [`Witness::Fault`], plus the witnesses its scenario
/// exists to provoke where it has any, so no cell can pass while
/// testing nothing:
///
/// | preset | arena | injections | requires |
/// |---|---|---|---|
/// | `checkpoint-crash` | storage | up to 25 crashes, 4–51 ops apart | |
/// | `drain-crash` | queue | a crash inside the replacement commit or its read-back | |
/// | `enospc` | storage | 10 ENOSPC/EIO faults, 1–6 ops apart | |
/// | `spill-crash` | storage-spill | up to 25 crashes, 4–195 ops apart | |
/// | `enospc-during-merge` | storage-spill | 10 ENOSPC/EIO faults, 1–10 ops apart | |
/// | `resume-after-spill` | storage-spill | a crash in the second half of the run | disk-resume |
/// | `worker_crash_mid_job` | cluster | lossy net; g-1's holder crashes @3, restarts @12 | migration |
/// | `partition_during_result` | cluster | duplicating net; g-1's holder partitioned @3 | snapshot-ship, fence |
/// | `coordinator_restart` | cluster | lossy net; coordinator restarts @3 | restore, fence |
/// | `straggler` | cluster-hedge | duplicating net | hedge, fence |
/// | `overload_burst` | cluster-burst | lossy net | shed |
/// | `flapping_worker` | cluster-breaker | lossy net; w2 crashes @1, @18, restarts @10, @26 | breaker-trip |
///
/// "Lossy net" is background network noise (see [`net_noise`]): per
/// delivery, a dropped request (3%), dropped response (3%), duplicate
/// (6%), or reset (2%); a "duplicating net" keeps only the duplicates.
///
/// # Errors
///
/// Returns a message listing every preset name when `name` is not one.
pub fn preset(name: &str, seed: u64) -> Result<FaultSchedule, String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x7072_6573_6574_5f31);
    let rng = &mut rng;
    let crash = |_: &mut SplitMix64| FsFaultKind::Crash;
    let lossy = [30, 30, 60, 20];
    let duplicates = [0, 0, 60, 0];
    let worker = |target, event, at_step| Injection::Worker {
        target,
        event,
        at_step,
    };
    let (arena, witnesses, injections): (Arena, &[Witness], Vec<Injection>) = match name {
        "checkpoint-crash" => (Arena::Storage, &[], fs_train(rng, 25, 4, 48, crash)),
        "drain-crash" => {
            // The last five ops of the fault-free run are the
            // replacement commit (write tmp, fsync, rename, fsync dir)
            // and the read-back after it returned.
            let ops = footprint(Arena::Queue).ops[0];
            let at_op = ops.saturating_sub(rng.gen_index(5) as u64).max(1);
            let injection = Injection::Fs {
                target: Target::Main,
                kind: FsFaultKind::Crash,
                at_op,
            };
            (Arena::Queue, &[], vec![injection])
        }
        "enospc" => (
            Arena::Storage,
            &[],
            fs_train(rng, 10, 1, 6, |rng| full_disk_or_eio(rng, 250, 120)),
        ),
        "spill-crash" => (Arena::StorageSpill, &[], fs_train(rng, 25, 4, 192, crash)),
        "enospc-during-merge" => (
            Arena::StorageSpill,
            &[],
            fs_train(rng, 10, 1, 10, |rng| full_disk_or_eio(rng, 120, 60)),
        ),
        "resume-after-spill" => {
            // The tiny budget spills within the first checkpoint
            // interval, so by the second half of the fault-free run the
            // newest durable checkpoint is disk-backed: the next
            // attempt resumes a DiskExact snapshot.
            let ops = footprint(Arena::StorageSpill).ops[0];
            let injection = Injection::Fs {
                target: Target::Main,
                kind: FsFaultKind::Crash,
                at_op: ops / 2 + 1 + rng.gen_index(window(ops / 2)) as u64,
            };
            (Arena::StorageSpill, &[Witness::DiskResume], vec![injection])
        }
        "worker_crash_mid_job" => {
            // Restart before the failure detector gives up on the
            // worker: the coordinator's request-deadline poll finds a
            // daemon that lost the job and must migrate it.
            let mut injections = net_noise(rng, Arena::Cluster, lossy);
            injections.push(worker(Target::Holder, WorkerEvent::Crash, 3));
            injections.push(worker(Target::Holder, WorkerEvent::Restart, 12));
            (Arena::Cluster, &[Witness::Migration], injections)
        }
        "partition_during_result" => {
            // The partition is the fault: a dropped dispatch or snapshot
            // fetch would legitimately leave nothing to ship, so only
            // duplicated deliveries ride along.
            let mut injections = net_noise(rng, Arena::Cluster, duplicates);
            injections.push(worker(Target::Holder, WorkerEvent::Partition, 3));
            (
                Arena::Cluster,
                &[Witness::SnapshotShip, Witness::Fence],
                injections,
            )
        }
        "coordinator_restart" => {
            let mut injections = net_noise(rng, Arena::Cluster, lossy);
            injections.push(Injection::CoordRestart { at_step: 3 });
            (
                Arena::Cluster,
                &[Witness::Restore, Witness::Fence],
                injections,
            )
        }
        // The straggler's fault model is slowness, not loss: keep
        // delivery reliable so the hedge race is deterministic, but let
        // duplicated deliveries keep probing idempotency.
        "straggler" => (
            Arena::ClusterHedge,
            &[Witness::Hedge, Witness::Fence],
            net_noise(rng, Arena::ClusterHedge, duplicates),
        ),
        "overload_burst" => (
            Arena::ClusterBurst,
            &[Witness::Shed],
            net_noise(rng, Arena::ClusterBurst, lossy),
        ),
        "flapping_worker" => {
            // Die, rejoin, die again — each rejoin must find the
            // breaker's failure history intact, not laundered.
            let mut injections = net_noise(rng, Arena::ClusterBreaker, lossy);
            for (event, at_step) in [
                (WorkerEvent::Crash, 1),
                (WorkerEvent::Restart, 10),
                (WorkerEvent::Crash, 18),
                (WorkerEvent::Restart, 26),
            ] {
                injections.push(worker(Target::W2, event, at_step));
            }
            (Arena::ClusterBreaker, &[Witness::BreakerTrip], injections)
        }
        other => {
            return Err(format!(
                "unknown chaos schedule '{other}' (want one of: {})",
                PRESETS.join(", ")
            ))
        }
    };
    let mut schedule = FaultSchedule::plain(arena, seed, injections);
    schedule.require = [&[Witness::Fault], witnesses].concat();
    schedule.canonicalize();
    Ok(schedule)
}

/// `count` storage faults on the main disk, each `lo + rand(span)` ops
/// after the previous one.
fn fs_train(
    rng: &mut SplitMix64,
    count: usize,
    lo: u64,
    span: usize,
    kind: impl Fn(&mut SplitMix64) -> FsFaultKind,
) -> Vec<Injection> {
    let mut at_op = 0;
    (0..count)
        .map(|_| {
            at_op += lo + rng.gen_index(span) as u64;
            Injection::Fs {
                target: Target::Main,
                kind: kind(rng),
                at_op,
            }
        })
        .collect()
}

/// ENOSPC or EIO, weighted `enospc : eio`.
fn full_disk_or_eio(rng: &mut SplitMix64, enospc: usize, eio: usize) -> FsFaultKind {
    if rng.gen_index(enospc + eio) < enospc {
        FsFaultKind::Enospc
    } else {
        FsFaultKind::Eio
    }
}

/// Background network faults: one at a seeded delivery of `arena`'s
/// fault-free run (so at least one fires), then each delivery of three
/// times that window — past the end of every preset run — independently
/// draws a dropped request, dropped response, duplicate, or reset with
/// the given per-mille odds.
fn net_noise(rng: &mut SplitMix64, arena: Arena, per_mille: [usize; 4]) -> Vec<Injection> {
    let kinds = [
        NetFaultKind::DropRequest,
        NetFaultKind::DropResponse,
        NetFaultKind::Duplicate,
        NetFaultKind::Reset,
    ];
    let kind_of = |mut draw: usize| {
        for (kind, odds) in kinds.into_iter().zip(per_mille) {
            if draw < odds {
                return Some(kind);
            }
            draw -= odds;
        }
        None
    };
    let deliveries = window(footprint(arena).deliveries);
    let first = Injection::Net {
        kind: kind_of(rng.gen_index(per_mille.iter().sum())).unwrap_or(NetFaultKind::Duplicate),
        at_delivery: 1 + rng.gen_index(deliveries) as u64,
    };
    let mut injections = vec![first];
    injections.extend((1..=3 * deliveries as u64).filter_map(|at_delivery| {
        let kind = kind_of(rng.gen_index(1000))?;
        Some(Injection::Net { kind, at_delivery })
    }));
    injections
}

/// What an arena's fault-free run consumed: the windows [`generate`]
/// and [`preset`] aim injections into.
#[derive(Debug, Clone, Copy, Default)]
struct Footprint {
    /// Operations on each disk: main, w1, w2.
    ops: [u64; 3],
    /// Network exchanges attempted.
    deliveries: u64,
    /// Virtual steps.
    steps: u64,
}

/// A `gen_index` bound covering an `n`-long window (at least 1).
fn window(n: u64) -> usize {
    n.max(1) as usize
}

/// The fault-free footprint of `arena` (seed 0), measured once per
/// process.
fn footprint(arena: Arena) -> Footprint {
    static CACHE: Mutex<Vec<(Arena, Footprint)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, fp)) = cache.iter().find(|(a, _)| *a == arena) {
        return *fp;
    }
    let clean = FaultSchedule::plain(arena, 0, Vec::new());
    let fp = run_arena(&clean).map_or_else(|_| Footprint::default(), |(_, fp)| fp);
    cache.push((arena, fp));
    fp
}

/// Derives a schedule from a single seed and an intensity profile. The
/// same `(arena, seed, profile)` always yields the same schedule, byte
/// for byte. Injections land inside the windows of the arena's
/// fault-free run (its ops per disk, deliveries, and steps), so nearly
/// every one fires.
pub fn generate(arena: Arena, seed: u64, profile: Profile) -> FaultSchedule {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x6368_6765_6e5f_7631);
    let (lo, hi) = profile.injection_range();
    let count = lo + rng.gen_index(hi - lo + 1);
    let fs_kind = |rng: &mut SplitMix64| match rng.gen_index(4) {
        0 | 1 => FsFaultKind::Crash,
        2 => FsFaultKind::Enospc,
        _ => FsFaultKind::Eio,
    };
    let fp = match arena {
        // A queue roundtrip is ~a dozen ops including retries; its
        // fixed window keeps the planted-bug search streams stable.
        Arena::Queue => Footprint::default(),
        _ => footprint(arena),
    };
    let pick_worker = |rng: &mut SplitMix64| {
        if rng.gen_index(2) == 0 {
            Target::W1
        } else {
            Target::W2
        }
    };
    let mut injections = Vec::new();
    for _ in 0..count {
        match arena {
            Arena::Storage | Arena::StorageSpill => injections.push(Injection::Fs {
                target: Target::Main,
                kind: fs_kind(&mut rng),
                at_op: 1 + rng.gen_index(window(fp.ops[0])) as u64,
            }),
            Arena::Queue => injections.push(Injection::Fs {
                target: Target::Main,
                kind: fs_kind(&mut rng),
                at_op: 1 + rng.gen_index(12) as u64,
            }),
            _ => match rng.gen_index(10) {
                0..=4 => injections.push(Injection::Net {
                    kind: match rng.gen_index(4) {
                        0 => NetFaultKind::DropRequest,
                        1 => NetFaultKind::DropResponse,
                        2 => NetFaultKind::Duplicate,
                        _ => NetFaultKind::Reset,
                    },
                    at_delivery: 1 + rng.gen_index(window(fp.deliveries)) as u64,
                }),
                5 | 6 => {
                    let target = pick_worker(&mut rng);
                    let disk = if target == Target::W1 { 1 } else { 2 };
                    injections.push(Injection::Fs {
                        target,
                        kind: fs_kind(&mut rng),
                        at_op: 1 + rng.gen_index(window(fp.ops[disk])) as u64,
                    });
                }
                7 | 8 => {
                    // A crash is only interesting if the worker comes
                    // back: pair it with a restart a few steps later.
                    let target = pick_worker(&mut rng);
                    let crash_at = 1 + rng.gen_index(window(fp.steps)) as u64;
                    injections.push(Injection::Worker {
                        target,
                        event: WorkerEvent::Crash,
                        at_step: crash_at,
                    });
                    injections.push(Injection::Worker {
                        target,
                        event: WorkerEvent::Restart,
                        at_step: crash_at + 3 + rng.gen_index(12) as u64,
                    });
                }
                _ => injections.push(Injection::Worker {
                    target: pick_worker(&mut rng),
                    event: WorkerEvent::Restart,
                    at_step: 1 + rng.gen_index(window(fp.steps)) as u64,
                }),
            },
        }
    }
    FaultSchedule {
        profile: Some(profile),
        ..FaultSchedule::plain(arena, seed, injections)
    }
}

/// Runs one schedule through its arena, checks the invariant oracle,
/// then checks every `require`d witness.
///
/// # Errors
///
/// Returns the first violated oracle as a [`GenFailure`] (including
/// [`HARNESS_ORACLE`] for schedules the arena cannot run).
pub fn run_generated(schedule: &FaultSchedule) -> Result<GenOutcome, GenFailure> {
    let (outcome, _) = run_arena(schedule)?;
    if let Some(witness) = schedule.require.iter().find(|w| !w.met(&outcome)) {
        return Err(GenFailure {
            oracle: witness.oracle(),
            message: format!(
                "{} seed {}: required witness '{witness}' not met ({} faults fired; {})",
                schedule.arena,
                schedule.seed,
                outcome.fired.len(),
                outcome.evidence
            ),
            fired: outcome.fired,
        });
    }
    Ok(outcome)
}

/// Drives a schedule through its arena's one harness loop.
fn run_arena(schedule: &FaultSchedule) -> Result<(GenOutcome, Footprint), GenFailure> {
    validate(schedule)?;
    match schedule.arena {
        Arena::Storage => run_storage(schedule, false),
        Arena::StorageSpill => run_storage(schedule, true),
        Arena::Queue => run_queue(schedule),
        _ => run_cluster(schedule),
    }
}

/// Rejects injections the arena has no seam for and witnesses it can
/// never exhibit, so a corpus file cannot silently test nothing.
fn validate(schedule: &FaultSchedule) -> Result<(), GenFailure> {
    let arena = schedule.arena;
    for injection in &schedule.injections {
        let problem = match (arena.is_cluster(), injection) {
            (true, Injection::Fs { target, .. }) if !matches!(target, Target::W1 | Target::W2) => {
                Some(format!("the {arena} arena's disks are w1 and w2"))
            }
            (true, Injection::Worker { target, .. }) if *target == Target::Main => {
                Some("'main' is not a worker".to_string())
            }
            (false, Injection::Fs { target, .. }) if *target != Target::Main => {
                Some(format!("the {arena} arena only has the 'main' disk"))
            }
            (false, Injection::Net { .. } | Injection::Worker { .. })
            | (false, Injection::CoordRestart { .. }) => Some(format!(
                "the {arena} arena has no network, workers, or coordinator"
            )),
            _ => None,
        };
        if let Some(problem) = problem {
            return Err(harness(format!("'{injection}': {problem}")));
        }
    }
    if let Some(witness) = schedule.require.iter().find(|w| !w.applies_to(arena)) {
        return Err(harness(format!(
            "require {witness}: the {arena} arena can never exhibit it"
        )));
    }
    if schedule.plant == BugPlant::UnsyncedQueueCommit && arena != Arena::Queue {
        return Err(harness(format!(
            "plant {} only applies to the queue arena",
            schedule.plant
        )));
    }
    Ok(())
}

fn harness(message: String) -> GenFailure {
    GenFailure {
        oracle: HARNESS_ORACLE,
        message,
        fired: Vec::new(),
    }
}

/// Attempt ceiling for the storage arenas — generous against the 25
/// crashes of the crash presets and the at most 16 injected faults of a
/// heavy profile.
const MAX_GEN_ATTEMPTS: u32 = 80;

/// Step ceiling for the cluster arenas (virtual time:
/// `MAX_GEN_STEPS * STEP_MS` ms): room for several stacked crashes and
/// detector timeouts, and for a straggler's late result to settle.
const MAX_GEN_STEPS: u64 = 900;

/// The faults that fired on a simulated disk, for a run's trace.
fn fs_fired(fs: &SimFs) -> Vec<String> {
    fs.fault_trace().iter().map(|r| r.to_string()).collect()
}

/// Reboots a crashed simulated disk; returns the reboots performed (0
/// or 1).
fn reboot_if_crashed(fs: &SimFs) -> u32 {
    if fs.crashed() {
        fs.reboot();
        1
    } else {
        0
    }
}

/// Creates the state directory, rebooting through injected crashes;
/// returns the reboots it took.
fn create_state_dir(fs: &SimFs, dir: &Path) -> u32 {
    let mut reboots = 0;
    for _ in 0..8 {
        if fs.create_dir_all(dir).is_ok() {
            break;
        }
        reboots += reboot_if_crashed(fs);
    }
    reboots
}

/// The storage arenas: the checkpointed verify-crash-resume loop on a
/// seeded [`SimFs`], rebooting after every simulated crash, resuming
/// from the newest valid checkpoint generation, and comparing the
/// converged results against an uninterrupted baseline. With `spill`, a
/// tiny memory budget forces the whole search out of core onto the
/// faulty disk.
fn run_storage(
    schedule: &FaultSchedule,
    spill: bool,
) -> Result<(GenOutcome, Footprint), GenFailure> {
    let (arena, seed) = (schedule.arena, schedule.seed);
    let spec =
        compile(CHAOS_SPEC).map_err(|e| harness(format!("chaos spec does not compile: {e}")))?;
    let baseline = spec
        .verify_all()
        .map_err(|e| harness(format!("baseline run failed: {e}")))?;
    let baseline_fp = results_fingerprint(&baseline);

    let fs = Arc::new(SimFs::new(seed));
    fs.set_injections(schedule.fs_injections(Target::Main));
    let fail = |oracle, message: String| GenFailure {
        oracle,
        message: format!("{arena} seed {seed}: {message}"),
        fired: fs_fired(&fs),
    };
    let state = PathBuf::from("/state");
    let mut reboots = create_state_dir(&fs, &state);
    let vfs: VfsHandle = fs.clone();
    let base = state.join("chaos.pnpsnap");
    let mut evidence = Evidence::default();
    for attempts in 1..=MAX_GEN_ATTEMPTS {
        // Recovery: newest generation that decodes and matches the
        // program; a damaged or missing checkpoint restarts from scratch.
        let resume = load_latest_snapshot(&vfs, &base)
            .ok()
            .flatten()
            .map(|(_, snapshot)| snapshot)
            .filter(|s| s.matches_program(spec.system().program()));
        if resume
            .as_ref()
            .is_some_and(|s| s.visited_kind() == VisitedKind::DiskExact)
        {
            evidence.disk_resumes += 1;
        }
        let options = VerifyOptions {
            checkpoint: Some((base.clone(), CHECKPOINT_EVERY)),
            resume,
            vfs: Some(vfs.clone()),
            // A budget of a few KiB forces the spill within the first
            // checkpoint interval.
            config: SearchConfig {
                spill_at_bytes: spill.then_some(4 << 10),
                ..SearchConfig::default()
            },
            spill_dir: spill.then(|| state.join("spill")),
            ..VerifyOptions::default()
        };
        match spec.verify_all_with_options(&options) {
            // Graceful degradation under disk faults: ENOSPC on a spill
            // write must surface as an honest memory trip, and the next
            // attempt resumes from the flushed checkpoint.
            Ok(results) => match results.iter().find_map(|r| r.stop) {
                Some(BudgetKind::Memory) => {}
                Some(stop) => {
                    return Err(fail(
                        "dishonest-stop",
                        format!(
                            "attempt stopped on {stop:?} (only a memory trip is an honest \
                             degradation here)"
                        ),
                    ))
                }
                None => {
                    let fp = results_fingerprint(&results);
                    if fp != baseline_fp {
                        return Err(fail(
                            "fingerprint-divergence",
                            format!(
                                "recovered fingerprint {fp:#018x} differs from baseline \
                                 {baseline_fp:#018x}"
                            ),
                        ));
                    }
                    let outcome = GenOutcome {
                        arena,
                        seed,
                        attempts,
                        reboots,
                        fired: fs_fired(&fs),
                        evidence,
                        detail: format!(
                            "{} states, fingerprint {fp:#018x}",
                            results.first().map_or(0, |r| r.states)
                        ),
                    };
                    let footprint = Footprint {
                        ops: [fs.op_count(), 0, 0],
                        ..Footprint::default()
                    };
                    return Ok((outcome, footprint));
                }
            },
            // A storage fault is only ever a transient, retryable
            // failure — anything else is a wrong verdict in the making.
            Err(error) => match JobOutcome::classify_error(&error.0) {
                JobOutcome::Failed {
                    class: FailureClass::Transient,
                    ..
                } => {}
                other => {
                    return Err(fail(
                        "misclassified-error",
                        format!("storage fault classified {other:?} (must be transient): {error}"),
                    ))
                }
            },
        }
        reboots += reboot_if_crashed(&fs);
    }
    Err(fail(
        "no-convergence",
        format!("no convergence after {MAX_GEN_ATTEMPTS} attempts"),
    ))
}

/// The planted queue commit: stage and rename with no durability —
/// byte-for-byte the pre-`commit_replace` bug.
fn unsynced_commit(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    vfs.write(&tmp, bytes)?;
    vfs.rename(&tmp, path)
}

/// The queue arena: commit a known-good queue, commit its replacement
/// under injections, and check the all-or-nothing promise on whatever a
/// crash exposed: the file decodes to exactly the old or exactly the
/// new job set.
fn run_queue(schedule: &FaultSchedule) -> Result<(GenOutcome, Footprint), GenFailure> {
    let seed = schedule.seed;
    let fs = SimFs::new(seed);
    fs.set_injections(schedule.fs_injections(Target::Main));
    let fail = |oracle, message: String| GenFailure {
        oracle,
        message: format!("queue seed {seed}: {message}"),
        fired: fs_fired(&fs),
    };
    let state = PathBuf::from("/state");
    let path = state.join("queue.pnpq");
    let (old_jobs, new_jobs) = sample_queues();
    let mut reboots = create_state_dir(&fs, &state);
    let mut attempts = 0u32;

    // The old queue must land durably before the interesting commit; an
    // injected fault here just costs a retry.
    let old_committed = (0..20).any(|_| {
        attempts += 1;
        let committed = commit_replace(&fs, &path, &encode_queue(&old_jobs)).is_ok();
        reboots += reboot_if_crashed(&fs);
        committed
    });
    if !old_committed {
        return Err(fail(
            "no-convergence",
            "the old queue never committed in 20 attempts".to_string(),
        ));
    }

    // The replacement commit — the crash story under test. A crash ends
    // the attempt sequence: what the reboot exposed is what we judge.
    let new_bytes = encode_queue(&new_jobs);
    let mut committed = false;
    for _ in 0..20 {
        attempts += 1;
        committed = match schedule.plant {
            BugPlant::None => commit_replace(&fs, &path, &new_bytes),
            BugPlant::UnsyncedQueueCommit => unsynced_commit(&fs, &path, &new_bytes),
        }
        .is_ok();
        if committed || fs.crashed() {
            reboots += reboot_if_crashed(&fs);
            break;
        }
    }

    // A crash injection may still be pending past the commit: the read
    // below can fire it, which is exactly the "power loss after the
    // commit returned" case the plant gets wrong.
    let mut bytes = None;
    for _ in 0..10 {
        match fs.read(&path) {
            Ok(content) => {
                bytes = Some(content);
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !fs.crashed() => {
                return Err(fail(
                    "queue-lost",
                    "queue.pnpq vanished after the crash (old copy lost)".to_string(),
                ));
            }
            Err(_) => reboots += reboot_if_crashed(&fs),
        }
    }
    let Some(bytes) = bytes else {
        return Err(fail(
            "no-convergence",
            "the recovered queue never became readable".to_string(),
        ));
    };
    let recovered = decode_queue(&bytes)
        .map_err(|e| fail("torn-queue", format!("torn queue after crash: {e}")))?;
    let ids: Vec<u64> = recovered.iter().map(|j| j.id).collect();
    let old_ids: Vec<u64> = old_jobs.iter().map(|j| j.id).collect();
    let new_ids: Vec<u64> = new_jobs.iter().map(|j| j.id).collect();
    if ids != old_ids && ids != new_ids {
        return Err(fail(
            "queue-content",
            format!(
                "recovered job ids {ids:?} are neither the old {old_ids:?} nor the new \
                 {new_ids:?}"
            ),
        ));
    }
    if committed && !fs.crashed() && ids == old_ids && reboots > 0 {
        return Err(fail(
            "lost-commit",
            "the commit reported success but a later crash exposed the old queue".to_string(),
        ));
    }
    let outcome = GenOutcome {
        arena: Arena::Queue,
        seed,
        attempts,
        reboots,
        fired: fs_fired(&fs),
        evidence: Evidence::default(),
        detail: format!(
            "recovered the {} queue after {reboots} reboot(s)",
            if ids == new_ids { "new" } else { "old" }
        ),
    };
    let footprint = Footprint {
        ops: [fs.op_count(), 0, 0],
        ..Footprint::default()
    };
    Ok((outcome, footprint))
}

/// One planned cluster submission.
struct ClusterSubmission {
    source: &'static str,
    tenant: &'static str,
    /// End-to-end budget sent as `job_deadline_ms`; such a job must
    /// expire as an honest `Inconclusive`, so it has no baseline.
    deadline_ms: Option<u64>,
    /// Single-node fingerprint the adopted result must match.
    baseline: u64,
    idem: String,
    /// Coordinator job id, once admitted.
    id: Option<u64>,
    /// Earliest virtual time to (re)try the submission — moved forward
    /// by the coordinator's `Retry-After` hint on a shed.
    retry_at: u64,
}

/// The cluster arenas: a real coordinator and two simulated workers on
/// virtual time, with exact network injections, exact storage
/// injections on the worker disks, and timed worker, partition, and
/// coordinator-restart events. Clients submit the arena's job mix
/// *during* the run, honoring shed hints; once every job is done the
/// clock keeps running until every accepted attempt has settled (its
/// result adopted or fenced), up to the step ceiling.
///
/// A worker whose *disk* suffers an injected crash is treated as a dead
/// machine: the harness kills the process, reboots the disk to its
/// crash image, and boots the worker back up a few steps later — the
/// cluster must migrate or resume its jobs without double-completion.
fn run_cluster(schedule: &FaultSchedule) -> Result<(GenOutcome, Footprint), GenFailure> {
    let (arena, seed) = (schedule.arena, schedule.seed);
    let fp_chaos = baseline_fingerprint(CHAOS_SPEC).map_err(harness)?;
    let fp_small = baseline_fingerprint(SMALL_SPEC).map_err(harness)?;
    let mut submissions: Vec<ClusterSubmission> = arena
        .jobs()
        .into_iter()
        .enumerate()
        .map(|(index, (source, tenant, deadline_ms))| ClusterSubmission {
            source,
            tenant,
            deadline_ms,
            baseline: if source == CHAOS_SPEC {
                fp_chaos
            } else {
                fp_small
            },
            idem: format!("chaosgen-{seed}-{index}"),
            id: None,
            retry_at: 0,
        })
        .collect();

    let net = SimNet::new(seed);
    net.set_injections(schedule.net_injections());
    let now = Arc::new(AtomicU64::new(0));
    let coordinator_vfs: VfsHandle = Arc::new(SimFs::new(seed ^ 0x636f_6f72_645f_6673));
    let _ = coordinator_vfs.create_dir_all(Path::new("/coord"));
    let new_coordinator =
        || make_coordinator(&net, arena.cluster_config(coordinator_vfs.clone()), &now);
    let mut coordinator = new_coordinator();
    let w1 = SimWorker::new(&net, "w1", "coord", seed ^ 1, &now);
    let w2 = SimWorker::new(&net, "w2", "coord", seed ^ 2, &now);
    if arena == Arena::ClusterHedge {
        // An order of magnitude slower than the default: w2's
        // dispatches sit far past the hedge threshold.
        w2.set_work_ticks(60);
    }
    w1.sim_fs()
        .set_injections(schedule.fs_injections(Target::W1));
    w2.sim_fs()
        .set_injections(schedule.fs_injections(Target::W2));
    w1.run_pending();
    w2.run_pending();
    coordinator.tick(0);

    let events = schedule.timed_events();
    let mut timeline: Vec<String> = Vec::new();
    let mut auto_restarts: Vec<(Target, u64)> = Vec::new();
    // Partitioned workers, with the coordinator's migration count at
    // the cut.
    let mut partitions: Vec<(Target, u64)> = Vec::new();
    // What the coordinators a restart replaced had completed.
    let mut retired_completed = 0u64;
    let mut retired_completions: HashMap<u64, crate::transport::Completion> = HashMap::new();
    let worker_of = |target: Target| -> &Arc<SimWorker> {
        if target == Target::W2 {
            &w2
        } else {
            &w1
        }
    };
    let fired = |timeline: &[String]| -> Vec<String> {
        let mut all: Vec<String> = net.fault_trace().iter().map(|r| r.to_string()).collect();
        for (name, worker) in [("w1", &w1), ("w2", &w2)] {
            let disk = fs_fired(&worker.sim_fs());
            all.extend(disk.into_iter().map(|r| format!("{name} {r}")));
        }
        all.extend_from_slice(timeline);
        all
    };
    let fail = |timeline: &[String], oracle, message: String| GenFailure {
        oracle,
        message: format!("{arena} seed {seed}: {message}"),
        fired: fired(timeline),
    };
    let mut reboots = 0u32;
    let mut steps = 0u64;
    let mut jobs_done = false;
    while steps < MAX_GEN_STEPS {
        steps += 1;
        let t = steps * STEP_MS;
        now.store(t, Ordering::Relaxed);

        for event in events.iter().filter(|e| e.at() == steps) {
            match *event {
                Injection::Worker { target, event, .. } => {
                    let target = match target {
                        Target::Holder => match coordinator.worker_of(1).as_deref() {
                            Some("w1") => Target::W1,
                            Some("w2") => Target::W2,
                            _ => continue,
                        },
                        other => other,
                    };
                    let worker = worker_of(target);
                    let down = net.is_down(&worker.name);
                    match event {
                        WorkerEvent::Crash if !down => worker.crash(),
                        WorkerEvent::Restart if down => worker.restart(),
                        WorkerEvent::Partition => {
                            net.cut(&worker.name, "coord");
                            net.cut("coord", &worker.name);
                            partitions.push((target, coordinator.stats().migrations));
                        }
                        // Crashing a dead worker or restarting a live
                        // one does nothing, and fires nothing.
                        _ => continue,
                    }
                    timeline.push(format!("worker {target} {event} @{steps}"));
                }
                Injection::CoordRestart { .. } => {
                    // The drain persists every open job to cluster.pnpq
                    // on the coordinator's durable disk; the replacement
                    // restores them behind bumped epochs, so every
                    // pre-restart attempt reports into the fence.
                    coordinator.drain();
                    for id in submissions.iter().filter_map(|s| s.id) {
                        if let Some(completion) = coordinator.completion(id) {
                            retired_completions.insert(id, completion);
                        }
                    }
                    retired_completed += coordinator.stats().completed;
                    coordinator = new_coordinator();
                    timeline.push(format!("coord restart @{steps}"));
                }
                _ => {}
            }
        }
        // A partition heals at the first step after the coordinator
        // recorded a migration: the condemned worker then serves the
        // snapshot fetch, and its late upload meets the epoch fence.
        let migrations = coordinator.stats().migrations;
        partitions.retain(|&(target, cut_at)| {
            let name = &worker_of(target).name;
            if migrations > cut_at {
                net.heal(name, "coord");
                net.heal("coord", name);
            }
            migrations <= cut_at
        });
        // An injected disk crash kills the machine under the process:
        // down the worker, expose the crash image, boot it back later.
        for (target, worker) in [(Target::W1, &w1), (Target::W2, &w2)] {
            if worker.sim_fs().crashed() {
                worker.crash();
                reboots += reboot_if_crashed(&worker.sim_fs());
                auto_restarts.push((target, steps + 8));
                timeline.push(format!("worker {target} disk-crash reboot @{steps}"));
            }
        }
        auto_restarts.retain(|&(target, due)| {
            if steps >= due {
                worker_of(target).restart();
            }
            steps < due
        });

        for submission in submissions.iter_mut().filter(|s| s.id.is_none()) {
            if t < submission.retry_at {
                continue;
            }
            let mut client = SubmitClient::new(net.endpoint("client"));
            client.retry_backoff = std::time::Duration::ZERO;
            client.max_retries = 8;
            client.idem_key = Some(submission.idem.clone());
            let mut query = format!("tenant={}", submission.tenant);
            if let Some(ms) = submission.deadline_ms {
                query.push_str(&format!("&job_deadline_ms={ms}"));
            }
            match client.submit("coord", submission.source, &query) {
                Ok(outcome) => {
                    let id = outcome.id.strip_prefix("g-").and_then(|n| n.parse().ok());
                    if id.is_none() {
                        let message = format!("submit returned job id {}", outcome.id);
                        return Err(fail(&timeline, "submit-failed", message));
                    }
                    submission.id = id;
                }
                // Shed (or transient network trouble): come back at the
                // hinted time, next step at the earliest.
                Err(ClientError::Retryable { retry_after_ms, .. }) => {
                    submission.retry_at = t + retry_after_ms.unwrap_or(STEP_MS).max(STEP_MS);
                }
                Err(error) => {
                    let message = format!("submit failed: {error}");
                    return Err(fail(&timeline, "submit-failed", message));
                }
            }
        }

        coordinator.tick(t);
        w1.run_pending();
        w2.run_pending();

        // A replacement coordinator that restored nothing holds no jobs:
        // its predecessor finished them all.
        let current = coordinator.stats();
        let emptied = retired_completed > 0 && current.submitted == 0 && current.restored == 0;
        jobs_done =
            submissions.iter().all(|s| s.id.is_some()) && (coordinator.all_done() || emptied);
        if jobs_done && w1.unsettled() + w2.unsettled() == 0 {
            break;
        }
    }
    // An attempt still unsettled at the ceiling only costs the
    // witnesses it would have shown; an unfinished job is a failure.
    if !jobs_done {
        let message = format!("no convergence after {MAX_GEN_STEPS} steps");
        return Err(fail(&timeline, "no-convergence", message));
    }

    let stats = coordinator.stats();
    for submission in &submissions {
        let id = submission.id.expect("checked before convergence");
        let completion = coordinator
            .completion(id)
            .or_else(|| retired_completions.get(&id).cloned());
        let Some(completion) = completion else {
            // The coordinator's backstop may expire a deadline job
            // before any worker attempt could donate partial
            // statistics.
            if submission.deadline_ms.is_some() && stats.expired >= 1 {
                continue;
            }
            let message = format!("g-{id} has no completion");
            return Err(fail(&timeline, "lost-job", message));
        };
        if submission.deadline_ms.is_some() {
            // A deadline job's contract is an honest Inconclusive with
            // partial statistics, not the uninterrupted baseline.
            let partial = completion
                .results
                .as_deref()
                .is_some_and(|results| results.iter().any(|r| r.inconclusive));
            if completion.verdict != Verdict::Inconclusive || !partial {
                let message = format!(
                    "deadline job g-{id} ended {:?} without inconclusive partial statistics",
                    completion.verdict
                );
                return Err(fail(&timeline, "dishonest-deadline", message));
            }
            continue;
        }
        let Some(results) = completion.results.as_deref() else {
            let message = format!("g-{id} completed without results");
            return Err(fail(&timeline, "missing-results", message));
        };
        let fp = results_fingerprint(results);
        if fp != submission.baseline {
            let message = format!(
                "g-{id} fingerprint {fp:#018x} differs from baseline {:#018x}",
                submission.baseline
            );
            return Err(fail(&timeline, "fingerprint-divergence", message));
        }
    }
    let completed = retired_completed + stats.completed;
    if completed != submissions.len() as u64 {
        let message = format!(
            "{completed} completions recorded for {} jobs",
            submissions.len()
        );
        return Err(fail(&timeline, "completion-count", message));
    }

    let outcome = GenOutcome {
        arena,
        seed,
        attempts: steps as u32,
        reboots,
        fired: fired(&timeline),
        evidence: Evidence {
            jobs: submissions.len() as u64,
            migrations: stats.migrations,
            fenced: stats.fenced,
            discards: w1.discarded() + w2.discarded(),
            snapshots_shipped: stats.snapshots_shipped,
            restored: stats.restored,
            hedges: stats.hedges,
            shed: stats.shed,
            expired: stats.expired,
            breaker_trips: stats.breaker_trips,
            ..Evidence::default()
        },
        detail: format!(
            "{} jobs, {} migrations, {} fenced, {} hedges",
            submissions.len(),
            stats.migrations,
            stats.fenced,
            stats.hedges
        ),
    };
    let footprint = Footprint {
        ops: [0, w1.sim_fs().op_count(), w2.sim_fs().op_count()],
        deliveries: net.stats().requests,
        steps,
    };
    Ok((outcome, footprint))
}

/// Delta-debugging (ddmin) reduction of `items` against a failure
/// predicate, followed by a single-deletion fixpoint pass, yielding a
/// **1-minimal** subset: `fails` holds on the result, and removing any
/// single element makes it stop holding.
///
/// `fails(items)` must hold on entry; the predicate must be
/// deterministic (in this module it replays a fault schedule, which
/// is).
pub fn shrink_with<T: Clone>(items: &[T], fails: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current = items.to_vec();
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut next: Option<(Vec<T>, usize)> = None;
        // Try each chunk alone, then each chunk's complement.
        for start in (0..current.len()).step_by(chunk) {
            let subset = current[start..(start + chunk).min(current.len())].to_vec();
            if subset.len() < current.len() && fails(&subset) {
                next = Some((subset, 2));
                break;
            }
        }
        if next.is_none() && n > 2 {
            for start in (0..current.len()).step_by(chunk) {
                let mut complement = current.clone();
                complement.drain(start..(start + chunk).min(complement.len()));
                if complement.len() < current.len() && fails(&complement) {
                    next = Some((complement, n - 1));
                    break;
                }
            }
        }
        match next {
            Some((reduced, granularity)) => {
                current = reduced;
                n = granularity.clamp(2, current.len().max(2));
            }
            None => {
                if n >= current.len() {
                    break;
                }
                n = (n * 2).min(current.len());
            }
        }
    }
    // 1-minimality: keep deleting single elements to a fixpoint (also
    // covers the length-0/1 edge ddmin skips).
    loop {
        let mut reduced = false;
        for index in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(index);
            if fails(&candidate) {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

/// Shrinks a failing schedule: ddmin-deletes injections, then coarsens
/// each surviving injection's index toward rounder values — all while
/// the *same oracle* keeps failing, so the minimized schedule
/// reproduces the original failure, not a different one.
///
/// The result is 1-minimal: removing any remaining injection makes the
/// run pass or changes the failure.
pub fn shrink_schedule(failing: &FaultSchedule, failure: &GenFailure) -> FaultSchedule {
    let oracle = failure.oracle;
    let template = failing.clone();
    let mut fails = move |injections: &[Injection]| -> bool {
        let mut candidate = template.clone();
        candidate.injections = injections.to_vec();
        candidate.canonicalize();
        matches!(run_generated(&candidate), Err(f) if f.oracle == oracle)
    };
    let mut kept = shrink_with(&failing.injections, &mut fails);
    // Coarsen: a repro at op @10 reads better than @117, and rounder
    // indices survive harness drift longer.
    for index in 0..kept.len() {
        let at = kept[index].at();
        for candidate_at in [at - at % 10, at - at % 5] {
            if candidate_at == 0 || candidate_at == at {
                continue;
            }
            let mut trial = kept.clone();
            trial[index] = trial[index].with_at(candidate_at);
            if fails(&trial) {
                kept = trial;
                break;
            }
        }
    }
    let mut shrunk = failing.clone();
    shrunk.injections = kept;
    shrunk.canonicalize();
    shrunk
}

/// One failure a [`search`] found, with its minimized repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// The 0-based search iteration that failed.
    pub iteration: u64,
    /// The failing case's derived seed.
    pub case_seed: u64,
    /// The oracle violation.
    pub failure: GenFailure,
    /// The schedule as generated.
    pub schedule: FaultSchedule,
    /// The 1-minimal shrunk schedule, `expect` set to the failing
    /// oracle — ready to commit to `chaos-corpus/`.
    pub shrunk: FaultSchedule,
}

/// What a bounded [`search`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchReport {
    /// The arena searched.
    pub arena: Arena,
    /// The search's master seed.
    pub seed: u64,
    /// The intensity profile.
    pub profile: Profile,
    /// Iterations actually run (≤ the budget; a hit stops the search).
    pub iterations: u64,
    /// The first failure found, if any.
    pub hit: Option<SearchHit>,
}

/// A bounded seeded search: derive `iterations` case seeds from one
/// master seed, generate-and-run each, and on the first failure shrink
/// it to a minimal repro. Fully deterministic: the same
/// `(arena, seed, profile, iterations, plant)` always yields the same
/// report, injected-fault traces included.
pub fn search(
    arena: Arena,
    seed: u64,
    profile: Profile,
    iterations: u64,
    plant: BugPlant,
) -> SearchReport {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x6368_616f_735f_7365);
    for iteration in 0..iterations {
        let case_seed = rng.next_u64();
        let mut schedule = generate(arena, case_seed, profile);
        schedule.plant = plant;
        if let Err(failure) = run_generated(&schedule) {
            let mut shrunk = shrink_schedule(&schedule, &failure);
            shrunk.expect = Some(failure.oracle.to_string());
            return SearchReport {
                arena,
                seed,
                profile,
                iterations: iteration + 1,
                hit: Some(SearchHit {
                    iteration,
                    case_seed,
                    failure,
                    schedule,
                    shrunk,
                }),
            };
        }
    }
    SearchReport {
        arena,
        seed,
        profile,
        iterations,
        hit: None,
    }
}

/// Replays a schedule file's run and judges it against the file's
/// `expect` directive: a plain file must pass its oracle checks; an
/// `expect <oracle>` file must fail with exactly that oracle (it
/// guards a *detection*, typically of a [`BugPlant`]).
///
/// # Errors
///
/// Returns the divergence: an unexpected failure, the wrong oracle, or
/// an expected failure that no longer fires (the detector regressed).
pub fn replay(schedule: &FaultSchedule) -> Result<String, String> {
    match (run_generated(schedule), &schedule.expect) {
        (Ok(outcome), None) => Ok(format!(
            "ok: {} seed {} converged ({} faults fired; {})",
            outcome.arena,
            outcome.seed,
            outcome.fired.len(),
            outcome.detail
        )),
        (Ok(_), Some(oracle)) => Err(format!(
            "{} seed {}: expected the '{oracle}' oracle to fail but the run passed — \
             the regression this schedule guards is no longer detected",
            schedule.arena, schedule.seed
        )),
        (Err(failure), Some(oracle)) if failure.oracle == oracle => Ok(format!(
            "ok: {} seed {} failed '{oracle}' as expected ({} faults fired)",
            schedule.arena,
            schedule.seed,
            failure.fired.len()
        )),
        (Err(failure), Some(oracle)) => Err(format!(
            "{} seed {}: expected the '{oracle}' oracle, got: {failure}",
            schedule.arena, schedule.seed
        )),
        (Err(failure), None) => Err(format!(
            "{} seed {}: {failure}",
            schedule.arena, schedule.seed
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_text_roundtrips() {
        for arena in Arena::ALL {
            for profile in Profile::ALL {
                let schedule = generate(arena, 42, profile);
                let parsed = FaultSchedule::parse(&schedule.encode()).unwrap();
                assert_eq!(parsed, schedule);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(Arena::Cluster, 7, Profile::Heavy);
        let b = generate(Arena::Cluster, 7, Profile::Heavy);
        assert_eq!(a.encode(), b.encode());
        assert_ne!(
            generate(Arena::Cluster, 7, Profile::Heavy).encode(),
            generate(Arena::Cluster, 8, Profile::Heavy).encode()
        );
    }

    #[test]
    fn parse_rejects_malformed_schedules() {
        let cases: [(&str, &str); 8] = [
            ("seed 1\nfs main crash @3", "missing 'arena"),
            ("arena queue\nfs main crash @3", "missing 'seed"),
            ("arena nope\nseed 1", "unknown arena 'nope'"),
            ("arena queue\nseed 1\nfs main crash @0", "1-based"),
            (
                "arena queue\nseed 1\nfs main melt @3",
                "unknown storage fault 'melt'",
            ),
            (
                "arena queue\nseed 1\nnet eat-packet @3",
                "unknown network fault 'eat-packet'",
            ),
            (
                "arena queue\nseed 1\nexpect not-an-oracle",
                "unknown oracle",
            ),
            ("arena queue\nseed 1\nwobble", "unrecognized injection"),
        ];
        for (text, needle) in cases {
            let error = FaultSchedule::parse(text).unwrap_err();
            assert!(
                error.contains(needle),
                "parse of {text:?} should mention {needle:?}, got: {error}"
            );
        }
    }

    #[test]
    fn validate_rejects_inapplicable_injections() {
        let text = "arena storage\nseed 1\nnet reset @3";
        let schedule = FaultSchedule::parse(text).unwrap();
        let failure = run_generated(&schedule).unwrap_err();
        assert_eq!(failure.oracle, HARNESS_ORACLE);

        let text = "arena cluster\nseed 1\nfs main crash @3";
        let schedule = FaultSchedule::parse(text).unwrap();
        let failure = run_generated(&schedule).unwrap_err();
        assert_eq!(failure.oracle, HARNESS_ORACLE);

        for text in [
            "arena queue\nseed 1\ncoord restart @3",
            "arena cluster-hedge\nseed 1\nfs holder crash @3",
            "arena queue\nseed 1\nrequire hedge",
            "arena cluster\nseed 1\nrequire disk-resume",
        ] {
            let schedule = FaultSchedule::parse(text).unwrap();
            let failure = run_generated(&schedule).unwrap_err();
            assert_eq!(failure.oracle, HARNESS_ORACLE, "{text}");
        }
    }

    #[test]
    fn every_witness_oracle_is_expectable_and_roundtrips() {
        for witness in Witness::ALL {
            let text = format!("arena queue\nseed 1\nexpect {}", witness.oracle());
            FaultSchedule::parse(&text).unwrap();
            assert_eq!(Witness::parse(witness.as_str()).unwrap(), witness);
        }
        let error = Witness::parse("luck").unwrap_err();
        assert!(error.contains("breaker-trip"), "{error}");
    }

    #[test]
    fn new_directives_and_events_roundtrip() {
        let text = "arena cluster\nseed 3\nrequire fence\nrequire fault\n\
                    worker holder partition @3\ncoord restart @9\nworker w2 crash @1";
        let schedule = FaultSchedule::parse(text).unwrap();
        assert_eq!(schedule.require, vec![Witness::Fault, Witness::Fence]);
        assert_eq!(FaultSchedule::parse(&schedule.encode()).unwrap(), schedule);
        assert!(schedule.encode().contains("worker holder partition @3\n"));
        assert!(schedule.encode().contains("coord restart @9\n"));
    }

    #[test]
    fn unmet_requirement_fails_with_its_witness_oracle() {
        // A fault-free queue run converges, but fires nothing.
        let schedule = FaultSchedule::parse("arena queue\nseed 1\nrequire fault").unwrap();
        let failure = run_generated(&schedule).unwrap_err();
        assert_eq!(failure.oracle, "no-fault");
    }

    #[test]
    fn clean_queue_arena_passes_and_replays_identically() {
        let schedule = generate(Arena::Queue, 3, Profile::Medium);
        let a = run_generated(&schedule).unwrap();
        let b = run_generated(&schedule).unwrap();
        assert_eq!(a, b, "same schedule, same outcome and fired trace");
    }

    fn run_preset(name: &str, seed: u64) -> GenOutcome {
        let schedule = preset(name, seed).unwrap();
        run_generated(&schedule).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"))
    }

    #[test]
    fn schedule_names_roundtrip() {
        for name in PRESETS {
            let schedule = preset(name, 0).unwrap();
            assert!(schedule.require.contains(&Witness::Fault), "{name}");
            assert_eq!(FaultSchedule::parse(&schedule.encode()).unwrap(), schedule);
        }
        assert!(preset("rm_rf", 0).is_err());
    }

    #[test]
    fn worker_crash_schedule_converges() {
        let outcome = run_preset("worker_crash_mid_job", 7);
        assert_eq!(outcome.evidence.jobs, 3);
        assert!(outcome.evidence.migrations >= 1);
    }

    #[test]
    fn partition_schedule_fences_the_stale_result() {
        let outcome = run_preset("partition_during_result", 7);
        assert!(outcome.evidence.fenced >= 1);
        assert!(outcome.evidence.discards >= 1);
    }

    #[test]
    fn coordinator_restart_schedule_restores_and_fences() {
        let outcome = run_preset("coordinator_restart", 7);
        assert!(outcome.evidence.fenced >= 1);
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = run_preset("worker_crash_mid_job", 11);
        let b = run_preset("worker_crash_mid_job", 11);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.evidence.migrations, b.evidence.migrations);
        assert_eq!(a.evidence.fenced, b.evidence.fenced);
    }

    #[test]
    fn straggler_schedule_hedges_and_fences_the_late_result() {
        let outcome = run_preset("straggler", 7);
        assert_eq!(outcome.evidence.jobs, 3);
        assert!(outcome.evidence.hedges >= 1);
        assert!(outcome.evidence.fenced >= 1);
        assert!(outcome.evidence.discards >= 1);
    }

    #[test]
    fn overload_burst_schedule_sheds_and_expires_the_deadline_job() {
        let outcome = run_preset("overload_burst", 7);
        assert_eq!(outcome.evidence.jobs, 5);
        assert!(outcome.evidence.shed >= 1);
    }

    #[test]
    fn flapping_worker_schedule_trips_the_breaker() {
        let outcome = run_preset("flapping_worker", 7);
        assert_eq!(outcome.evidence.jobs, 6);
        assert!(outcome.evidence.breaker_trips >= 1);
    }

    #[test]
    fn overload_schedules_replay_identically() {
        let a = run_preset("straggler", 13);
        let b = run_preset("straggler", 13);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.evidence.hedges, b.evidence.hedges);
        assert_eq!(a.evidence.fenced, b.evidence.fenced);
    }

    #[test]
    fn shrink_with_is_one_minimal_on_a_synthetic_predicate() {
        // Fails iff it contains both 3 and 7: the minimum is {3, 7}.
        let items: Vec<u32> = (0..20).collect();
        let mut fails = |xs: &[u32]| xs.contains(&3) && xs.contains(&7);
        let mut shrunk = shrink_with(&items, &mut fails);
        shrunk.sort_unstable();
        assert_eq!(shrunk, vec![3, 7]);
    }
}
