//! Seeded storage-chaos tests: the storage and queue presets of the
//! chaos matrix over the simulated filesystem, harness determinism, the
//! two checkpoint crash
//! windows the durability design must survive, and a supervisor running
//! end to end on [`SimFs`].

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pnp_kernel::{load_latest_snapshot, FaultPlan, GenStore, SimFs, Snapshot, Vfs, VfsHandle};
use pnp_lang::{compile, VerifyOptions};
use pnp_net::{SimNet, WireRequest};
use pnp_serve::chaosgen::{
    preset, results_fingerprint, run_generated, GenOutcome, CHAOS_SPEC, CHECKPOINT_EVERY, PRESETS,
};
use pnp_serve::cluster::{ClusterConfig, Coordinator};
use pnp_serve::job::{Chaos, JobConfig, JobRequest, Verdict};
use pnp_serve::supervisor::{ServeConfig, Supervisor};

fn sim_with_state(seed: u64) -> (Arc<SimFs>, VfsHandle) {
    let fs = Arc::new(SimFs::new(seed));
    fs.as_ref()
        .create_dir_all(&PathBuf::from("/state"))
        .unwrap();
    let vfs: VfsHandle = fs.clone();
    (fs, vfs)
}

/// The presets that run on the storage and queue arenas.
fn storage_presets() -> impl Iterator<Item = &'static str> {
    PRESETS
        .into_iter()
        .filter(|name| !preset(name, 0).unwrap().arena.is_cluster())
}

/// The acceptance matrix: every seed × storage preset recovers to
/// results byte-identical to an uninterrupted run (or, for the drain
/// preset, to exactly the old or new queue) and meets its required
/// witnesses — at least one fault fired, and for `resume-after-spill`
/// a disk-backed resume.
#[test]
fn fault_schedule_matrix_recovers_byte_identical() {
    for name in storage_presets() {
        for seed in 0..8 {
            run_generated(&preset(name, seed).unwrap())
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        }
    }
}

/// The harness itself is deterministic: the same seed reproduces the
/// same fault schedule, the same number of crashes and attempts, and the
/// same recovered fingerprint.
#[test]
fn same_seed_reproduces_the_same_chaos_run() {
    for name in storage_presets() {
        let a: GenOutcome = run_generated(&preset(name, 7).unwrap()).unwrap();
        let b: GenOutcome = run_generated(&preset(name, 7).unwrap()).unwrap();
        assert_eq!(a, b, "{name} is not deterministic");
    }
}

/// Commits two generations cleanly, then crashes a third commit inside
/// the given syscall window and returns the generation recovered after
/// reboot (with its payload checked against what that generation wrote).
fn recovered_generation_after_crash(seed: u64, crash_after_ops: u64) -> u64 {
    let (fs, vfs) = sim_with_state(seed);
    let base = PathBuf::from("/state/snap");
    let mut store = GenStore::new(vfs.clone(), &base);
    store.commit(b"gen-1").unwrap();
    store.commit(b"gen-2").unwrap();
    // The warmed store commits in exactly four syscalls: write tmp,
    // sync_file, rename, sync_dir. (A cold store would prepend scan
    // reads, shifting the crash window.)
    fs.set_plan(FaultPlan::crash_after(crash_after_ops));
    let result = store.commit(b"gen-3");
    assert!(
        fs.crashed(),
        "crash_after({crash_after_ops}) must trip mid-commit"
    );
    assert!(result.is_err());
    fs.reboot();
    let scan = GenStore::new(vfs, &base).scan().unwrap();
    let (generation, payload) = scan.latest().expect("a generation must survive");
    match generation {
        2 => assert_eq!(payload, b"gen-2"),
        3 => assert_eq!(payload, b"gen-3"),
        other => panic!("recovered impossible generation {other}"),
    }
    *generation
}

/// Acceptance criterion: a crash between the tmp-file write and the
/// rename (the tmp write is op 1, its fsync op 2, so both windows before
/// the rename) always recovers the previous good generation — the new
/// one never became visible.
#[test]
fn crash_between_tmp_write_and_rename_recovers_previous_generation() {
    for crash_after_ops in [1, 2] {
        for seed in 0..32 {
            assert_eq!(
                recovered_generation_after_crash(seed, crash_after_ops),
                2,
                "seed {seed}, crash after {crash_after_ops} commit ops"
            );
        }
    }
}

/// Acceptance criterion: a crash between the rename and the directory
/// fsync recovers to the previous *or* the new generation — the rename
/// is in the disk's unsynced window, so both outcomes are legal and the
/// seeds must exercise both. Either way the recovered payload is the
/// complete payload of that generation.
#[test]
fn crash_between_rename_and_dir_fsync_recovers_either_adjacent_generation() {
    let mut recovered_old = false;
    let mut recovered_new = false;
    for seed in 0..32 {
        match recovered_generation_after_crash(seed, 3) {
            2 => recovered_old = true,
            3 => recovered_new = true,
            _ => unreachable!(),
        }
    }
    assert!(recovered_old, "no seed lost the unsynced rename");
    assert!(recovered_new, "no seed preserved the unsynced rename");
}

/// A full lang-level run on SimFs with no faults armed: checkpoints land
/// as generations, and the newest one reloads as the search's final
/// flushed snapshot.
#[test]
fn checkpoints_on_simfs_land_as_loadable_generations() {
    let (_fs, vfs) = sim_with_state(11);
    let spec = compile(CHAOS_SPEC).unwrap();
    let base = PathBuf::from("/state/clean.pnpsnap");
    let options = VerifyOptions {
        checkpoint: Some((base.clone(), CHECKPOINT_EVERY)),
        vfs: Some(vfs.clone()),
        ..VerifyOptions::default()
    };
    let results = spec.verify_all_with_options(&options).unwrap();
    assert!(results.iter().all(|r| r.holds));
    let (generation, snapshot): (u64, Snapshot) = load_latest_snapshot(&vfs, &base)
        .unwrap()
        .expect("a checkpoint generation");
    assert!(
        generation >= 2,
        "several flushes expected, got {generation}"
    );
    assert_eq!(snapshot.tag(), "totals");
    assert!(snapshot.matches_program(spec.system().program()));
}

/// The supervisor runs end to end on the simulated filesystem: a job
/// whose worker panics mid-attempt retries from its generation
/// checkpoint and reports results byte-identical to a clean job; a drain
/// persists the queue to SimFs and a restarted supervisor (same disk)
/// restores it.
#[test]
fn supervisor_on_simfs_retries_drains_and_restores() {
    let (_fs, vfs) = sim_with_state(23);
    let config = ServeConfig {
        workers: 2,
        default_deadline: Duration::from_secs(20),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        checkpoint_every: 100,
        state_dir: PathBuf::from("/state/serve"),
        vfs: vfs.clone(),
        ..ServeConfig::default()
    };
    let supervisor = Supervisor::start(config.clone()).unwrap();
    let wait = Duration::from_secs(30);

    let clean = supervisor
        .submit(JobRequest::new(
            CHAOS_SPEC.to_string(),
            JobConfig::default(),
        ))
        .unwrap();
    assert_eq!(supervisor.wait_done(clean, wait), Some(Verdict::Passed));

    let killed = supervisor
        .submit(JobRequest::new(
            CHAOS_SPEC.to_string(),
            JobConfig {
                chaos: Some(Chaos::PanicOnFlush {
                    flush: 3,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    assert_eq!(supervisor.wait_done(killed, wait), Some(Verdict::Passed));
    assert_eq!(supervisor.attempts(killed), Some(2), "one retry expected");
    assert_eq!(
        results_fingerprint(&supervisor.results(clean).unwrap()),
        results_fingerprint(&supervisor.results(killed).unwrap()),
        "retried job must be byte-identical to the clean one"
    );

    // Park a queued job behind the drain, then restore it on a fresh
    // supervisor over the same simulated disk.
    let parked = supervisor
        .submit(JobRequest::new(
            CHAOS_SPEC.to_string(),
            JobConfig::default(),
        ))
        .unwrap();
    let _ = parked;
    supervisor.drain();
    let restarted = Supervisor::start(config).unwrap();
    let restored = restarted.restored();
    if restored > 0 {
        assert_eq!(
            restarted.wait_done(parked, wait),
            Some(Verdict::Passed),
            "restored job must finish under its original id"
        );
    }
    restarted.drain();
}

/// An orphaned spill scratch tree (the nested `job-N.spill/{frontier,
/// visited}/` layout a real out-of-core search leaves behind) is swept
/// — removed bottom-up, not quarantined — when a supervisor starts over
/// the state directory and no restored job owns it.
#[test]
fn startup_sweep_removes_orphaned_nested_spill_tree() {
    let (fs, vfs) = sim_with_state(31);
    let state = PathBuf::from("/state/serve");
    for sub in ["frontier", "visited"] {
        fs.as_ref()
            .create_dir_all(&state.join("job-7.spill").join(sub))
            .unwrap();
    }
    fs.as_ref()
        .write(
            &state.join("job-7.spill/visited/part00-run00000001.pnprun"),
            b"stale",
        )
        .unwrap();
    fs.as_ref()
        .write(
            &state.join("job-7.spill/frontier/chunk-00000001.pnprun"),
            b"stale",
        )
        .unwrap();
    let supervisor = Supervisor::start(ServeConfig {
        workers: 1,
        state_dir: state.clone(),
        vfs: vfs.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    assert!(
        vfs.list_dirs(&state).unwrap().is_empty(),
        "the orphaned spill tree must be gone"
    );
    assert!(
        supervisor.stats().tmp_swept >= 1,
        "the sweep must be counted"
    );
    supervisor.drain();
}

/// The coordinator's durable `cluster.pnpq` commit under a full disk:
/// ENOSPC anywhere inside `commit_replace` (the tmp write gets a torn
/// prefix, the rename never happens) must leave the previously committed
/// queue byte-intact, and the coordinator must keep serving — admitting
/// jobs and answering `/health` — so a later drain can retry and a
/// restarted coordinator restores every open job.
#[test]
fn enospc_mid_cluster_commit_keeps_previous_queue_and_coordinator_serving() {
    for seed in 0..8u64 {
        let (fs, vfs) = sim_with_state(seed);
        let net = SimNet::new(seed);
        let config = || ClusterConfig {
            state_dir: PathBuf::from("/state/coord"),
            vfs: vfs.clone(),
            ..ClusterConfig::default()
        };
        let coordinator = Coordinator::new(config(), Arc::new(net.endpoint("coord")));
        let register = WireRequest::post("/cluster/register?name=w1&peer=w1", Vec::new());
        assert_eq!(coordinator.handle(&register, 0).status, 200);
        let submit = |tenant: &str| {
            let request = WireRequest::post(
                format!("/jobs?tenant={tenant}"),
                CHAOS_SPEC.as_bytes().to_vec(),
            );
            let response = coordinator.handle(&request, 0);
            assert_eq!(response.status, 202, "seed {seed}: submission must land");
        };

        submit("a");
        coordinator.drain();
        let path = PathBuf::from("/state/coord/cluster.pnpq");
        let committed = fs
            .as_ref()
            .read(&path)
            .expect("clean drain persists the cluster queue");

        submit("b");
        fs.set_plan(FaultPlan {
            enospc_per_mille: 1000,
            ..FaultPlan::default()
        });
        coordinator.drain();
        fs.set_plan(FaultPlan::default());
        assert_eq!(
            fs.as_ref()
                .read(&path)
                .expect("seed {seed}: the previous queue must survive a full disk"),
            committed,
            "seed {seed}: a failed commit must leave the previous generation byte-intact"
        );

        assert_eq!(
            coordinator.handle(&WireRequest::get("/health"), 0).status,
            200,
            "seed {seed}: the coordinator must keep serving after the failed persist"
        );
        submit("c");
        coordinator.drain();
        let replaced = fs
            .as_ref()
            .read(&path)
            .expect("the retried drain commits cleanly");
        assert_ne!(
            replaced, committed,
            "seed {seed}: the retried drain must commit the grown job set"
        );

        let restarted = Coordinator::new(config(), Arc::new(net.endpoint("coord-2")));
        assert_eq!(restarted.stats().restored, 3, "seed {seed}");
    }
}
