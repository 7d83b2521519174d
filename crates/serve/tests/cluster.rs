//! Cluster integration tests: a real [`Coordinator`] fronting real
//! [`Supervisor`]-backed [`WorkerGateway`]s over an in-memory
//! [`SimNet`], plus the cluster presets of the chaos matrix and the
//! snapshot-shipping supervisor hooks.
//!
//! The end-to-end test is the "quiet network" baseline the chaos matrix
//! diverges from: no faults, two workers, jobs submitted through the
//! retrying client, completions pushed by the worker loop — every job
//! must land exactly once with results byte-identical to a direct
//! single-node verification.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pnp_lang::{compile, VerifyOptions};
use pnp_net::{SimNet, SubmitClient, Transport, WireRequest};
use pnp_serve::chaosgen::{preset, results_fingerprint, run_generated, PRESETS};
use pnp_serve::cluster::{ClusterConfig, Coordinator, WorkerGateway};
use pnp_serve::job::{JobConfig, JobRequest, Verdict};
use pnp_serve::supervisor::{ServeConfig, Supervisor};

const COUNTERS: &str = r#"
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

    property totals: invariant total <= 2;
}
"#;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pnp-cluster-test-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn worker_supervisor(tag: &str) -> Arc<Supervisor> {
    let config = ServeConfig {
        workers: 2,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        checkpoint_every: 100,
        state_dir: temp_state_dir(tag),
        ..ServeConfig::default()
    };
    Arc::new(Supervisor::start(config).expect("supervisor starts"))
}

fn baseline_fingerprint(source: &str) -> u64 {
    let spec = compile(source).expect("spec compiles");
    let results = spec
        .verify_all_with_options(&VerifyOptions::default())
        .expect("baseline verifies");
    results_fingerprint(&results)
}

/// Two real supervisors behind gateways, one coordinator, no faults:
/// jobs submitted through the retrying client complete exactly once
/// with fingerprints matching a direct single-node run.
#[test]
fn cluster_round_trip_over_simnet_matches_single_node() {
    let net = SimNet::new(42);
    let now = Arc::new(AtomicU64::new(0));

    let coordinator = Arc::new(Coordinator::new(
        ClusterConfig {
            state_dir: temp_state_dir("coord"),
            ..ClusterConfig::default()
        },
        Arc::new(net.endpoint("coord")),
    ));
    {
        let coordinator = Arc::clone(&coordinator);
        let now = Arc::clone(&now);
        net.register(
            "coord",
            Arc::new(move |request: &WireRequest| {
                coordinator.handle(request, now.load(Ordering::Relaxed))
            }),
        );
    }

    let gateways: Vec<Arc<WorkerGateway>> = ["w1", "w2"]
        .iter()
        .map(|name| {
            let gateway = Arc::new(WorkerGateway::new(name, worker_supervisor(name)));
            let handler = Arc::clone(&gateway);
            net.register(
                name,
                Arc::new(move |request: &WireRequest| handler.handle(request)),
            );
            gateway
        })
        .collect();
    for gateway in &gateways {
        let transport = net.endpoint(&gateway.name);
        gateway
            .register(&transport, "coord", &gateway.name)
            .expect("registration reaches the coordinator");
    }

    let client = SubmitClient::new(net.endpoint("client"));
    let id = client
        .submit("coord", COUNTERS, "tenant=it")
        .expect("submission admitted")
        .id;
    assert!(id.starts_with("g-"), "coordinator ids are global: {id}");

    // Drive virtual time; the supervisors' worker threads run on real
    // time underneath, so poll with short real sleeps.
    let mut result_body = None;
    for step in 1..=400u64 {
        let t = step * 100;
        now.store(t, Ordering::Relaxed);
        coordinator.tick(t);
        for gateway in &gateways {
            let transport = net.endpoint(&gateway.name);
            let _ = gateway.heartbeat(&transport, "coord");
            let _ = gateway.push_completions(&transport, "coord");
        }
        if let Ok(Some(body)) = client.poll_result("coord", &id) {
            result_body = Some(body);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let body = result_body.expect("job completes within the driving loop");
    assert!(body.contains("\"verdict\""), "result body renders: {body}");

    let stats = coordinator.stats();
    assert_eq!(stats.completed, 1, "exactly one completion recorded");
    assert_eq!(stats.fenced, 0, "a quiet network fences nothing");
    let completion = coordinator.completion(1).expect("completion retained");
    assert_eq!(completion.verdict, Verdict::Passed);
    let results = completion.results.expect("results shipped in completion");
    assert_eq!(
        results_fingerprint(&results),
        baseline_fingerprint(COUNTERS),
        "cluster result is byte-identical to a single-node run"
    );
}

/// Duplicate submissions with the same idempotency key admit one job.
#[test]
fn coordinator_deduplicates_idempotent_submissions() {
    let net = SimNet::new(7);
    let coordinator = Arc::new(Coordinator::new(
        ClusterConfig {
            state_dir: temp_state_dir("idem"),
            ..ClusterConfig::default()
        },
        Arc::new(net.endpoint("coord")),
    ));
    {
        let coordinator = Arc::clone(&coordinator);
        net.register(
            "coord",
            Arc::new(move |request: &WireRequest| coordinator.handle(request, 0)),
        );
    }
    // Admission requires at least one live worker; park a stub that
    // accepts dispatches and never finishes them.
    net.register(
        "stub",
        Arc::new(|_request: &WireRequest| {
            pnp_net::WireResponse::new(202, b"{\"status\":\"accepted\"}".to_vec())
        }),
    );
    net.endpoint("stub")
        .request(
            "coord",
            &WireRequest::post(
                "/cluster/register?name=stub&peer=stub".to_string(),
                Vec::new(),
            ),
        )
        .expect("stub registers");
    let mut client = SubmitClient::new(net.endpoint("client"));
    client.idem_key = Some("same-key".into());
    let first = client
        .submit("coord", COUNTERS, "")
        .expect("first admitted")
        .id;
    let second = client
        .submit("coord", COUNTERS, "")
        .expect("second deduplicated")
        .id;
    assert_eq!(first, second, "idempotency key maps to one job");
    assert_eq!(coordinator.stats().submitted, 1);
}

/// A seed snapshot shipped with the job request seeds the supervisor's
/// resume path without changing the verdict or the result bytes.
#[test]
fn seed_snapshot_resume_is_fingerprint_identical() {
    // Produce a genuine mid-search snapshot by running under a tripping
    // state budget with flush-on-trip checkpointing.
    let spec = compile(COUNTERS).expect("spec compiles");
    let base = temp_state_dir("seedsnap").join("seed.pnpsnap");
    std::fs::create_dir_all(base.parent().unwrap()).unwrap();
    let bounded = pnp_kernel::SearchConfig {
        max_states: 20,
        threads: 1,
        ..pnp_kernel::SearchConfig::default()
    };
    let options = VerifyOptions {
        config: bounded,
        checkpoint: Some((base.clone(), 0)),
        ..VerifyOptions::default()
    };
    let _ = spec.verify_all_with_options(&options);
    let vfs = pnp_kernel::real_fs();
    let (_, snapshot) = pnp_kernel::load_latest_snapshot(&vfs, base)
        .expect("snapshot store readable")
        .expect("budget trip flushed a generation");

    let supervisor = worker_supervisor("seeded");
    let mut request = JobRequest::new(COUNTERS.to_string(), JobConfig::default());
    request.seed_snapshot = Some(snapshot.encode());
    let id = supervisor.submit(request).expect("admitted");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let verdict = loop {
        if let Some(Some(verdict)) = supervisor.verdict(id) {
            break verdict;
        }
        assert!(std::time::Instant::now() < deadline, "job finishes");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(verdict, Verdict::Passed);
    let results = supervisor.results(id).expect("results retained");
    assert_eq!(
        results_fingerprint(&results),
        baseline_fingerprint(COUNTERS)
    );
    supervisor.drain();
}

/// The cluster chaos matrix, small edition: every cluster preset
/// across four seeds, each meeting its required witnesses. CI runs the
/// full 8-seed matrix in release via `chaos_search matrix`; this keeps
/// a debug-build gate in `cargo test`.
#[test]
fn net_chaos_matrix_smoke() {
    for name in PRESETS {
        let expected_jobs = match name {
            "overload_burst" => 5,
            "flapping_worker" => 6,
            _ => 3,
        };
        for seed in 0..4 {
            let schedule = preset(name, seed).unwrap();
            if !schedule.arena.is_cluster() {
                continue;
            }
            let outcome =
                run_generated(&schedule).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(outcome.evidence.jobs, expected_jobs);
        }
    }
}
