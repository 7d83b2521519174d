//! End-to-end tests for the chaos system: the named presets (format
//! round-trips, determinism, and the witnesses that keep them
//! non-vacuous), format error paths, run determinism (including the
//! injected-fault trace), generated injections that actually fire, the
//! shrinker's 1-minimality contract, and the planted-bug detection the
//! committed `chaos-corpus/` guards.

use pnp_serve::chaosgen::{
    generate, preset, replay, run_generated, search, shrink_with, Arena, BugPlant, FaultSchedule,
    Injection, Profile, PRESETS,
};
use proptest::prelude::*;

#[test]
fn matrix_schedule_parsers_reject_unknown_names_and_list_the_valid_ones() {
    let error = preset("not-a-schedule", 0).unwrap_err();
    assert!(error.contains("not-a-schedule"), "{error}");
    for name in [
        "checkpoint-crash",
        "resume-after-spill",
        "worker_crash_mid_job",
        "flapping_worker",
    ] {
        assert!(error.contains(name), "{error}");
    }

    // Every matrix name of the old storage and cluster runners keeps
    // naming a preset.
    assert_eq!(PRESETS.len(), 12);
    for name in PRESETS {
        preset(name, 0).unwrap();
    }
}

#[test]
fn every_preset_roundtrips_and_replays_to_an_identical_outcome() {
    for name in PRESETS {
        let schedule = preset(name, 3).unwrap();
        let parsed = FaultSchedule::parse(&schedule.encode()).unwrap();
        assert_eq!(parsed, schedule, "{name}");
        let a = run_generated(&schedule).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = run_generated(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a, b, "{name}: a parsed preset must replay identically");
    }
}

/// Each preset with its headline fault taken away converges but fails
/// the witness it exists to provoke: the `require` directives are what
/// keep the matrix from passing vacuously.
#[test]
fn a_preset_without_its_headline_event_fails_its_witness_oracle() {
    let without_events = |schedule: &mut FaultSchedule| {
        schedule
            .injections
            .retain(|i| !matches!(i, Injection::Worker { .. } | Injection::CoordRestart { .. }));
    };
    type Weaken<'a> = &'a dyn Fn(&mut FaultSchedule);
    let cases: [(&str, Weaken, &str); 8] = [
        ("checkpoint-crash", &|s| s.injections.clear(), "no-fault"),
        ("drain-crash", &|s| s.injections.clear(), "no-fault"),
        // The crash moved before the spill: the resume is in memory.
        (
            "resume-after-spill",
            &|s| {
                s.injections = FaultSchedule::parse("arena queue\nseed 0\nfs main crash @1")
                    .unwrap()
                    .injections
            },
            "no-disk-resume",
        ),
        ("worker_crash_mid_job", &without_events, "no-migration"),
        // A duplicated completion push may still be fenced; the
        // snapshot ship proves the partition's migration.
        (
            "partition_during_result",
            &without_events,
            "no-snapshot-ship",
        ),
        ("coordinator_restart", &without_events, "no-restore"),
        // The same injections on the plain cluster: no slow worker.
        ("straggler", &|s| s.arena = Arena::Cluster, "no-hedge"),
        ("flapping_worker", &without_events, "no-breaker-trip"),
    ];
    for (name, weaken, oracle) in cases {
        let mut schedule = preset(name, 0).unwrap();
        weaken(&mut schedule);
        let failure = run_generated(&schedule).unwrap_err();
        assert_eq!(failure.oracle, oracle, "{name}: {failure}");
    }
    // The burst needs the arena's two admission slots.
    let mut schedule = preset("overload_burst", 0).unwrap();
    schedule.arena = Arena::Cluster;
    assert_eq!(run_generated(&schedule).unwrap_err().oracle, "no-shed");
}

#[test]
fn fault_schedule_parse_reports_line_numbers_and_valid_alternatives() {
    let error = FaultSchedule::parse("arena queue\nseed 1\n\nfs main melt @3").unwrap_err();
    assert!(error.starts_with("line 4:"), "{error}");
    assert!(error.contains("crash"), "should list valid kinds: {error}");

    let error = FaultSchedule::parse("arena queue\nseed 1\nnet warp @2").unwrap_err();
    assert!(error.contains("drop-request"), "{error}");

    let error = FaultSchedule::parse("arena queue\nseed 1\nexpect nothing").unwrap_err();
    assert!(
        error.contains("lost-commit"),
        "should list oracles: {error}"
    );

    assert!(FaultSchedule::parse("seed 1")
        .unwrap_err()
        .contains("arena"));
    assert!(FaultSchedule::parse("arena queue")
        .unwrap_err()
        .contains("seed"));
}

#[test]
fn every_arena_generates_parseable_deterministic_schedules() {
    for arena in Arena::ALL {
        for seed in [0u64, 1, 0xdead_beef] {
            let a = generate(arena, seed, Profile::Heavy);
            let b = generate(arena, seed, Profile::Heavy);
            assert_eq!(a.encode(), b.encode(), "{arena} seed {seed}");
            assert_eq!(FaultSchedule::parse(&a.encode()).unwrap(), a);
            assert!(!a.injections.is_empty());
        }
    }
}

#[test]
fn same_seed_runs_produce_identical_fired_traces() {
    // The determinism regression the repro commands depend on: two runs
    // of the same schedule observe the exact same injected-fault trace.
    for arena in [Arena::Storage, Arena::Queue] {
        let schedule = generate(arena, 6, Profile::Medium);
        let a = run_generated(&schedule).unwrap();
        let b = run_generated(&schedule).unwrap();
        assert_eq!(a, b, "{arena}: outcome (incl. fired trace) must be stable");
    }
    let schedule = generate(Arena::Cluster, 17, Profile::Medium);
    let a = run_generated(&schedule).unwrap();
    let b = run_generated(&schedule).unwrap();
    assert_eq!(a.fired, b.fired, "cluster fired trace must be stable");
    assert_eq!(a, b);
}

/// Generated injections land inside the windows of the arena's
/// fault-free run, so a medium-profile run nearly always fires one.
fn fires_faults_in(arena: Arena) {
    let silent = (0..40u64)
        .filter(|&seed| {
            let schedule = generate(arena, seed, Profile::Medium);
            let fired = match run_generated(&schedule) {
                Ok(outcome) => outcome.fired,
                Err(failure) => failure.fired,
            };
            fired.is_empty()
        })
        .count();
    assert!(
        silent <= 2,
        "{arena}: {silent} of 40 medium runs fired no fault"
    );
}

#[test]
fn generated_storage_runs_fire_faults() {
    fires_faults_in(Arena::Storage);
    fires_faults_in(Arena::StorageSpill);
}

#[test]
fn generated_cluster_runs_fire_faults() {
    fires_faults_in(Arena::Cluster);
    fires_faults_in(Arena::ClusterHedge);
}

#[test]
fn generated_overload_cluster_runs_fire_faults() {
    fires_faults_in(Arena::ClusterBurst);
    fires_faults_in(Arena::ClusterBreaker);
}

#[test]
fn finished_jobs_leftover_hedges_do_not_hold_worker_slots() {
    // Found by `chaos_search search --seed 5` on the cluster-breaker
    // arena: w2 dies for good, w1's disk crash takes it down and back,
    // and the jobs hedged meanwhile finish. Their hedge records used to
    // keep counting against w1's two in-flight slots, so the remaining
    // jobs were never placed again.
    let text = "\
arena cluster-breaker
seed 12047317805021121321
fs w1 crash @5
net drop-request @2
worker w2 crash @5
";
    let schedule = FaultSchedule::parse(text).unwrap();
    let outcome = run_generated(&schedule).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcome.evidence.jobs, 6);
    assert!(outcome.evidence.hedges >= 1, "{}", outcome.evidence);
}

#[test]
fn same_seed_searches_are_byte_identical() {
    let a = search(Arena::Queue, 41, Profile::Light, 12, BugPlant::None);
    let b = search(Arena::Queue, 41, Profile::Light, 12, BugPlant::None);
    assert_eq!(a, b);
}

#[test]
fn search_finds_the_planted_queue_bug_and_shrinks_it_to_a_minimal_repro() {
    // The acceptance gate: re-introduce the pre-commit_replace queue
    // bug and the bounded search must find it, shrink it to at most 5
    // injections, and the shrunk schedule must replay deterministically.
    let report = search(
        Arena::Queue,
        99,
        Profile::Medium,
        100,
        BugPlant::UnsyncedQueueCommit,
    );
    let hit = report
        .hit
        .expect("the planted bug must be found within 100 iterations");
    let shrunk = &hit.shrunk;
    assert!(
        shrunk.injections.len() <= 5,
        "shrunk to {} injections: {}",
        shrunk.injections.len(),
        shrunk.encode()
    );
    assert_eq!(shrunk.expect.as_deref(), Some(hit.failure.oracle));

    // Replayable from its serialized form, twice, with identical traces.
    let parsed = FaultSchedule::parse(&shrunk.encode()).unwrap();
    replay(&parsed).expect("the minimized schedule must replay its failure");
    let x = run_generated(&parsed).unwrap_err();
    let y = run_generated(&parsed).unwrap_err();
    assert_eq!(x, y, "the minimized failure must be deterministic");
    assert_eq!(x.oracle, hit.failure.oracle);

    // 1-minimality: removing any single remaining injection makes the
    // run pass or changes the failure.
    for index in 0..parsed.injections.len() {
        let mut weaker = parsed.clone();
        weaker.injections.remove(index);
        weaker.expect = None;
        match run_generated(&weaker) {
            Ok(_) => {}
            Err(failure) => assert_ne!(
                failure.oracle, hit.failure.oracle,
                "dropping injection {index} must not reproduce the same failure"
            ),
        }
    }
}

#[test]
fn fixed_corpus_style_schedule_detects_the_plant_without_search() {
    // The exact shape committed to chaos-corpus/: a tiny hand-auditable
    // schedule whose expect directive guards the detection.
    let text = "\
# regression guard: queue commits must be durable before rename
arena queue
seed 17757367667388014226
plant unsynced-queue-commit
expect lost-commit
fs main crash @8
";
    let schedule = FaultSchedule::parse(text).unwrap();
    replay(&schedule).expect("the corpus schedule must keep detecting the plant");

    // And with the plant removed, the shipped commit_replace passes the
    // very same fault — the bug, not the schedule, is what fails.
    let mut fixed = schedule.clone();
    fixed.plant = BugPlant::None;
    fixed.expect = None;
    run_generated(&fixed).expect("commit_replace must survive the same crash");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn shrinker_output_fails_and_is_one_minimal(
        items in proptest::collection::vec(0u32..40, 2..24),
        culprits in proptest::collection::vec(0u32..40, 1..4),
    ) {
        // Synthetic failure predicate: fails iff every culprit value is
        // present. Seed the items so the initial input fails.
        let mut all = items.clone();
        all.extend(culprits.iter().copied());
        let mut calls = 0u32;
        let mut fails = |xs: &[u32]| {
            calls += 1;
            culprits.iter().all(|c| xs.contains(c))
        };
        prop_assert!(fails(&all));
        let shrunk = shrink_with(&all, &mut fails);

        // Contract 1: the shrunk input still fails.
        prop_assert!(fails(&shrunk), "shrunk input must still fail: {:?}", shrunk);

        // Contract 2: 1-minimality — removing any single element passes.
        for index in 0..shrunk.len() {
            let mut weaker = shrunk.clone();
            weaker.remove(index);
            prop_assert!(
                !fails(&weaker),
                "removing element {} of {:?} should make it pass",
                index,
                shrunk
            );
        }

        // For this predicate the true minimum is the culprit set itself.
        let mut expected: Vec<u32> = culprits.clone();
        expected.sort_unstable();
        expected.dedup();
        let mut got = shrunk.clone();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
