//! Unified chaos driver: the curated fault matrix, the randomized
//! fault-schedule search, and deterministic corpus replay — one binary,
//! three subcommands.
//!
//! * `matrix` — the curated (preset, seed) grid: every named preset
//!   schedule (storage, queue, and cluster) run through its arena with
//!   its required witnesses checked. `--schedule` narrows to one preset.
//! * `search` — bounded randomized search: generate a fault schedule
//!   from a seed, run it through the invariant oracle, and on failure
//!   shrink it to a 1-minimal repro file ready to commit to
//!   `chaos-corpus/`.
//! * `replay` — re-run committed schedule files (or whole directories)
//!   deterministically; exits nonzero on any divergence, so CI replays
//!   the corpus on every PR.
//!
//! Examples:
//!
//! ```text
//! chaos_search matrix --seeds 8
//! chaos_search matrix --schedule enospc --seed 3
//! chaos_search search --arena queue --seed 7 --iterations 200 --out chaos-corpus
//! chaos_search replay chaos-corpus
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use pnp_serve::chaosgen::{
    matrix_repro, preset, replay, replay_repro, run_generated, search, Arena, BugPlant,
    FaultSchedule, Profile, PRESETS,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("matrix") => cmd_matrix(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("--help") | Some("-h") | None => usage(""),
        Some(other) => usage(&format!(
            "unknown subcommand '{other}' (want matrix, search, or replay)"
        )),
    }
}

fn cmd_matrix(args: &[String]) -> ExitCode {
    let mut seeds: u64 = 8;
    let mut single_seed: Option<u64> = None;
    let mut only: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seeds" => {
                let value = iter.next().cloned().unwrap_or_default();
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => seeds = n,
                    _ => return usage(&format!("--seeds '{value}': want a positive integer")),
                }
            }
            "--seed" => {
                let value = iter.next().cloned().unwrap_or_default();
                match value.parse::<u64>() {
                    Ok(n) => single_seed = Some(n),
                    _ => return usage(&format!("--seed '{value}': want an integer")),
                }
            }
            "--schedule" => {
                let value = iter.next().map(String::as_str).unwrap_or_default();
                match PRESETS.iter().find(|name| **name == value) {
                    Some(name) => only = Some(name),
                    None => return usage(&preset(value, 0).unwrap_err()),
                }
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let seed_range: Vec<u64> = match single_seed {
        Some(seed) => vec![seed],
        None => (0..seeds).collect(),
    };
    let names: Vec<&str> = match only {
        Some(name) => vec![name],
        None => PRESETS.to_vec(),
    };

    println!(
        "== chaos matrix: {} seed(s) x {} preset(s) ==",
        seed_range.len(),
        names.len()
    );
    println!(
        "{:<24} {:>5} {:<15} {:>8} {:>7} {:>6}  evidence; detail",
        "preset", "seed", "arena", "att/step", "reboots", "faults"
    );
    let mut failures = 0u64;
    for &name in &names {
        for &seed in &seed_range {
            let schedule = preset(name, seed).expect("a listed preset");
            match run_generated(&schedule) {
                Ok(outcome) => println!(
                    "{:<24} {:>5} {:<15} {:>8} {:>7} {:>6}  {}; {}",
                    name,
                    seed,
                    schedule.arena.as_str(),
                    outcome.attempts,
                    outcome.reboots,
                    outcome.fired.len(),
                    outcome.evidence,
                    outcome.detail,
                ),
                Err(failure) => {
                    println!(
                        "{name:<24} {seed:>5} {:<15} FAILED: {failure}\n  repro: {}",
                        schedule.arena.as_str(),
                        matrix_repro(name, seed)
                    );
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("chaos matrix: {failures} cell(s) violated an invariant");
        return ExitCode::FAILURE;
    }
    println!("chaos matrix: all cells clean");
    ExitCode::SUCCESS
}

fn cmd_search(args: &[String]) -> ExitCode {
    let mut arenas: Vec<Arena> = Arena::ALL.to_vec();
    let mut seed: u64 = 0;
    let mut profile = Profile::Medium;
    let mut iterations: u64 = 50;
    let mut plant = BugPlant::None;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--arena" => {
                let value = iter.next().cloned().unwrap_or_default();
                match Arena::parse(&value) {
                    Ok(arena) => arenas = vec![arena],
                    Err(error) => return usage(&error),
                }
            }
            "--seed" => {
                let value = iter.next().cloned().unwrap_or_default();
                match value.parse::<u64>() {
                    Ok(n) => seed = n,
                    _ => return usage(&format!("--seed '{value}': want an integer")),
                }
            }
            "--profile" => {
                let value = iter.next().cloned().unwrap_or_default();
                match Profile::parse(&value) {
                    Ok(p) => profile = p,
                    Err(error) => return usage(&error),
                }
            }
            "--iterations" => {
                let value = iter.next().cloned().unwrap_or_default();
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => iterations = n,
                    _ => return usage(&format!("--iterations '{value}': want a positive integer")),
                }
            }
            "--plant" => {
                let value = iter.next().cloned().unwrap_or_default();
                match BugPlant::parse(&value) {
                    Ok(p) => plant = p,
                    Err(error) => return usage(&error),
                }
            }
            "--out" => {
                let value = iter.next().cloned().unwrap_or_default();
                if value.is_empty() {
                    return usage("--out: want a directory path");
                }
                out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    let mut hits = 0u64;
    for &arena in &arenas {
        println!(
            "== chaos search: arena {arena}, seed {seed}, profile {profile}, \
             up to {iterations} iterations =="
        );
        let report = search(arena, seed, profile, iterations, plant);
        match report.hit {
            None => println!(
                "{arena}: {} iteration(s), no invariant violation",
                report.iterations
            ),
            Some(hit) => {
                hits += 1;
                println!(
                    "{arena}: iteration {} (case seed {}) FAILED:\n{}",
                    hit.iteration, hit.case_seed, hit.failure
                );
                println!(
                    "  shrunk {} -> {} injection(s)",
                    hit.schedule.injections.len(),
                    hit.shrunk.injections.len()
                );
                let encoded = hit.shrunk.encode();
                match &out {
                    Some(dir) => {
                        let name = format!(
                            "{}-{}-{}.schedule",
                            arena, hit.failure.oracle, hit.case_seed
                        );
                        let path = dir.join(name);
                        if let Err(error) = std::fs::create_dir_all(dir)
                            .and_then(|()| std::fs::write(&path, &encoded))
                        {
                            eprintln!("chaos_search: cannot write {}: {error}", path.display());
                            return ExitCode::FAILURE;
                        }
                        println!("  minimized repro written to {}", path.display());
                        println!("  repro: {}", replay_repro(&path.display().to_string()));
                    }
                    None => {
                        println!("  minimized schedule:\n{}", indent(&encoded));
                        println!(
                            "  repro: save the schedule above and run: {}",
                            replay_repro("<file>")
                        );
                    }
                }
            }
        }
    }
    if hits > 0 {
        eprintln!("chaos search: {hits} arena(s) produced a minimized failure");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return usage(""),
            other if other.starts_with("--") => {
                return usage(&format!("unknown argument '{other}'"))
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return usage("replay: want one or more schedule files or directories");
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = match std::fs::read_dir(&path) {
                Ok(dir) => dir
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|ext| ext == "schedule"))
                    .collect(),
                Err(error) => {
                    eprintln!("chaos_search: cannot read {}: {error}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            entries.sort();
            if entries.is_empty() {
                eprintln!("chaos_search: {} holds no .schedule files", path.display());
                return ExitCode::FAILURE;
            }
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    println!("== chaos replay: {} schedule file(s) ==", files.len());
    let mut failures = 0u64;
    for file in &files {
        let display = file.display();
        let schedule = match std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| FaultSchedule::parse(&text))
        {
            Ok(schedule) => schedule,
            Err(error) => {
                println!("{display}: PARSE ERROR: {error}");
                failures += 1;
                continue;
            }
        };
        match replay(&schedule) {
            Ok(message) => println!("{display}: {message}"),
            Err(message) => {
                println!(
                    "{display}: DIVERGED: {message}\n  repro: {}",
                    replay_repro(&display.to_string())
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("chaos replay: {failures} schedule(s) diverged");
        return ExitCode::FAILURE;
    }
    println!("chaos replay: corpus is green");
    ExitCode::SUCCESS
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|line| format!("    {line}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("chaos_search: {error}");
    }
    eprintln!(
        "usage: chaos_search <subcommand> [flags]\n\
         \n\
         subcommands:\n\
         \x20 matrix  [--seeds N] [--seed N] [--schedule NAME]\n\
         \x20         the curated preset matrix; NAME is one preset (default: all)\n\
         \x20 search  [--arena storage|storage-spill|queue|cluster|cluster-hedge|\n\
         \x20         cluster-burst|cluster-breaker] [--seed N]\n\
         \x20         [--profile light|medium|heavy] [--iterations N]\n\
         \x20         [--plant none|unsynced-queue-commit] [--out DIR]\n\
         \x20         bounded randomized fault-schedule search with shrinking\n\
         \x20 replay  <file-or-dir>...\n\
         \x20         deterministically replay committed schedule files"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
