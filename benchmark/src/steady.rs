//! Steadiness mode (`--steady RUNS`): run the workload RUNS times, each in
//! a fresh process with the next seed, and print each metric's median,
//! quartiles and spread (interquartile range over median) next to its
//! bound. Every workload's inputs are the same for every seed, so the
//! exact-repeat counts must be identical across all the runs.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// What one child run printed.
struct RunOutput {
    seed: u64,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, String>,
    correct: bool,
}

fn run_child(args: &Args, seed: u64) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.kind.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("seed {seed}: run exited with {}", out.status));
    }
    let mut run = RunOutput {
        seed,
        metrics: BTreeMap::new(),
        counts: BTreeMap::new(),
        correct: stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": true")),
    };
    for line in stdout.lines() {
        let mut w = line.split_whitespace();
        match (w.next(), w.next(), w.next(), w.next()) {
            (Some("metric"), Some(name), Some("="), Some(v)) => {
                let v = v.parse().map_err(|_| format!("bad metric line {line:?}"))?;
                run.metrics.insert(name.to_string(), v);
            }
            (Some("count"), Some(name), Some("="), Some(v)) => {
                run.counts.insert(name.to_string(), v.to_string());
            }
            _ => {}
        }
    }
    Ok(run)
}

/// Run the steadiness check; exits 1 when a run failed, a count did not
/// repeat, or an end-to-end spread exceeded its bound.
pub fn run(args: &Args, runs: usize) -> ExitCode {
    let mut outputs = Vec::new();
    let (mut correct, mut within) = (true, true);
    for seed in args.seed..args.seed + runs as u64 {
        match run_child(args, seed) {
            Ok(o) => {
                eprintln!("seed {seed}: correct={} {:?}", o.correct, o.metrics);
                correct &= o.correct;
                outputs.push(o);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    }

    println!(
        "workload {}: {runs} runs, seeds {}..={}, {} s each, hardware_threads {}",
        args.kind.name(),
        args.seed,
        args.seed + runs as u64 - 1,
        args.seconds,
        crate::hardware_threads()
    );
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>8} {:>6} {:>6}",
        "metric", "median", "q1", "q3", "spread", "better", "bound"
    );
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for d in defs {
        let vals: Vec<f64> = outputs
            .iter()
            .filter_map(|o| o.metrics.get(d.name).copied())
            .collect();
        if vals.len() != runs {
            println!("{:<30} missing from some runs", d.name);
            correct = false;
            continue;
        }
        let [q1, q2, q3] = quartiles(&vals);
        let med = median(&vals);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let (bound, verdict) = match d.bound {
            Some(b) if spread > b => {
                within = false;
                (format!("{b}"), "OVER")
            }
            Some(b) if spread > b / 3.0 => (format!("{b}"), "wide"),
            Some(b) => (format!("{b}"), "ok"),
            None => ("-".into(), ""),
        };
        debug_assert!((q2 - med).abs() <= 1e-9 * med.abs().max(1.0));
        println!(
            "{:<30} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {:>6} {bound:>6} {verdict} {}",
            d.name,
            if d.higher { "higher" } else { "lower" },
            d.unit
        );
    }

    // Exact-repeat counts across runs of identical inputs.
    let mut repeat = true;
    for b in &outputs[1..] {
        let a = &outputs[0];
        if a.counts != b.counts {
            println!(
                "counts differ between runs of seed {} and {}:\n  {:?}\n  {:?}",
                a.seed, b.seed, a.counts, b.counts
            );
            repeat = false;
        }
    }
    if repeat {
        println!("exact-repeat counts identical: {:?}", outputs[0].counts);
    }
    println!("all runs correct: {correct}");
    println!("every spread within its bound: {within}");
    if correct && within && repeat {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
