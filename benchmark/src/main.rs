//! The reclose benchmark: one command that drives the library crates
//! in-process (`minic` → `cfgir` → `dataflow` → `closer` → `verisoft`, with
//! inputs from `switchsim`), times calls into each layer, checks every
//! output against a known answer, and prints each metric by name with its
//! unit. See `README.md` beside this package for the workloads and the
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fuzz-oracle --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod metrics;
mod probes;
mod stats;
mod steady;
mod trace;
mod workloads;

use inputs::Kind;
use metrics::{Metric, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Tracer, SETUP_PASS};
use workloads::Bench;

/// Timed passes per run, at least; more run while `--seconds` lasts.
pub const MIN_PASSES: usize = 3;
/// Set-ups per run, each generating and preparing the inputs and running
/// the warm-up pass, spread over the timed passes; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 3;
/// Traced passes in a `--trace 1` run.
pub const TRACED_PASSES: usize = 3;

const USAGE: &str = "usage: reclose-benchmark --workload NAME --seed N --seconds S --trace 0|1 \
[--steady RUNS]\nworkloads: explore-spill, fuzz-oracle";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// The run's seed. Both workloads' inputs are the same for every
    /// seed; it names the run's trace file.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Steadiness mode: repeat the run this many times with consecutive
    /// seeds and print each metric's spread.
    pub steady: Option<usize>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace, mut steady) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad("expected a non-negative number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                "--steady" => {
                    let n: usize = value.parse().map_err(|_| bad("expected an integer"))?;
                    if n < 2 {
                        return Err(bad("expected at least 2 runs"));
                    }
                    steady = Some(n);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            steady,
        })
    }
}

/// What a run of passes measured.
#[derive(Default)]
struct Passes {
    /// Per pass, each input's wall time in milliseconds.
    ms: Vec<Vec<f64>>,
    /// Per pass, the peak resident memory while it ran, in MiB.
    peak_rss_mb: Vec<f64>,
}

/// Add passes over every input to `passes` until at least `min_passes`
/// are added and `seconds` have passed, checking each operation and each
/// count against the input's first.
fn run_passes(
    bench: &Bench,
    min_passes: usize,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
    passes: &mut Passes,
) -> Result<(), String> {
    let t = Instant::now();
    let first = passes.ms.len();
    while passes.ms.len() < first + min_passes || t.elapsed().as_secs_f64() < seconds {
        tr.set_pass(passes.ms.len() as u32 + 1);
        reset_peak_rss()?;
        let mut ms = Vec::with_capacity(bench.inputs().len());
        for i in 0..bench.inputs().len() {
            let op = bench.run(i, tr);
            tally.record(i, &bench.inputs()[i].label, op.result);
            ms.push(op.ms);
        }
        passes.ms.push(ms);
        passes.peak_rss_mb.push(peak_rss_mb()?);
    }
    Ok(())
}

/// Each input's median time across passes.
fn per_input_medians(passes: &Passes) -> Vec<f64> {
    (0..passes.ms[0].len())
        .map(|i| stats::median(&passes.ms.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Reset this process's peak-resident-memory mark (`VmHWM`), so that the
/// next [`peak_rss_mb`] covers only what runs after it.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident memory mark: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-up: generate the inputs, prepare them (explore-spill closes its
/// programs), and run the untimed warm-up pass. explore-spill's warm-up
/// explores each program in memory and keeps its report as the reference
/// the spilled runs must reproduce; the other workloads run one pass of
/// their operation. Every CLI user pays a cold first run, so the warm-up
/// counts in set-up.
fn set_up(args: &Args, tr: &mut Tracer, tally: Option<Tally>) -> Result<(Bench, Tally), String> {
    let g = tr.open("switchsim.generate", None);
    let inputs = inputs::generate(args.kind)?;
    tr.close(g);
    let mut tally = tally.unwrap_or_else(|| Tally::new(inputs.len()));
    let mut bench = Bench::new(args.kind, inputs, tr)?;
    if args.kind == Kind::ExploreSpill {
        for (label, result) in bench.record_reference() {
            tally.record_unrepeated(&label, result);
        }
    } else {
        let mut off = Tracer::new(false);
        run_passes(&bench, 1, 0.0, &mut off, &mut tally, &mut Passes::default())?;
    }
    Ok((bench, tally))
}

fn run(args: &Args, start: Instant) -> Result<(), String> {
    // The first set-up is cold and timed from process start; it is the
    // only one traced.
    let mut tr = Tracer::new(args.trace);
    let (mut bench, mut tally) = set_up(args, &mut tr, None)?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let n = bench.inputs().len();
    println!(
        "workload {} seed {}: {n} inputs, hardware_threads {}",
        args.kind.name(),
        args.seed,
        hardware_threads()
    );

    // The timed passes run in SETUP_REPEATS stretches with a fresh set-up
    // before each later one. The set-ups, each a single region of a few
    // seconds, then sample the machine's speed across the whole run like
    // the timed passes do, and `setup_s` is their median.
    let mut timed = Passes::default();
    let mut off = Tracer::new(false);
    for k in 0..SETUP_REPEATS {
        if k > 0 {
            let t = Instant::now();
            (bench, tally) = set_up(args, &mut off, Some(tally))?;
            setups.push(t.elapsed().as_secs_f64());
        }
        let min = MIN_PASSES.div_ceil(SETUP_REPEATS);
        let seconds = args.seconds / SETUP_REPEATS as f64;
        run_passes(&bench, min, seconds, &mut off, &mut tally, &mut timed)?;
    }
    let setup_s = stats::median(&setups);
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "setup: {setup_s:.3} s, median of {SETUP_REPEATS} set-ups ({} s; the first is cold, from process start)",
        each.join(" ")
    );
    let med = per_input_medians(&timed);
    let pass_ms: f64 = med.iter().sum();
    let totals: Vec<String> = timed
        .ms
        .iter()
        .map(|p| format!("{:.1}", p.iter().sum::<f64>()))
        .collect();
    println!(
        "timed passes: {} ({} ms), median pass {:.1} ms (sum of per-input medians)",
        timed.ms.len(),
        totals.join(" "),
        pass_ms
    );
    for (name, v) in tally.count_totals() {
        println!("count {name} = {v}");
    }
    println!("op latency p50 = {:.4} ms", stats::median(&med));
    match stats::tail(&med) {
        Some(t) => println!(
            "op latency p{} = {:.4} ms over {} per-input medians ({} beyond)",
            t.pct, t.value, t.samples, t.beyond
        ),
        None => println!("op latency tail: fewer than 20 inputs, no tail percentile reported"),
    }

    let metrics = if args.trace {
        traced(args, &bench, &mut tr, &mut tally, pass_ms)?
    } else {
        vec![
            Metric::new("setup_s", setup_s),
            Metric::new("programs_per_s", n as f64 / (pass_ms / 1e3)),
            // Occasional transient spikes from the worker threads make the
            // process-lifetime peak noisy; the median pass's is not.
            Metric::new("peak_rss_mb", stats::median(&timed.peak_rss_mb)),
        ]
    };
    for e in tally.failures().iter().take(10) {
        println!("FAILED {e}");
    }
    println!(
        "error_rate = {}/{} = {}",
        tally.failed(),
        tally.attempted(),
        tally.failed() as f64 / tally.attempted() as f64
    );
    let list = if args.trace {
        &metrics::PER_LAYER[..]
    } else {
        &metrics::END_TO_END[..]
    };
    println!("{}", metrics::result_json(&tally, list, &metrics)?);
    Ok(())
}

/// The traced run: traced passes, the `jobs=1` companion pass and the
/// primitive probes, after the untraced passes that give the baseline for
/// the tracing overhead.
fn traced(
    args: &Args,
    bench: &Bench,
    tr: &mut Tracer,
    tally: &mut Tally,
    untraced_pass_ms: f64,
) -> Result<Vec<Metric>, String> {
    let mut passes = Passes::default();
    run_passes(bench, TRACED_PASSES, 0.0, tr, tally, &mut passes)?;
    let traced_pass_ms: f64 = per_input_medians(&passes).iter().sum();
    let overhead_pct = (traced_pass_ms / untraced_pass_ms - 1.0) * 100.0;
    println!(
        "traced passes: {}, median pass {traced_pass_ms:.1} ms",
        passes.ms.len()
    );

    let efficiency = match bench.jobs1_companion(tally) {
        Some((states, jobs1)) => {
            let states_per_s = |d: Duration| states as f64 / d.as_secs_f64();
            let jobs2 = Duration::from_secs_f64(untraced_pass_ms / 1e3);
            let e = states_per_s(jobs2) / (2.0 * states_per_s(jobs1));
            println!(
                "jobs=1 companion: {:.0} states/s; jobs=2: {:.0} states/s",
                states_per_s(jobs1),
                states_per_s(jobs2)
            );
            e
        }
        None => 0.0,
    };
    let probe = probes::run(&bench.probe_programs());
    println!("primitive probes over {} sampled states", probe.states);

    let path = std::path::Path::new(".bench_trace").join(format!(
        "{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    std::fs::create_dir_all(".bench_trace")
        .and_then(|()| std::fs::write(&path, tr.to_json_lines()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", tr.spans().len(), path.display());

    Ok(metrics::layer_metrics(
        &tr.totals(),
        SETUP_PASS,
        overhead_pct,
        efficiency,
        &probe,
    ))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::run(&args, runs);
    }
    // A run that measured exits 0 and reports wrong outputs through
    // `correct` and `failed`.
    match run(&args, start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
