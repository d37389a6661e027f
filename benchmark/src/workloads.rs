//! The timed operation of each workload, its known-answer check, and the
//! spans the traced run records around it.
//!
//! | workload      | one operation                                          |
//! |---------------|--------------------------------------------------------|
//! | explore-spill | `verisoft::explore`, frontier engine, jobs=2, spilling |
//! | fuzz-oracle   | `switchsim::corpus::close_and_check`                   |

use crate::inputs::{Expect, Input, Kind};
use crate::metrics::Tally;
use crate::trace::{SpanId, Tracer};
use cfgir::CfgProgram;
use closer::{Pipeline, PipelineOptions, PipelineRun};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use switchsim::corpus::{self, CheckOutcome, OracleLimits};
use verisoft::{Config, Engine, Report, ViolationKind};

/// Worker threads of explore-spill (`--jobs auto` on a machine with two
/// hardware threads; fixed so results compare across machines).
pub const EXPLORE_JOBS: usize = 2;
/// `explore-spill`: resident-state budget in bytes.
pub const SPILL_MEM_LIMIT: usize = 1 << 20;
/// `explore-spill`: checkpoint period in frontier levels.
pub const SPILL_CHECKPOINT_EVERY: usize = 4;

/// Most programs the primitive probes sample states from.
pub const PROBE_PROGRAMS: usize = 64;

/// Deterministic counts an operation produced; they must repeat exactly
/// across passes and runs.
pub type Counts = BTreeMap<&'static str, u64>;

/// One timed operation: its wall time and its counts, or why its output
/// was wrong.
pub struct Op {
    /// Wall time of the operation in milliseconds (checks excluded).
    pub ms: f64,
    /// Counts, or the failure.
    pub result: Result<Counts, String>,
}

/// Map a pipeline pass name to the layer span that reports it.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "parse" => "minic.parse",
        "sema" => "minic.sema",
        "normalize" => "minic.normalize",
        "cfg-build" => "cfgir.build",
        "canon" => "cfgir.canon",
        "refine" => "closer.refine",
        "points-to" => "dataflow.points_to",
        "mod-ref" => "dataflow.mod_ref",
        "defuse" => "dataflow.defuse",
        "taint" => "dataflow.taint",
        "transform" => "closer.transform",
        "refine-cex" => "closer.refine_cex",
        other => panic!("unknown pipeline pass {other}"),
    }
}

/// Close `src` with a fresh pipeline at the CLI defaults (jobs=1) inside
/// a `closer.close` span whose children are the pipeline's own per-pass
/// timings.
fn close(src: &str, tr: &mut Tracer, parent: Option<SpanId>) -> Result<PipelineRun, String> {
    let span = tr.open("closer.close", parent);
    let run = Pipeline::new(PipelineOptions::default()).close(src);
    tr.close(span);
    let run = run.map_err(|d| format!("close failed:\n{d}"))?;
    if tr.on() {
        for row in run.passes.iter().filter(|r| r.invocations > 0) {
            tr.child(span, pass_span(row.name), row.wall);
        }
        let (nodes, arcs, tosses) = close_counts(&run);
        tr.count(span, "cfgir.nodes", nodes);
        tr.count(span, "dataflow.defuse_arcs", arcs);
        tr.count(span, "closer.toss_sites", tosses);
    }
    Ok(run)
}

/// CFG nodes built, define-use arcs, and toss sites inserted.
fn close_counts(run: &PipelineRun) -> (u64, u64, u64) {
    let facts = |name: &str| {
        run.passes
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.facts)
    };
    let tosses = run
        .closed
        .reports
        .iter()
        .map(|r| r.toss_nodes_inserted as u64)
        .sum();
    (facts("cfg-build"), facts("defuse"), tosses)
}

/// explore-spill's engine configuration: the CLI's
/// `explore --stateful --all --jobs N`, plus `--mem-limit` and
/// `--checkpoint-dir` when `spill` names a directory. Without one it is
/// the in-memory reference run.
pub fn explore_config(jobs: usize, spill: Option<&Path>) -> Config {
    Config {
        engine: Engine::StatefulParallel,
        jobs,
        max_violations: usize::MAX,
        mem_limit: if spill.is_some() {
            SPILL_MEM_LIMIT
        } else {
            usize::MAX
        },
        checkpoint_dir: spill.map(Path::to_path_buf),
        checkpoint_every: SPILL_CHECKPOINT_EVERY,
        ..Config::default()
    }
}

/// Check an exploration report against the input's known answer.
fn check_verdicts(prog: &CfgProgram, r: &Report, expect: Expect) -> Result<(), String> {
    if r.truncated {
        return Err("exploration truncated".into());
    }
    let ok = match expect {
        Expect::Clean => r.violations.is_empty(),
        Expect::Deadlock => {
            !r.violations.is_empty()
                && r.violations
                    .iter()
                    .all(|v| v.kind == ViolationKind::Deadlock)
        }
        Expect::AssertIn(name) => {
            !r.violations.is_empty()
                && r.violations.iter().all(|v| {
                    v.kind == ViolationKind::AssertionViolation
                        && v.process.is_some_and(|p| {
                            prog.proc(verisoft::state::spec_proc(prog, p)).name == name
                        })
                })
        }
        Expect::Agreement => unreachable!("not an exploration input"),
    };
    if ok {
        Ok(())
    } else {
        let kinds: BTreeSet<String> = r.violations.iter().map(|v| v.to_string()).collect();
        Err(format!(
            "expected {expect:?}, got {} violation(s): {:?}",
            r.violations.len(),
            kinds.iter().take(3).collect::<Vec<_>>()
        ))
    }
}

/// Stable digest of a report's full text, the surface that the spill
/// contract keeps byte-identical.
fn report_digest(r: &Report) -> u64 {
    stablehash::stable_hash_bytes(r.to_string().as_bytes())
}

/// Bytes of all regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Attach a report's layer counts to span `s`.
fn count_report(tr: &mut Tracer, s: SpanId, r: &Report) {
    for (name, v) in [
        ("verisoft.states", r.states),
        ("verisoft.transitions", r.transitions),
        ("verisoft.visited_bytes", r.visited_bytes),
        ("verisoft.visited_states", r.visited_states),
        ("state.interner_entries", r.interner_entries),
        ("store.batch_ops", r.store_batch_ops),
        ("store.batch_items", r.store_batch_items),
        ("store.spilled_entries", r.store_spilled_entries),
        ("store.segments", r.store_segments),
        ("store.prefilter_probes", r.prefilter_probes),
        ("store.prefilter_hits", r.prefilter_hits),
        ("frontier.chunks", r.pipeline_chunks),
        ("frontier.overlapped_chunks", r.pipeline_overlapped_chunks),
        ("checkpoint.count", r.checkpoints_written),
        ("por.proviso_fallbacks", r.por_proviso_fallbacks),
    ] {
        tr.count(s, name, v as u64);
    }
}

/// A workload's inputs plus everything prepared from them in set-up.
pub struct Bench {
    kind: Kind,
    inputs: Vec<Input>,
    /// explore-spill: the closed programs (closed during set-up).
    closed: Vec<CfgProgram>,
    /// explore-spill: each program's define-use arcs and toss sites.
    closing: Vec<(u64, u64)>,
    /// explore-spill: digest of each program's in-memory report.
    reference: Vec<u64>,
    /// explore-spill: directory for spill segments and checkpoints.
    spill_root: PathBuf,
    limits: OracleLimits,
}

impl Bench {
    /// Prepare `inputs` for `kind`: explore-spill closes its programs
    /// here, so closing stays out of its timed passes.
    ///
    /// # Errors
    ///
    /// A program that fails to close.
    pub fn new(kind: Kind, inputs: Vec<Input>, tr: &mut Tracer) -> Result<Bench, String> {
        let (mut closed, mut closing) = (Vec::new(), Vec::new());
        if kind == Kind::ExploreSpill {
            for (i, input) in inputs.iter().enumerate() {
                tr.set_program(i);
                let run = close(&input.src, tr, None)?;
                let (_, arcs, tosses) = close_counts(&run);
                closing.push((arcs, tosses));
                closed.push(run.closed.program);
            }
        }
        let spill_root = PathBuf::from(".bench_spill").join(std::process::id().to_string());
        Ok(Bench {
            kind,
            inputs,
            closed,
            closing,
            reference: Vec::new(),
            spill_root,
            limits: OracleLimits::default(),
        })
    }

    /// The workload's inputs.
    pub fn inputs(&self) -> &[Input] {
        &self.inputs
    }

    /// explore-spill's warm-up: explore each program in memory, check
    /// it, and keep its report as the reference the spilled runs must
    /// reproduce byte for byte. Returns each program's label and outcome.
    pub fn record_reference(&mut self) -> Vec<(String, Result<(), String>)> {
        let mut out = Vec::new();
        for (prog, input) in self.closed.iter().zip(&self.inputs) {
            let r = verisoft::explore(prog, &explore_config(EXPLORE_JOBS, None));
            out.push((input.label.clone(), check_verdicts(prog, &r, input.expect)));
            self.reference.push(report_digest(&r));
        }
        out
    }

    /// Run input `i` once: time the operation, then check its output.
    /// A panic counts as a failed operation and never aborts the run.
    pub fn run(&self, i: usize, tr: &mut Tracer) -> Op {
        tr.set_program(i);
        let mut ms = 0.0;
        let result = catch_unwind(AssertUnwindSafe(|| match self.kind {
            Kind::ExploreSpill => self.explore_one(i, EXPLORE_JOBS, tr, &mut ms),
            Kind::FuzzOracle if tr.on() => self.check_one_traced(i, tr, &mut ms),
            Kind::FuzzOracle => self.check_one(i, &mut ms),
        }))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        });
        Op { ms, result }
    }

    fn explore_one(
        &self,
        i: usize,
        jobs: usize,
        tr: &mut Tracer,
        ms: &mut f64,
    ) -> Result<Counts, String> {
        let dir = self.spill_root.join(format!("p{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cfg = explore_config(jobs, Some(&dir));
        let prog = &self.closed[i];
        let s = tr.open("verisoft.explore", None);
        let t = Instant::now();
        let r = verisoft::explore(prog, &cfg);
        *ms = t.elapsed().as_secs_f64() * 1e3;
        tr.close(s);
        if tr.on() {
            tr.count(s, "spill.disk_bytes", dir_bytes(&dir));
            count_report(tr, s, &r);
        }
        let _ = std::fs::remove_dir_all(&dir);
        check_verdicts(prog, &r, self.inputs[i].expect)?;
        if report_digest(&r) != self.reference[i] {
            return Err("spilled report differs from the in-memory report".into());
        }
        let (arcs, tosses) = self.closing[i];
        Ok(Counts::from([
            ("defuse_arcs", arcs),
            ("toss_sites", tosses),
            ("states", r.states as u64),
            ("transitions", r.transitions as u64),
            ("violations", r.violations.len() as u64),
            ("spilled_entries", r.store_spilled_entries as u64),
            ("checkpoints", r.checkpoints_written as u64),
        ]))
    }

    fn oracle_counts(out: CheckOutcome) -> Counts {
        match out {
            CheckOutcome::Agreement {
                verdicts,
                runs,
                stateless_skipped,
            } => Counts::from([
                ("explore_runs", runs as u64),
                ("verdicts", verdicts.len() as u64),
                ("stateless_skipped", u64::from(stateless_skipped)),
                ("too_big", 0),
            ]),
            CheckOutcome::TooBig => Counts::from([("too_big", 1)]),
        }
    }

    fn check_one(&self, i: usize, ms: &mut f64) -> Result<Counts, String> {
        let t = Instant::now();
        let out = corpus::close_and_check(&self.inputs[i].src, &self.limits);
        *ms = t.elapsed().as_secs_f64() * 1e3;
        out.map(Self::oracle_counts)
    }

    /// `close_and_check` taken apart into its three legs so each gets a
    /// span: closing, the cross-engine matrix, and the refinement leg
    /// (counterexample-guided toss refinement, then a re-exploration whose
    /// verdict kinds must match the matrix's).
    fn check_one_traced(&self, i: usize, tr: &mut Tracer, ms: &mut f64) -> Result<Counts, String> {
        let t = Instant::now();
        let cc = tr.open("switchsim.close_and_check", None);
        let result = self.legs(i, tr, cc);
        tr.close(cc);
        *ms = t.elapsed().as_secs_f64() * 1e3;
        result.map(Self::oracle_counts)
    }

    fn legs(&self, i: usize, tr: &mut Tracer, cc: SpanId) -> Result<CheckOutcome, String> {
        let leg = tr.open("fuzz.close", Some(cc));
        let run = close(&self.inputs[i].src, tr, Some(leg));
        tr.close(leg);
        let run = run?;
        if !run.closed.program.is_closed() {
            return Err("closing left an open interface".into());
        }
        let leg = tr.open("fuzz.cross_check", Some(cc));
        let out = corpus::cross_check(&run.closed.program, &self.limits);
        tr.close(leg);
        let out = out?;
        let CheckOutcome::Agreement { verdicts, runs, .. } = &out else {
            tr.count(cc, "fuzz.too_big", 1);
            return Ok(out);
        };
        tr.count(cc, "fuzz.explore_runs", *runs as u64);
        let leg = tr.open("fuzz.refine_leg", Some(cc));
        let opts = closer::CexOptions {
            max_depth: self.limits.max_depth,
            max_transitions: self.limits.max_transitions,
            ..closer::CexOptions::default()
        };
        let s = tr.open("closer.refine_cex", Some(leg));
        let (refined, _) = closer::refine_cex(&run.program, &run.closed, &opts);
        tr.close(s);
        let cfg = Config {
            engine: Engine::Bfs,
            por: false,
            sleep_sets: false,
            jobs: 1,
            max_depth: self.limits.max_depth,
            max_transitions: self.limits.max_transitions,
            max_violations: usize::MAX,
            ..Config::default()
        };
        let s = tr.open("verisoft.explore", Some(leg));
        let r = verisoft::explore(&refined, &cfg);
        tr.close(s);
        count_report(tr, s, &r);
        tr.close(leg);
        let got: BTreeSet<String> = r.violations.iter().map(|v| v.kind.to_string()).collect();
        let want: BTreeSet<String> = verdicts.iter().map(|(k, _)| k.clone()).collect();
        if r.truncated || got != want {
            return Err(format!("refined close disagrees: {got:?} vs {want:?}"));
        }
        Ok(out)
    }

    /// The traced run's `jobs=1` companion pass over explore-spill's
    /// programs: explored states and seconds at one worker. Each run is
    /// checked like a timed one and recorded in `tally`. `None` for the
    /// workloads that explore no fixed programs, or when a run failed.
    pub fn jobs1_companion(&self, tally: &mut Tally) -> Option<(u64, Duration)> {
        if self.kind != Kind::ExploreSpill {
            return None;
        }
        let mut tr = Tracer::new(false);
        let (mut states, mut time, mut ok) = (0u64, Duration::ZERO, true);
        for i in 0..self.closed.len() {
            let mut ms = 0.0;
            let result = self.explore_one(i, 1, &mut tr, &mut ms);
            if let Ok(counts) = &result {
                states += counts["states"];
                time += Duration::from_secs_f64(ms / 1e3);
            }
            ok &= result.is_ok();
            let label = format!("{} (jobs=1)", self.inputs[i].label);
            tally.record_unrepeated(&label, result.map(|_| ()));
        }
        ok.then_some((states, time))
    }

    /// Closed programs whose reachable states the primitive probes
    /// sample: the explored programs, or up to [`PROBE_PROGRAMS`] inputs
    /// spread evenly over the input set, closed here (untimed).
    pub fn probe_programs(&self) -> Vec<CfgProgram> {
        if !self.closed.is_empty() {
            return self.closed.clone();
        }
        let step = self.inputs.len().div_ceil(PROBE_PROGRAMS).max(1);
        let mut tr = Tracer::new(false);
        self.inputs
            .iter()
            .step_by(step)
            .filter_map(|input| close(&input.src, &mut tr, None).ok())
            .map(|run| run.closed.program)
            .collect()
    }
}

impl Drop for Bench {
    /// Remove the spill directory, and its shared parent once no other
    /// run is using it.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_root);
        if let Some(parent) = self.spill_root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
