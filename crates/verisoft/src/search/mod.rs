//! Systematic state-space exploration: search drivers over the
//! [`Executor`](crate::executor::Executor) transition-system API.
//!
//! The engines share one transition semantics (the executor layer) and
//! differ only in search policy:
//!
//! - [`Engine::Stateless`] ([`StatelessDfs`]) — the faithful VeriSoft
//!   search: no state is ever stored; the depth-bounded tree of decision
//!   sequences is explored with persistent sets and sleep sets pruning
//!   it. Completeness for deadlocks and assertion violations holds on
//!   acyclic state spaces (and "complete coverage up to some depth" in
//!   general), exactly the guarantee \[God97\] gives.
//! - [`Engine::Stateful`] ([`StatefulDfs`]) — a conventional
//!   explicit-state DFS that stores full visited states (not hashes, so
//!   no collision unsoundness), used when the state space has cycles or
//!   when benchmarks need exhaustive state counts.
//! - [`Engine::Bfs`] — explicit-state breadth-first: the frontier
//!   engine ([`StatefulParallel`]) on one worker, so the first violation
//!   reported has a *shortest* reproducing trace.
//! - [`Engine::Parallel`] ([`ParallelStateless`]) — deterministic
//!   sharded stateless search: the decision-prefix tree is split into
//!   shards explored by worker threads — with idle workers *stealing*
//!   prefix-splits of pending subtrees — and results merged in shard
//!   order so the report is byte-identical for any worker count (see
//!   [`parallel`]).
//! - [`Engine::StatefulParallel`] ([`StatefulParallel`]) — deterministic
//!   parallel explicit-state frontier search over a tiered, spillable
//!   [`TieredStore`] with a jobs-invariant admission order (see
//!   [`store`]); byte-identical reports for any worker count, any
//!   memory budget, and across checkpoint/resume.
//!
//! All engines treat a `VS_toss` inside a transition as a branch point,
//! observed and controlled by the scheduler exactly as VeriSoft observes
//! toss operations.

use crate::executor::Executor;
use crate::interp::{EnvMode, ExecLimits};
use crate::report::Report;
use cfgir::CfgProgram;

pub mod parallel;
pub mod stateful;
pub mod stateless;
pub mod store;

pub use parallel::ParallelStateless;
pub use stateful::{StatefulDfs, StatefulParallel};
pub use stateless::StatelessDfs;
pub use store::{TieredStore, VisitedStore};

/// Validate a checkpoint directory against the program and configuration
/// about to resume it (cheap: reads only the manifest prologue). The CLI
/// calls this before starting the engine so a mismatched `--resume`
/// surfaces as a clean error instead of a mid-run panic.
///
/// # Errors
///
/// Returns a human-readable description of the mismatch (missing or
/// torn manifest, incompatible store format version, different program
/// content hash, or different exploration configuration).
pub fn validate_checkpoint(
    dir: &std::path::Path,
    prog: &CfgProgram,
    cfg: &Config,
) -> Result<(), String> {
    store::checkpoint::validate(
        dir,
        cfgir::program_content_hash(prog),
        store::checkpoint::config_digest(cfg),
    )
}

/// Which exploration engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Depth-bounded stateless search with deterministic replayable traces
    /// (VeriSoft's approach).
    #[default]
    Stateless,
    /// Explicit-state DFS storing visited states.
    Stateful,
    /// Explicit-state breadth-first search: the first violation reported
    /// has a *shortest* reproducing trace (best for debugging; stores
    /// visited states like [`Engine::Stateful`]). Runs the frontier
    /// algorithm of [`Engine::StatefulParallel`] on a single worker, so
    /// the two are byte-identical by construction.
    Bfs,
    /// Sharded stateless search across [`Config::jobs`] worker threads;
    /// deterministic — same report for any job count.
    Parallel,
    /// Parallel explicit-state frontier search across [`Config::jobs`]
    /// worker threads, sharing a lock-striped visited store with a
    /// jobs-invariant admission order; deterministic — same report for
    /// any job count, and equal to [`Engine::Bfs`] (the same algorithm
    /// on one worker) byte for byte.
    StatefulParallel,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Engine selection.
    pub engine: Engine,
    /// Open-interface runtime behavior.
    pub env_mode: EnvMode,
    /// Interpreter limits.
    pub limits: ExecLimits,
    /// Maximum path length in transitions.
    pub max_depth: usize,
    /// Hard cap on transitions executed; exceeded ⇒ `truncated`. The
    /// parallel engine gives the sharding pass the full cap and each
    /// shard an equal share of it — the shard count does not depend on
    /// the worker count, so neither does the cap's effect.
    pub max_transitions: usize,
    /// Use persistent-set partial-order reduction. The stateful engines
    /// additionally apply the ignoring/cycle proviso (full expansion when
    /// a reduced successor is already visited), preserving deadlocks
    /// *and* assertion violations on cyclic state spaces — see
    /// [`crate::executor::Executor::expand_stateful`].
    pub por: bool,
    /// Use sleep sets (stateless engines only).
    pub sleep_sets: bool,
    /// Stop after this many violations.
    pub max_violations: usize,
    /// Treat the all-terminated state as a deadlock (the paper's strict
    /// reading: top-level termination blocks forever). Daemon
    /// (environment-feeder) processes never count either way.
    pub strict_termination_deadlock: bool,
    /// Collect the set of maximal visible-event traces (stateless
    /// engines; disable reductions for exact trace sets).
    pub collect_traces: bool,
    /// Record which CFG nodes were executed ([`Report::coverage`]).
    pub track_coverage: bool,
    /// Worker threads for [`Engine::Parallel`] (ignored by the
    /// sequential engines; `0` means 1).
    pub jobs: usize,
    /// Target shard count for [`Engine::Parallel`]'s sharding pass.
    /// Deliberately *never* derived from `jobs`: the shard set — and
    /// therefore the merged report — must be identical for any worker
    /// count. `0` selects the adaptive target, which the sharding pass
    /// derives from the tree statistics it observes (the average
    /// branching factor of the nodes it expands) — still jobs-invariant,
    /// because sharding is a sequential pass over the same tree prefix
    /// regardless of worker count. A nonzero value pins the target
    /// (default 64).
    pub shard_target: usize,
    /// Soft byte budget for the frontier engines' resident search state
    /// (visited store + frontier). `usize::MAX` (the default) means
    /// unbounded: everything stays in memory and no disk is ever
    /// touched. A finite budget makes the [`TieredStore`] spill sealed
    /// states to disk segments and the frontier spool excess entries —
    /// the report is byte-identical either way (see [`store`]).
    pub mem_limit: usize,
    /// Directory for spill segments and periodic checkpoints (frontier
    /// engines). `None` with a finite [`Config::mem_limit`] spills into
    /// a self-cleaning temp dir; `Some` additionally enables
    /// checkpointing every [`Config::checkpoint_every`] frontier levels.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Checkpoint period in frontier levels (when
    /// [`Config::checkpoint_dir`] is set; `0` means the default of 32).
    pub checkpoint_every: usize,
    /// Resume from the checkpoint in [`Config::checkpoint_dir`] instead
    /// of starting fresh. The resumed run completes with a report
    /// byte-identical to an uninterrupted one, for any `jobs` and any
    /// `mem_limit` (both are excluded from the checkpoint's config
    /// digest because they are determinism-invariant).
    pub resume: bool,
    /// Test hook: abort the search (returning a truncated partial
    /// report) immediately after the Nth checkpoint is written. Lets
    /// kill/resume tests exercise the crash path in-process,
    /// deterministically, at an instant where the checkpoint on disk is
    /// complete.
    pub abort_after_checkpoints: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            engine: Engine::Stateless,
            env_mode: EnvMode::Closed,
            limits: ExecLimits::default(),
            max_depth: 2_000,
            max_transitions: 5_000_000,
            por: true,
            sleep_sets: true,
            max_violations: 1,
            strict_termination_deadlock: false,
            collect_traces: false,
            track_coverage: false,
            jobs: 1,
            shard_target: 64,
            mem_limit: usize::MAX,
            checkpoint_dir: None,
            checkpoint_every: 32,
            resume: false,
            abort_after_checkpoints: None,
        }
    }
}

impl Config {
    /// A configuration with every reduction disabled — full interleaving
    /// semantics, exact trace sets.
    pub fn exhaustive() -> Self {
        Config {
            por: false,
            sleep_sets: false,
            max_violations: usize::MAX,
            ..Config::default()
        }
    }
}

/// A search policy over the executor's transition-system API.
///
/// Implementations own all search-side state (visited sets, DFS paths,
/// result accumulation); the executor they are handed is immutable and
/// shareable. [`explore`] is the convenience entry point that builds the
/// executor and dispatches on [`Config::engine`], but drivers can be run
/// directly against a hand-built [`Executor`] too.
pub trait SearchDriver {
    /// Explore from the executor's initial state and report the result.
    fn run(&mut self, exec: &Executor<'_>) -> Report;
}

/// The driver implementing an engine selection.
pub fn driver_for(engine: Engine) -> Box<dyn SearchDriver> {
    match engine {
        Engine::Stateless => Box::new(StatelessDfs),
        Engine::Stateful => Box::new(StatefulDfs),
        Engine::Bfs => Box::new(StatefulParallel { jobs: Some(1) }),
        Engine::Parallel => Box::new(ParallelStateless),
        Engine::StatefulParallel => Box::new(StatefulParallel { jobs: None }),
    }
}

/// Explore the state space of `prog` under `config`.
///
/// # Panics
///
/// Panics when `prog` fails [`cfgir::validate()`] (malformed graphs).
pub fn explore(prog: &CfgProgram, config: &Config) -> Report {
    let exec = Executor::new(prog, config);
    driver_for(config.engine).run(&exec)
}

/// Replay a decision sequence from the initial state, returning the final
/// state (used to reproduce reported violations, VeriSoft's replay
/// feature).
///
/// # Errors
///
/// Returns the failing [`crate::TransitionResult`] when the trace does
/// not replay cleanly (e.g. it ends in the recorded violation).
pub fn replay(
    prog: &CfgProgram,
    trace: &[crate::report::Decision],
    env_mode: EnvMode,
    limits: &ExecLimits,
) -> Result<crate::state::GlobalState, crate::interp::TransitionResult> {
    let config = Config {
        env_mode,
        limits: *limits,
        ..Config::default()
    };
    Executor::new(prog, &config).replay(trace)
}
