//! The executor layer: a pure transition-system view of a program.
//!
//! [`Executor`] packages a validated program, its static analysis
//! ([`StaticInfo`]), and the exploration [`Config`] behind a small API —
//! [`Executor::schedule`], [`Executor::successors`], [`Executor::replay`]
//! — with **no search policy** in it. Search order, pruning bookkeeping,
//! visited sets, and result accumulation all live in the drivers
//! ([`crate::search`]); the executor only answers "what can happen next
//! from this state".
//!
//! The executor is freely shareable across threads (`&Executor` is all a
//! worker needs); per-driver mutable scratch — the transition budget and
//! optional coverage map — travels separately in [`ExecCtx`], so parallel
//! drivers can give every worker its own context and merge afterwards.

use crate::coverage::Coverage;
use crate::interp::{execute_transition_with, TransitionResult, VisibleEvent};
use crate::por::{enabled_processes, independent, persistent_set, StaticInfo};
use crate::report::{Decision, ViolationKind};
use crate::search::Config;
use crate::state::{GlobalState, Status};
use cfgir::{CfgProgram, NodeKind};
use std::collections::BTreeSet;

/// What the executor offers a driver at a given state.
pub enum Scheduled {
    /// Initialization: run this process's invisible prefix (deterministic
    /// choice of process — toss branching may still occur inside).
    Init(usize),
    /// Explore these processes' transitions (the persistent set when POR
    /// is on, every enabled process otherwise).
    Procs(Vec<usize>),
    /// No enabled transitions.
    DeadEnd {
        /// Whether this dead end counts as a system deadlock (see
        /// [`Executor::deadend_is_deadlock`]).
        deadlock: bool,
    },
}

/// One outcome of executing a process's next transition.
pub enum SuccOutcome {
    /// The transition completed, yielding a successor state and possibly
    /// a visible event.
    State(Box<GlobalState>, Option<VisibleEvent>),
    /// The transition hit a property violation.
    Violation(ViolationKind, Option<usize>),
}

/// One child of a node expansion: the decision that reaches it, its
/// outcome, and the sleep set the child inherits under the sequential
/// stateless-DFS rules.
pub struct ChildSucc {
    /// Process whose transition produced this child.
    pub process: usize,
    /// Nondeterministic choices consumed within the transition.
    pub choices: Vec<u32>,
    /// Resulting state or violation.
    pub outcome: SuccOutcome,
    /// Sleep set the child subtree starts with.
    pub sleep: BTreeSet<usize>,
}

/// Arena-backed visited-store keys for one expansion: every child's
/// `(fingerprint, encoding)` pair lives as a span of one shared byte
/// buffer instead of a `Vec<u8>` of its own. The stateful engines
/// compute ~one key per transition, so the flattening removes a heap
/// allocation from the hottest per-successor path; all consumers read
/// keys by reference, and violation children hold `(0, empty)` spans
/// exactly as the per-key vectors did.
#[derive(Debug, Default)]
pub struct KeyArena {
    /// Per child: fingerprint + `(start, end)` span into `bytes`.
    index: Vec<(u64, u32, u32)>,
    /// The shared encoding arena.
    bytes: Vec<u8>,
}

impl KeyArena {
    /// Number of keys (one per child, in child order).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no child has been keyed yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The `j`-th child's key; the encoding slice is empty for
    /// violation children.
    pub fn get(&self, j: usize) -> (u64, &[u8]) {
        let (h, s, e) = self.index[j];
        (h, &self.bytes[s as usize..e as usize])
    }

    /// All keys in child order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.index
            .iter()
            .map(|&(h, s, e)| (h, &self.bytes[s as usize..e as usize]))
    }

    /// Append a key whose encoding `f` writes onto the arena, returning
    /// the fingerprint.
    pub fn push_with(&mut self, f: impl FnOnce(&mut Vec<u8>) -> u64) {
        let start = self.bytes.len() as u32;
        let h = f(&mut self.bytes);
        self.index.push((h, start, self.bytes.len() as u32));
    }

    /// Append the `(0, empty)` placeholder a violation child carries.
    pub fn push_violation(&mut self) {
        let end = self.bytes.len() as u32;
        self.index.push((0, end, end));
    }
}

/// One level of POR-aware expansion for the stateful engines
/// ([`Executor::expand_stateful`]): the children, their visited-store
/// keys, and the partial-order-reduction bookkeeping the drivers fold
/// into the [`crate::Report`].
pub struct StatefulExpansion {
    /// The node's children (or dead end), in deterministic order: the
    /// persistent set's successors first (each process ascending), then
    /// — only when the ignoring proviso fired — the successors of the
    /// POR-skipped processes.
    pub expansion: NodeExpansion,
    /// Per child, aligned with the child list: the successor state's
    /// stable fingerprint and compressed tuple (`(0, empty)` for
    /// violation outcomes; empty arena for dead ends). Computed here so
    /// drivers admit/dedup by comparing bytes without re-encoding.
    pub keys: KeyArena,
    /// Enabled processes whose expansion POR skipped at this state
    /// (after any proviso fallback; 0 when the fallback fired).
    pub por_skipped: usize,
    /// Whether the ignoring/cycle proviso forced full expansion here.
    pub por_fallback: bool,
}

/// Everything below one node of the decision tree, expanded one level.
///
/// This is the *shard-split hook*: the sharding pass, the steal-capable
/// parallel walk, and the parallel stateful frontier all split subtrees
/// by calling [`Executor::expand_children`], so every engine sees the
/// same child ordering — which is what makes a split (wherever and
/// whenever it happens) invisible in the merged report.
pub enum NodeExpansion {
    /// No enabled transitions.
    DeadEnd {
        /// Whether this dead end is a system deadlock.
        deadlock: bool,
    },
    /// The node's children, in exact sequential-DFS visit order.
    Children(Vec<ChildSucc>),
}

/// Per-driver (or per-worker) mutable execution scratch: the transition
/// budget and optional coverage accumulator. Drivers fold the fields into
/// their [`crate::Report`] when done.
#[derive(Debug)]
pub struct ExecCtx {
    /// Transitions executed so far through this context (including
    /// re-executions for choice enumeration).
    pub transitions: usize,
    /// Budget: once `transitions` reaches this, [`Executor::successors`]
    /// stops and sets `truncated`.
    pub budget: usize,
    /// Set when the budget cut enumeration short.
    pub truncated: bool,
    /// Nondeterministic choices consumed by completed successor
    /// transitions — toss outcomes plus (under enumeration) environment
    /// values. `explore --stats` reports the fold as "tosses taken".
    pub tosses_taken: usize,
    /// Over completed successor transitions, components the successor
    /// still shares with its parent (see
    /// [`GlobalState::sharing_with`]). Deterministic: during
    /// [`Executor::successors`] the parent is borrowed, so every
    /// component is shared (refcount ≥ 2) and `make_mut` copies exactly
    /// the components the transition touches, independent of worker
    /// count or timing.
    pub shared_components: usize,
    /// Denominator of the sharing ratio: total components over the same
    /// transitions.
    pub total_components: usize,
    /// Executed-node coverage, when tracking is on.
    pub coverage: Option<Coverage>,
}

impl ExecCtx {
    /// A fresh context with the given transition budget, tracking
    /// coverage iff the config asks for it.
    pub fn new(exec: &Executor<'_>, budget: usize) -> Self {
        ExecCtx {
            transitions: 0,
            budget,
            truncated: false,
            tosses_taken: 0,
            shared_components: 0,
            total_components: 0,
            coverage: if exec.config().track_coverage {
                Some(Coverage::new(exec.program()))
            } else {
                None
            },
        }
    }

    /// A fresh context with the given budget and an explicit (possibly
    /// reused) coverage accumulator — parallel workers thread one
    /// accumulator through many per-item contexts instead of allocating
    /// a map per item.
    pub fn with_coverage(budget: usize, coverage: Option<Coverage>) -> Self {
        ExecCtx {
            transitions: 0,
            budget,
            truncated: false,
            tosses_taken: 0,
            shared_components: 0,
            total_components: 0,
            coverage,
        }
    }
}

/// A program plus its static analysis and exploration config, exposing
/// the pure transition-system API every search driver runs against.
pub struct Executor<'a> {
    prog: &'a CfgProgram,
    cfg: Config,
    info: StaticInfo,
}

impl<'a> Executor<'a> {
    /// Build an executor for a validated program.
    ///
    /// # Panics
    ///
    /// Panics when `prog` fails [`cfgir::validate()`] (malformed graphs).
    pub fn new(prog: &'a CfgProgram, config: &Config) -> Self {
        cfgir::validate(prog).expect("Executor requires a validated program");
        Executor {
            prog,
            cfg: config.clone(),
            info: StaticInfo::build(prog),
        }
    }

    /// The program under exploration.
    pub fn program(&self) -> &'a CfgProgram {
        self.prog
    }

    /// The exploration configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The static object-footprint analysis backing POR.
    pub fn static_info(&self) -> &StaticInfo {
        &self.info
    }

    /// The initial global state.
    pub fn initial(&self) -> GlobalState {
        GlobalState::initial(self.prog)
    }

    /// What a driver should do at `state`: finish initialization, branch
    /// over a set of processes, or stop at a dead end.
    pub fn schedule(&self, state: &GlobalState) -> Scheduled {
        self.schedule_por(state).0
    }

    /// [`Executor::schedule`] plus the enabled processes POR dropped
    /// (ascending; empty when POR is off, when no reduction happened, or
    /// for init/dead-end states). The stateful engines need the skipped
    /// set to implement the ignoring-proviso fallback; both outputs are
    /// pure functions of `state`, which is what keeps every engine's
    /// report jobs-invariant.
    pub fn schedule_por(&self, state: &GlobalState) -> (Scheduled, Vec<usize>) {
        // Initialization: processes still positioned at an invisible node
        // run first, lowest index first — the system reaches its initial
        // global state s0 before any scheduling choice is made (§2).
        for (pid, ps) in state.procs.iter().enumerate() {
            if let Status::AtNode(n) = ps.status {
                let proc = self.prog.proc(ps.top().proc);
                if !matches!(proc.node(n).kind, NodeKind::Visible { .. }) {
                    return (Scheduled::Init(pid), Vec::new());
                }
            }
        }
        let enabled = enabled_processes(self.prog, state);
        if enabled.is_empty() {
            return (
                Scheduled::DeadEnd {
                    deadlock: self.deadend_is_deadlock(state),
                },
                Vec::new(),
            );
        }
        if self.cfg.por {
            let procs = persistent_set(self.prog, &self.info, state, &enabled);
            let skipped = enabled
                .iter()
                .copied()
                .filter(|p| !procs.contains(p))
                .collect();
            (Scheduled::Procs(procs), skipped)
        } else {
            (Scheduled::Procs(enabled), Vec::new())
        }
    }

    /// Whether a dead end at `state` counts as a system deadlock.
    ///
    /// This is the single daemon-flag rule every driver shares (DESIGN
    /// §7): synthesized environment feeders are marked `daemon` and never
    /// make a dead end a deadlock. A dead end is a deadlock iff some
    /// *non-daemon* process is stuck short of termination, or — under
    /// [`Config::strict_termination_deadlock`] — any non-daemon process
    /// exists at all (the paper's strict reading: top-level termination
    /// blocks forever). Strict mode deliberately does not fire for a
    /// system whose every process is a daemon feeder.
    pub fn deadend_is_deadlock(&self, state: &GlobalState) -> bool {
        let mut any_nondaemon = false;
        let mut stuck_nondaemon = false;
        for p in &state.procs {
            if crate::state::spec_daemon(self.prog, p.spec) {
                continue;
            }
            any_nondaemon = true;
            if p.status != Status::Terminated {
                stuck_nondaemon = true;
            }
        }
        stuck_nondaemon || (self.cfg.strict_termination_deadlock && any_nondaemon)
    }

    /// Whether `u`'s and `t`'s next transitions from `state` are
    /// independent (the sleep-set hook; delegates to [`crate::por`]).
    pub fn independent(&self, state: &GlobalState, u: usize, t: usize) -> bool {
        independent(self.prog, state, u, t)
    }

    /// Enumerate every outcome of process `pid`'s next transition from
    /// `state` (branching over toss / environment choices), charging the
    /// executed transitions to `cx`.
    pub fn successors(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        pid: usize,
    ) -> Vec<(Vec<u32>, SuccOutcome)> {
        let mut out = Vec::new();
        let mut pending: Vec<Vec<u32>> = vec![Vec::new()];
        while let Some(choices) = pending.pop() {
            if cx.transitions >= cx.budget {
                cx.truncated = true;
                break;
            }
            let mut s = state.clone();
            cx.transitions += 1;
            match execute_transition_with(
                self.prog,
                &mut s,
                pid,
                &choices,
                self.cfg.env_mode,
                &self.cfg.limits,
                cx.coverage.as_mut(),
            ) {
                TransitionResult::Completed { event } => {
                    let (shared, total) = s.sharing_with(state);
                    cx.shared_components += shared;
                    cx.total_components += total;
                    cx.tosses_taken += choices.len();
                    out.push((choices, SuccOutcome::State(Box::new(s), event)));
                }
                TransitionResult::NeedChoice { bound } => {
                    // Push in reverse so choice 0 is explored first.
                    for c in (0..=bound).rev() {
                        let mut cs = choices.clone();
                        cs.push(c);
                        pending.push(cs);
                    }
                }
                TransitionResult::AssertViolation => {
                    out.push((
                        choices,
                        SuccOutcome::Violation(ViolationKind::AssertionViolation, Some(pid)),
                    ));
                }
                TransitionResult::RuntimeError(e) => {
                    out.push((
                        choices,
                        SuccOutcome::Violation(ViolationKind::RuntimeError(e), Some(pid)),
                    ));
                }
                TransitionResult::Diverged => {
                    out.push((
                        choices,
                        SuccOutcome::Violation(ViolationKind::Divergence, Some(pid)),
                    ));
                }
            }
        }
        out
    }

    /// Expand one node of the decision tree a single level, in exact
    /// sequential visit order: initialization first (lowest pid), then
    /// each scheduled process's outcomes.
    ///
    /// With `sleep: Some(..)` the stateless-DFS sleep-set rules apply —
    /// sleeping processes are skipped and per-child sleep sets are
    /// computed from the done-list, exactly as
    /// [`crate::search::StatelessDfs`] visits them. With `None` (the
    /// explicit-state engines, which prune by visited states instead)
    /// no sleep bookkeeping is done and children carry empty sets.
    ///
    /// Enumeration charges `cx` and stops early when the budget runs
    /// out (`cx.truncated`), leaving the child list a prefix of the
    /// full one — callers treat that as a truncated run.
    pub fn expand_children(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        sleep: Option<&BTreeSet<usize>>,
    ) -> NodeExpansion {
        let mut children = Vec::new();
        let (sched, skipped) = self.schedule_por(state);
        match sched {
            Scheduled::DeadEnd { deadlock } => return NodeExpansion::DeadEnd { deadlock },
            Scheduled::Init(pid) => {
                for (choices, outcome) in self.successors(cx, state, pid) {
                    children.push(ChildSucc {
                        process: pid,
                        choices,
                        outcome,
                        sleep: sleep.cloned().unwrap_or_default(),
                    });
                }
            }
            Scheduled::Procs(procs) => {
                let use_sleep = self.cfg.sleep_sets && sleep.is_some();
                let empty = BTreeSet::new();
                let sleep = sleep.unwrap_or(&empty);
                let mut done: Vec<usize> = Vec::new();
                let mut queue = procs;
                let mut fell_back = false;
                let mut i = 0;
                while i < queue.len() {
                    let t = queue[i];
                    i += 1;
                    if cx.truncated {
                        break;
                    }
                    if use_sleep && sleep.contains(&t) {
                        continue;
                    }
                    let child_sleep: BTreeSet<usize> = if use_sleep {
                        sleep
                            .iter()
                            .chain(done.iter())
                            .copied()
                            .filter(|u| self.independent(state, *u, t))
                            .collect()
                    } else {
                        BTreeSet::new()
                    };
                    let before = children.len();
                    for (choices, outcome) in self.successors(cx, state, t) {
                        children.push(ChildSucc {
                            process: t,
                            choices,
                            outcome,
                            sleep: child_sleep.clone(),
                        });
                    }
                    // Sleep sets may treat `t` as "explored here" only if
                    // its whole subtree really was: a Violation outcome
                    // cuts the branch, so `t` must keep appearing in the
                    // siblings' subtrees.
                    if !children[before..]
                        .iter()
                        .any(|c| matches!(c.outcome, SuccOutcome::Violation(..)))
                    {
                        done.push(t);
                    }
                    // A Violation child cuts its path short, voiding the
                    // persistent-set assumption that the search keeps
                    // running past every selected transition — expand the
                    // skipped processes too (see `expand_stateful`).
                    if !fell_back
                        && i == queue.len()
                        && !skipped.is_empty()
                        && children
                            .iter()
                            .any(|c| matches!(c.outcome, SuccOutcome::Violation(..)))
                    {
                        fell_back = true;
                        queue.extend(skipped.iter().copied());
                    }
                }
            }
        }
        NodeExpansion::Children(children)
    }

    /// Expand one node for the *stateful* engines: POR-reduced through
    /// [`Executor::schedule_por`], with the **ignoring/cycle proviso**
    /// applied — when the persistent set's expansion produces a
    /// successor for which `closes_cycle(fingerprint, encoding)` holds
    /// (the driver's visited store already contains it, so the edge may
    /// close a cycle in the explored graph), the skipped processes are
    /// expanded too, restoring full expansion at this state.
    ///
    /// Persistent sets alone preserve every deadlock of a finite state
    /// space, but on cyclic graphs a process whose transitions are
    /// independent of the cycle can be *ignored* forever, hiding its
    /// assertion violations. The proviso closes that hole: every cycle
    /// of the reduced graph contains, at the last of its states to be
    /// expanded, an edge to an already-visited state — so that state is
    /// fully expanded and nothing is ignored around the cycle. The test
    /// is conservative (confluent diamonds trigger it too), trading some
    /// reduction for soundness.
    ///
    /// Both the selection and the fallback are pure functions of
    /// `(state, closes_cycle)`; drivers keep the predicate
    /// timing-independent (the sequential engines consult their visited
    /// set, the frontier engine only *sealed* entries, fixed for a whole
    /// round), so reports stay byte-identical for any worker count.
    ///
    /// Successor keys are collapse-compressed tuples under `interner`
    /// ([`GlobalState::fingerprint_and_intern`]).
    pub fn expand_stateful<F: Fn(u64, &[u8]) -> bool>(
        &self,
        cx: &mut ExecCtx,
        interner: &crate::state::ComponentInterner,
        state: &GlobalState,
        closes_cycle: F,
    ) -> StatefulExpansion {
        let (sched, skipped) = self.schedule_por(state);
        let mut children = Vec::new();
        let mut keys = KeyArena::default();
        let expand_proc =
            |cx: &mut ExecCtx, children: &mut Vec<ChildSucc>, keys: &mut KeyArena, pid: usize| {
                for (choices, outcome) in self.successors(cx, state, pid) {
                    match &outcome {
                        SuccOutcome::State(s, _) => {
                            keys.push_with(|out| s.fingerprint_and_intern_into(interner, out));
                        }
                        SuccOutcome::Violation(..) => keys.push_violation(),
                    }
                    children.push(ChildSucc {
                        process: pid,
                        choices,
                        outcome,
                        sleep: BTreeSet::new(),
                    });
                }
            };
        match sched {
            Scheduled::DeadEnd { deadlock } => StatefulExpansion {
                expansion: NodeExpansion::DeadEnd { deadlock },
                keys,
                por_skipped: 0,
                por_fallback: false,
            },
            Scheduled::Init(pid) => {
                expand_proc(cx, &mut children, &mut keys, pid);
                StatefulExpansion {
                    expansion: NodeExpansion::Children(children),
                    keys,
                    por_skipped: 0,
                    por_fallback: false,
                }
            }
            Scheduled::Procs(procs) => {
                for &t in &procs {
                    if cx.truncated {
                        break;
                    }
                    expand_proc(cx, &mut children, &mut keys, t);
                }
                let mut por_skipped = skipped.len();
                let mut por_fallback = false;
                // Two fallbacks to full expansion. (1) The proviso: a
                // State child (nonempty encoding) already known to the
                // driver's store may close a cycle — expand everything so
                // nothing is ignored around it. (2) A Violation child:
                // the persistent-set argument assumes every selected
                // transition leads to a successor the search keeps
                // exploring, but a violating transition *cuts* its path —
                // a skipped process whose own violation was simultaneously
                // enabled (e.g. two processes both at failing assertions)
                // would be masked for good. Violating states are rare, so
                // expanding them fully costs almost nothing and restores
                // verdict-set completeness.
                let cuts_path = children
                    .iter()
                    .any(|c| matches!(c.outcome, SuccOutcome::Violation(..)));
                if !skipped.is_empty()
                    && !cx.truncated
                    && (cuts_path
                        || keys
                            .iter()
                            .any(|(h, e)| !e.is_empty() && closes_cycle(h, e)))
                {
                    por_fallback = true;
                    por_skipped = 0;
                    for &t in &skipped {
                        if cx.truncated {
                            break;
                        }
                        expand_proc(cx, &mut children, &mut keys, t);
                    }
                }
                StatefulExpansion {
                    expansion: NodeExpansion::Children(children),
                    keys,
                    por_skipped,
                    por_fallback,
                }
            }
        }
    }

    /// Replay a decision sequence from the initial state, returning the
    /// final state (VeriSoft's deterministic replay feature).
    ///
    /// # Errors
    ///
    /// Returns the failing [`TransitionResult`] when the trace does not
    /// replay cleanly (e.g. it ends in the recorded violation).
    pub fn replay(&self, trace: &[Decision]) -> Result<GlobalState, TransitionResult> {
        let mut state = self.initial();
        for d in trace {
            let r = execute_transition_with(
                self.prog,
                &mut state,
                d.process,
                &d.choices,
                self.cfg.env_mode,
                &self.cfg.limits,
                None,
            );
            match r {
                TransitionResult::Completed { .. } => {}
                other => return Err(other),
            }
        }
        Ok(state)
    }
}
