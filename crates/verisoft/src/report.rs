//! Search results: violations, decisions, traces, statistics.

use crate::interp::{RtError, VisibleEvent};
use std::collections::BTreeSet;

/// One scheduling decision: which process ran, with which nondeterministic
/// choices (toss values and — under enumeration — environment values).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Decision {
    /// Process index.
    pub process: usize,
    /// Choices consumed within the transition, in order.
    pub choices: Vec<u32>,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.choices.is_empty() {
            write!(f, "P{}", self.process)
        } else {
            let cs: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
            write!(f, "P{}[{}]", self.process, cs.join(","))
        }
    }
}

/// What kind of property was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A reachable global state where every process is blocked (and not
    /// all merely terminated, unless strict termination semantics are on).
    Deadlock,
    /// A `VS_assert` evaluated to zero.
    AssertionViolation,
    /// A process exceeded the invisible-step bound within one transition.
    Divergence,
    /// A runtime error (division by zero, bad dereference, …).
    RuntimeError(RtError),
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Deadlock => write!(f, "deadlock"),
            ViolationKind::AssertionViolation => write!(f, "assertion violation"),
            ViolationKind::Divergence => write!(f, "divergence"),
            ViolationKind::RuntimeError(e) => write!(f, "runtime error: {e}"),
        }
    }
}

/// A property violation with its reproducing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The process at fault (`None` for deadlocks).
    pub process: Option<usize>,
    /// The decision sequence from the initial state that reproduces the
    /// violation (replayable: VeriSoft-style deterministic replay).
    pub trace: Vec<Decision>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(p) = self.process {
            write!(f, " in P{p}")?;
        }
        let t: Vec<String> = self.trace.iter().map(|d| d.to_string()).collect();
        write!(f, " after [{}]", t.join(" "))
    }
}

/// Aggregate results of one state-space exploration.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Distinct global states visited (stateful engine) or search-tree
    /// nodes expanded (stateless engine).
    pub states: usize,
    /// Transitions executed (including re-executions for choice
    /// enumeration).
    pub transitions: usize,
    /// Deepest path reached, in transitions.
    pub max_depth_seen: usize,
    /// True when a depth/state cap cut the exploration short — results
    /// are then a lower bound ("complete coverage of the state space up to
    /// some depth", as the paper puts it).
    pub truncated: bool,
    /// All violations found (up to the configured maximum).
    pub violations: Vec<Violation>,
    /// The set of maximal visible-event traces, when trace collection is
    /// on (used for the Figure 3 optimality experiment).
    pub traces: BTreeSet<Vec<VisibleEvent>>,
    /// Payload bytes held by the visited store at the end of the run
    /// (stateful engines; 0 for stateless). With [`Report::visited_states`]
    /// this gives bytes-per-visited-state, surfaced by `explore --stats`.
    pub visited_bytes: usize,
    /// States held by the visited store at the end of the run (stateful
    /// engines; 0 for stateless). Can exceed [`Report::states`] when the
    /// run truncates: admitted-but-never-expanded candidates count too.
    pub visited_states: usize,
    /// Across all completed successor transitions, how many state
    /// components (processes + objects) the successor still *shares*
    /// with its parent (same allocation). `shared / total` is the
    /// CoW sharing ratio; see [`crate::state`].
    pub shared_components: usize,
    /// The denominator of the sharing ratio: total components over the
    /// same successor transitions.
    pub total_components: usize,
    /// Nondeterministic choices consumed by completed transitions over
    /// the run — `VS_toss` outcomes plus (under enumeration) environment
    /// values. A precision lens on the closed program: fewer toss sites
    /// (or fewer surviving outcomes per site) mean fewer choices taken
    /// for the same coverage. Surfaced by `explore --stats`.
    pub tosses_taken: usize,
    /// Enabled-process expansions the stateful engines skipped under
    /// persistent-set partial-order reduction, summed over expanded
    /// states (after proviso fallbacks; 0 for the stateless engines,
    /// which prune through sleep sets instead of counting).
    pub por_skipped_procs: usize,
    /// States where the ignoring/cycle proviso forced full expansion
    /// (see [`crate::executor::Executor::expand_stateful`]).
    pub por_proviso_fallbacks: usize,
    /// Executed-node coverage, when [`crate::Config::track_coverage`] is
    /// on.
    pub coverage: Option<crate::coverage::Coverage>,
    /// Peak resident bytes of the tiered store's in-memory tier over the
    /// run (frontier engines; 0 otherwise). An *operational* metric, not
    /// part of the deterministic report surface: an interrupted-and-
    /// resumed run may legitimately peak differently than an
    /// uninterrupted one. Merges by maximum.
    pub store_peak_mem_bytes: usize,
    /// States spilled from the in-memory tier to disk segments
    /// (operational, like [`Report::store_peak_mem_bytes`]).
    pub store_spilled_entries: usize,
    /// On-disk segments sealed by the end of the run (operational).
    pub store_segments: usize,
    /// Frontier entries that overflowed the spool's RAM budget to disk
    /// (operational).
    pub frontier_spilled_entries: usize,
    /// Checkpoints written during the run (operational).
    pub checkpoints_written: usize,
    /// Bytes the visited store *actually* holds across tiers at the end
    /// of the run — the compressed footprint when collapse compression
    /// is on, equal to [`Report::visited_bytes`] when it is off
    /// (operational; compare the two for the dedup ratio `--stats`
    /// prints).
    pub store_stored_bytes: usize,
    /// Distinct state components interned over the run (0 with
    /// compression off; operational).
    pub interner_entries: usize,
    /// Bytes of canonical component encodings the interner table holds
    /// (operational) — the one-copy-per-distinct-component cost that
    /// [`Report::store_stored_bytes`] amortises over every state.
    pub interner_bytes: usize,
    /// Tier-1 segments retired by checkpoint-time compaction
    /// (operational).
    pub store_segments_compacted: usize,
    /// Batched store/interner operations the frontier engines issued —
    /// one `insert_batch`/`seal_batch`/`intern_batch` call each
    /// (operational, like [`Report::store_peak_mem_bytes`]: batch
    /// boundaries follow chunking and so may differ across resumed
    /// runs).
    pub store_batch_ops: usize,
    /// Items carried by those batched operations (operational).
    pub store_batch_items: usize,
    /// Lock acquisitions the batched paths saved versus the scalar
    /// one-lock-per-item reference path: items sharing a stripe run take
    /// the stripe lock once, and interner batches take one table write
    /// lock per run instead of one per fresh component (operational).
    pub store_lock_acquisitions_avoided: usize,
    /// Tier-1 disk probes screened by the per-segment Bloom prefilter
    /// (operational — probe counts depend on spill timing).
    pub prefilter_probes: usize,
    /// Prefilter probes answered "definitely absent", skipping the
    /// fingerprint-index walk and any segment reads (operational). A
    /// Bloom filter has no false negatives, so a miss is exact for any
    /// epoch bound.
    pub prefilter_hits: usize,
    /// Persisted per-segment Bloom filters that failed validation on
    /// resume (missing, torn, or stale) and were rebuilt from the
    /// segment's own fingerprints (operational). Rebuilds are safe by
    /// construction — a filter is only ever trusted after containment
    /// of every live fingerprint is verified.
    pub prefilter_rebuilds: usize,
    /// Frontier chunks committed by the frontier engine (operational).
    pub pipeline_chunks: usize,
    /// Always 0: the engine commits one chunk at a time and never
    /// overlaps a commit with the next chunk's expansion. Kept only
    /// because the `benchmark/` crate reads it.
    pub pipeline_overlapped_chunks: usize,
}

impl Report {
    /// The first deadlock found, if any.
    pub fn first_deadlock(&self) -> Option<&Violation> {
        self.violations
            .iter()
            .find(|v| v.kind == ViolationKind::Deadlock)
    }

    /// The first assertion violation found, if any.
    pub fn first_assert(&self) -> Option<&Violation> {
        self.violations
            .iter()
            .find(|v| v.kind == ViolationKind::AssertionViolation)
    }

    /// True when no violations were found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count violations of a given kind.
    pub fn count(&self, pred: impl Fn(&ViolationKind) -> bool) -> usize {
        self.violations.iter().filter(|v| pred(&v.kind)).count()
    }

    /// Fold another report fragment into this one.
    ///
    /// Reports form a monoid under `merge` with [`Report::default`] as
    /// identity: counters add, `max_depth_seen` takes the maximum,
    /// `truncated` ORs, violations concatenate in order, trace sets and
    /// coverage union. The parallel engine relies on this to combine
    /// per-shard results in tree order.
    pub fn merge(&mut self, other: Report) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.max_depth_seen = self.max_depth_seen.max(other.max_depth_seen);
        self.truncated |= other.truncated;
        self.violations.extend(other.violations);
        self.traces.extend(other.traces);
        self.visited_bytes += other.visited_bytes;
        self.visited_states += other.visited_states;
        self.shared_components += other.shared_components;
        self.total_components += other.total_components;
        self.tosses_taken += other.tosses_taken;
        self.por_skipped_procs += other.por_skipped_procs;
        self.por_proviso_fallbacks += other.por_proviso_fallbacks;
        match (&mut self.coverage, other.coverage) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine @ None, theirs @ Some(_)) => *mine = theirs,
            _ => {}
        }
        self.store_peak_mem_bytes = self.store_peak_mem_bytes.max(other.store_peak_mem_bytes);
        self.store_spilled_entries += other.store_spilled_entries;
        self.store_segments += other.store_segments;
        self.frontier_spilled_entries += other.frontier_spilled_entries;
        self.checkpoints_written += other.checkpoints_written;
        self.store_stored_bytes += other.store_stored_bytes;
        self.interner_entries += other.interner_entries;
        self.interner_bytes += other.interner_bytes;
        self.store_segments_compacted += other.store_segments_compacted;
        self.store_batch_ops += other.store_batch_ops;
        self.store_batch_items += other.store_batch_items;
        self.store_lock_acquisitions_avoided += other.store_lock_acquisitions_avoided;
        self.prefilter_probes += other.prefilter_probes;
        self.prefilter_hits += other.prefilter_hits;
        self.prefilter_rebuilds += other.prefilter_rebuilds;
        self.pipeline_chunks += other.pipeline_chunks;
        self.pipeline_overlapped_chunks += other.pipeline_overlapped_chunks;
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "states: {}, transitions: {}, max depth: {}{}",
            self.states,
            self.transitions,
            self.max_depth_seen,
            if self.truncated { " (truncated)" } else { "" }
        )?;
        if self.violations.is_empty() {
            write!(f, "no violations")?;
        } else {
            write!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                write!(f, "\n  {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_display() {
        let d = Decision {
            process: 2,
            choices: vec![],
        };
        assert_eq!(d.to_string(), "P2");
        let d = Decision {
            process: 0,
            choices: vec![1, 0],
        };
        assert_eq!(d.to_string(), "P0[1,0]");
    }

    #[test]
    fn report_queries() {
        let mut r = Report::default();
        assert!(r.clean());
        r.violations.push(Violation {
            kind: ViolationKind::Deadlock,
            process: None,
            trace: vec![],
        });
        r.violations.push(Violation {
            kind: ViolationKind::AssertionViolation,
            process: Some(1),
            trace: vec![],
        });
        assert!(!r.clean());
        assert!(r.first_deadlock().is_some());
        assert_eq!(r.first_assert().unwrap().process, Some(1));
        assert_eq!(r.count(|k| *k == ViolationKind::Deadlock), 1);
    }

    fn sample(states: usize, kind: ViolationKind) -> Report {
        Report {
            states,
            transitions: states * 3,
            max_depth_seen: states,
            truncated: states.is_multiple_of(2),
            violations: vec![Violation {
                kind,
                process: Some(states),
                trace: vec![Decision {
                    process: states,
                    choices: vec![states as u32],
                }],
            }],
            traces: [vec![]].into_iter().collect(),
            visited_bytes: states * 10,
            visited_states: states,
            shared_components: states,
            total_components: states * 2,
            por_skipped_procs: states,
            por_proviso_fallbacks: states / 2,
            coverage: None,
            store_peak_mem_bytes: states * 100,
            ..Report::default()
        }
    }

    #[allow(clippy::type_complexity)]
    fn fields(
        r: &Report,
    ) -> (
        usize,
        usize,
        usize,
        bool,
        Vec<Violation>,
        usize,
        usize,
        usize,
    ) {
        (
            r.states,
            r.transitions,
            r.max_depth_seen,
            r.truncated,
            r.violations.clone(),
            r.traces.len(),
            r.por_skipped_procs,
            r.por_proviso_fallbacks,
        )
    }

    #[test]
    fn merge_identity() {
        let a = sample(4, ViolationKind::Deadlock);
        let mut left = Report::default();
        left.merge(a.clone());
        assert_eq!(fields(&left), fields(&a));
        let mut right = a.clone();
        right.merge(Report::default());
        assert_eq!(fields(&right), fields(&a));
    }

    #[test]
    fn merge_associativity() {
        let a = sample(1, ViolationKind::Deadlock);
        let b = sample(2, ViolationKind::AssertionViolation);
        let c = sample(3, ViolationKind::Divergence);
        // (a ⊕ b) ⊕ c
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ab_c = ab;
        ab_c.merge(c.clone());
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c);
        let mut a_bc = a;
        a_bc.merge(bc);
        assert_eq!(fields(&ab_c), fields(&a_bc));
    }

    #[test]
    fn display_is_nonempty() {
        let r = Report::default();
        assert!(r.to_string().contains("no violations"));
        let v = Violation {
            kind: ViolationKind::RuntimeError(RtError::DivByZero),
            process: Some(0),
            trace: vec![Decision {
                process: 0,
                choices: vec![3],
            }],
        };
        assert!(v.to_string().contains("division by zero"));
        assert!(v.to_string().contains("P0[3]"));
    }
}
