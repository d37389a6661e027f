//! Explicit-state drivers: DFS over stored visited states
//! ([`StatefulDfs`]) and the deterministic level-synchronous frontier
//! engine ([`StatefulParallel`]) backed by the tiered spillable
//! [`TieredStore`](super::store). `Engine::Bfs` is the frontier engine
//! on one worker.
//!
//! Both apply persistent-set partial-order reduction with the
//! ignoring/cycle proviso through
//! [`Executor::expand_stateful`](crate::executor::Executor::expand_stateful):
//! a state is expanded over its persistent set only, unless one of the
//! reduced successors is already in the driver's visited store — an edge
//! that may close a cycle — in which case the state is fully expanded so
//! no process is ignored around the cycle (docs/EXPLORER.md §5). The
//! proviso predicate is a pure function of the state and a
//! timing-independent store snapshot, so every report stays
//! byte-identical for any worker count.
//!
//! Both store collapse-compressed states: component-ID tuples interned
//! by a per-run [`ComponentInterner`] (see [`crate::state::intern`]).
//!
//! The frontier engine additionally runs **out of core** when
//! [`Config::mem_limit`](super::Config::mem_limit) is finite: sealed
//! states spill to disk segments, the frontier spools to disk past its
//! RAM budget, and each level is processed in bounded-memory *chunks*.
//! Chunked processing is byte-identical to unbounded processing by
//! construction — see the commit-order argument at [`frontier_search`]
//! — and with a [`Config::checkpoint_dir`](super::Config::checkpoint_dir)
//! the engine checkpoints at level boundaries so a killed run can
//! `--resume` and complete with the identical report.

use super::store::{checkpoint, rank, FrontierSpool, SpillDir, Spoolable, TieredStore};
use crate::coverage::Coverage;
use crate::executor::{ExecCtx, Executor, NodeExpansion, StatefulExpansion, SuccOutcome};
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::encode::{put_u64, ByteReader};
use crate::state::{ComponentInterner, GlobalState};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A persistent reproducing path: a parent-pointer list whose nodes are
/// shared between all successors of a state, so queuing a successor
/// costs one `Arc` allocation instead of a deep `Vec<Decision>` clone
/// per child (which is O(depth) and dominated the commit loops). Paths
/// are materialized root-first only when a violation (or deadlock) is
/// actually recorded, producing exactly the `Vec<Decision>` the eager
/// representation would have built.
#[derive(Clone, Default)]
struct Trace(Option<Arc<TraceNode>>);

struct TraceNode {
    decision: Decision,
    parent: Trace,
}

impl Trace {
    /// The path extended by one decision (O(1), shares the prefix).
    fn push(&self, decision: Decision) -> Trace {
        Trace(Some(Arc::new(TraceNode {
            decision,
            parent: self.clone(),
        })))
    }

    /// Materialize into the root-first decision sequence recorded in
    /// violation reports.
    fn to_vec(&self) -> Vec<Decision> {
        let mut out = Vec::new();
        let mut cur = &self.0;
        while let Some(n) = cur {
            out.push(n.decision.clone());
            cur = &n.parent.0;
        }
        out.reverse();
        out
    }

    /// [`Trace::to_vec`] with one more trailing decision, without
    /// allocating a list node for it.
    fn pushed_vec(&self, decision: Decision) -> Vec<Decision> {
        let mut out = self.to_vec();
        out.push(decision);
        out
    }
}

/// Explicit-state depth-first search storing full visited states (not
/// hashes, so no collision unsoundness); terminates on cyclic state
/// spaces. The POR proviso consults the visited set as of each
/// expansion, which is sound for any exploration order (see
/// `expand_stateful`'s cycle argument).
pub struct StatefulDfs;

impl super::SearchDriver for StatefulDfs {
    fn run(&mut self, exec: &Executor<'_>) -> Report {
        stateful_dfs(exec)
    }
}

/// Deterministic parallel explicit-state search: the level-synchronous
/// frontier engine behind both `Engine::StatefulParallel` (on
/// [`Config::jobs`](super::Config::jobs) workers) and `Engine::Bfs`
/// (on one worker, so the first violation reported has a *shortest*
/// reproducing trace).
///
/// Each round, workers expand the frontier's states concurrently
/// (claiming items through an atomic cursor) and compute every
/// successor's key. The round then commits sequentially: each successor
/// is admitted to the shared [`VisitedStore`](super::VisitedStore)
/// tagged with its shard-lexicographic discovery rank
/// `(frontier index, successor index)`, and joins the next frontier iff
/// its rank is the store's winning (minimal) occurrence of that state —
/// so the explored set, the violation order, every reproducing trace,
/// and all counters are byte-identical for any worker count.
pub struct StatefulParallel {
    /// Worker count; `None` takes [`Config::jobs`](super::Config::jobs).
    pub jobs: Option<usize>,
}

impl super::SearchDriver for StatefulParallel {
    fn run(&mut self, exec: &Executor<'_>) -> Report {
        frontier_search(exec, self.jobs.unwrap_or(exec.config().jobs))
    }
}

/// One frontier entry: a committed (sealed) state awaiting expansion.
struct FrontierItem {
    state: GlobalState,
    depth: usize,
    path: Trace,
}

impl Spoolable for FrontierItem {
    /// The engine's interner: spooled states are stored as component-ID
    /// tuples (the memoized per-component cache makes re-encoding a
    /// pushed state's tuple a table lookup, not a re-serialization).
    type Cx = Arc<ComponentInterner>;

    fn spool_encode(&self, interner: &Self::Cx, out: &mut Vec<u8>) {
        put_u64(out, self.depth as u64);
        let path = self.path.to_vec();
        put_u64(out, path.len() as u64);
        for d in &path {
            checkpoint::put_decision(out, d);
        }
        // The state's tuple takes the remaining bytes.
        out.extend_from_slice(&self.state.fingerprint_and_intern(interner).1);
    }

    fn spool_decode(interner: &Self::Cx, bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let depth = usize::try_from(r.u64()?).ok()?;
        let n = usize::try_from(r.u64()?).ok()?;
        // The persistent trace is rebuilt by folding `push`; prefix
        // sharing with sibling items is lost (each spooled item owns its
        // path), which is the documented cost of spooling an entry.
        let mut path = Trace::default();
        for _ in 0..n {
            path = path.push(checkpoint::read_decision(&mut r)?);
        }
        let state = interner.decode_compressed(&bytes[r.pos()..])?;
        Some(FrontierItem { state, depth, path })
    }
}

/// A worker's expansion of one frontier item: the children with their
/// keys (computed worker-side, so the sequential commit only compares
/// bytes) and the counters folded from the item's [`ExecCtx`] (not the
/// context itself: chunks hold one of these per item, so it stays small).
struct Expanded {
    se: StatefulExpansion,
    transitions: usize,
    truncated: bool,
    shared_components: usize,
    total_components: usize,
    tosses_taken: usize,
}

/// One worker's share of a chunk: the items it expanded (tagged with
/// their chunk index) plus its private coverage map.
type WorkerBatch = (Vec<(usize, Expanded)>, Option<Coverage>);

/// The level-synchronous frontier search — the same report for any
/// `jobs`.
///
/// ## Why chunking (and therefore spilling) cannot change the report
///
/// Under a finite memory budget a level is consumed in FIFO *chunks*
/// ([`FrontierSpool::next_chunk`]); each chunk is expanded and committed
/// before the next is read. This is byte-identical to processing the
/// whole level at once because:
///
/// 1. **Ranks are global to the level.** Chunk `c` starting at frontier
///    offset `base` commits with ranks `rank(base + i, j)` — the exact
///    ranks a single-chunk run assigns — and chunk bases are strictly
///    increasing, so the level-minimal rank of any state appears in the
///    earliest chunk that discovers it, where `seal_batch` crowns the
///    same winner the unbounded commit would.
/// 2. **The proviso is epoch-bounded.** Workers probe
///    `contains_sealed_before(h, e, level+1)`: entries sealed by
///    *earlier chunks of the same level* carry epoch `level+1` and are
///    invisible, so every chunk sees exactly the sealed set a
///    single-chunk run's phase sees.
/// 3. **Budgets are level-fixed.** The per-item transition budget is the
///    level-start remainder for every chunk, and the violation cap cuts
///    at a rank — both independent of chunk boundaries.
///
/// Chunk boundaries themselves depend only on entry byte sizes against
/// a fixed budget, never on timing, so the whole argument also holds
/// for any worker count.
fn frontier_search(exec: &Executor<'_>, jobs: usize) -> Report {
    let cfg = exec.config();
    // Never spawn more workers than the host can run: oversubscribed
    // `--jobs` used to create idle threads that only added scheduling
    // noise. The clamp is invisible in the report — worker count never
    // influences results (the determinism argument above).
    let hw = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    let jobs = jobs.min(hw).max(1);
    let mut chunks_committed = 0usize;
    let checkpointing = cfg.checkpoint_dir.is_some();
    assert!(
        !(checkpointing && cfg.track_coverage),
        "coverage maps are not checkpointed; disable --coverage to checkpoint"
    );
    let dir: Option<Arc<SpillDir>> = match (&cfg.checkpoint_dir, cfg.mem_limit) {
        (Some(d), _) => Some(SpillDir::at(d).expect("create checkpoint directory")),
        (None, usize::MAX) => None,
        (None, _) => Some(SpillDir::temp().expect("create spill temp directory")),
    };
    // Budget split: half for the visited store's resident tier, a
    // quarter for the frontier spool's memory head, a quarter for the
    // in-flight chunk. Unbounded runs never touch the filesystem.
    let (store_budget, spool_budget, chunk_budget) = if cfg.mem_limit == usize::MAX {
        (usize::MAX, usize::MAX, usize::MAX)
    } else {
        let m = cfg.mem_limit;
        ((m / 2).max(1), (m / 4).max(1), (m / 4).max(1))
    };
    // The per-run component interner behind collapse compression: every
    // store/spool/checkpoint record is a compact varint tuple of dense
    // component IDs. IDs are assignment-order-dependent (and so may vary
    // with worker timing), which is harmless — they never appear in a
    // report, and checkpoints persist the assignment so resumed tuples
    // keep meaning the same states.
    let interner = Arc::new(ComponentInterner::new());
    let store = TieredStore::new(store_budget, dir.clone());
    let every = if cfg.checkpoint_every == 0 {
        32
    } else {
        cfg.checkpoint_every
    };
    let (program_hash, config_digest) = if checkpointing {
        (
            cfgir::program_content_hash(exec.program()),
            checkpoint::config_digest(cfg),
        )
    } else {
        (0, 0)
    };

    let mut report = Report::default();
    let mut coverage = cfg.track_coverage.then(|| Coverage::new(exec.program()));
    let mut level: usize = 0;
    let mut checkpoints = 0usize;
    let mut resumed_level = None;
    let mut frontier;
    if cfg.resume {
        let dirp = cfg
            .checkpoint_dir
            .as_deref()
            .expect("--resume requires a checkpoint directory");
        let r = checkpoint::resume::<FrontierItem>(
            dirp,
            program_hash,
            config_digest,
            &store,
            &interner,
        )
        .unwrap_or_else(|e| panic!("resume failed: {e}"));
        level = r.level;
        checkpoints = r.checkpoints_written;
        report = r.report;
        resumed_level = Some(level);
        frontier = FrontierSpool::new(spool_budget, dir.clone(), level as u64, interner.clone());
        for (item, cost) in r.frontier {
            frontier.push(item, cost).expect("respool resumed frontier");
        }
    } else {
        frontier = FrontierSpool::new(spool_budget, dir.clone(), 0, interner.clone());
        let init = exec.initial();
        let (h0, enc0) = init.fingerprint_and_intern(&interner);
        store.admit(h0, &enc0, rank(0, 0));
        store.seal(h0, &enc0, 0);
        report.states = 1;
        if cfg.max_depth == 0 {
            report.truncated = true;
        } else {
            let cost = enc0.len();
            let item = FrontierItem {
                state: init,
                depth: 0,
                path: Trace::default(),
            };
            frontier.push(item, cost).expect("spool initial frontier");
        }
    }
    report.frontier_spilled_entries += frontier.spooled();

    let mut stop = false;
    while !frontier.is_empty() && !stop {
        // Checkpoint at the level boundary — the only instant where the
        // loop state is exactly (sealed store, next frontier, report,
        // level). Skipped on the boundary we just resumed at: that
        // checkpoint already exists.
        if checkpointing && level > 0 && level.is_multiple_of(every) && resumed_level != Some(level)
        {
            let dirp = dir.as_ref().expect("checkpointing implies a spill dir");
            checkpoint::write(
                dirp.path(),
                level,
                &report,
                checkpoints + 1,
                (program_hash, config_digest),
                (&store, &interner),
                &mut frontier,
            )
            .expect("write checkpoint");
            checkpoints += 1;
            if cfg
                .abort_after_checkpoints
                .is_some_and(|n| checkpoints >= n)
            {
                // Test hook: a simulated kill at the first instant the
                // checkpoint is durable. The partial report is marked
                // truncated; a `--resume` run completes it.
                report.truncated = true;
                break;
            }
        }

        // The per-item budget is the *level-start* remainder — a value
        // fixed before any worker or chunk runs, so the expansion of an
        // item is a pure function of the item, never of sibling timing
        // or chunk boundaries. The same holds for the POR proviso:
        // `contains_sealed_before` bounded by this level's epoch sees
        // exactly the states committed by earlier levels, a set neither
        // workers nor earlier chunks of this level can grow.
        let remaining = cfg.max_transitions.saturating_sub(report.transitions);
        if remaining == 0 {
            report.truncated = true;
            break;
        }
        let epoch = (level + 1) as u32; // successors seal into the next level
        let mut next = FrontierSpool::new(
            spool_budget,
            dir.clone(),
            (level + 1) as u64,
            interner.clone(),
        );
        let mut base = 0usize; // frontier offset of the current chunk
        while !stop {
            let Some(chunk) = frontier
                .next_chunk(chunk_budget)
                .expect("read frontier spool")
            else {
                break;
            };
            let (expanded, chunk_cov) =
                expand_chunk(exec, &chunk, jobs, remaining, epoch, &store, &interner);
            if let (Some(mine), Some(theirs)) = (&mut coverage, chunk_cov.as_ref()) {
                mine.merge(theirs);
            }
            commit_chunk(
                &chunk,
                expanded,
                base,
                epoch,
                cfg,
                &store,
                &mut report,
                &mut next,
                &mut stop,
            );
            chunks_committed += 1;
            base += chunk.len();
        }
        report.frontier_spilled_entries += next.spooled();
        frontier = next;
        level += 1;
        store.end_of_level().expect("spill visited store");
    }
    report.visited_bytes = store.bytes();
    report.visited_states = store.len();
    report.coverage = coverage;
    // Operational (non-deterministic-surface) IO counters.
    report.store_peak_mem_bytes = report.store_peak_mem_bytes.max(store.peak_mem_bytes());
    report.store_spilled_entries = store.spilled_entries();
    report.store_segments = store.segment_count();
    report.checkpoints_written = checkpoints;
    report.store_stored_bytes = store.stored_bytes();
    report.store_segments_compacted = store.segments_compacted();
    report.interner_entries = interner.len();
    report.interner_bytes = interner.bytes();
    // Batched-commit observability (also operational): how much the
    // batch grouping and the tier-1 prefilter actually saved.
    let (m_ops, m_items, m_avoided) = store.batch_stats();
    let (i_ops, i_items, i_avoided) = interner.batch_stats();
    report.store_batch_ops = m_ops + i_ops;
    report.store_batch_items = m_items + i_items;
    report.store_lock_acquisitions_avoided = m_avoided + i_avoided;
    let (pf_probes, pf_hits, pf_rebuilds) = store.prefilter_stats();
    report.prefilter_probes = pf_probes;
    report.prefilter_hits = pf_hits;
    report.prefilter_rebuilds = pf_rebuilds;
    report.pipeline_chunks = chunks_committed;
    report
}

/// One chunk's parallel expansion, returned in frontier order with the
/// workers' merged coverage. Workers only *read* the store (the
/// epoch-bounded proviso probe); every store write happens in the
/// sequential [`commit_chunk`].
fn expand_chunk(
    exec: &Executor<'_>,
    chunk: &[FrontierItem],
    jobs: usize,
    remaining: usize,
    epoch: u32,
    store: &TieredStore,
    interner: &ComponentInterner,
) -> (Vec<Expanded>, Option<Coverage>) {
    let cfg = exec.config();
    let n = chunk.len();
    let cursor = AtomicUsize::new(0);
    let workers = jobs.min(n).max(1);
    let per_worker: Vec<WorkerBatch> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut cov = cfg.track_coverage.then(|| Coverage::new(exec.program()));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut cx = ExecCtx::with_coverage(remaining, cov.take());
                        let se =
                            exec.expand_stateful(&mut cx, interner, &chunk[i].state, |h, e| {
                                store.contains_sealed_before(h, e, epoch)
                            });
                        cov = cx.coverage.take();
                        out.push((
                            i,
                            Expanded {
                                se,
                                transitions: cx.transitions,
                                truncated: cx.truncated,
                                shared_components: cx.shared_components,
                                total_components: cx.total_components,
                                tosses_taken: cx.tosses_taken,
                            },
                        ));
                    }
                    (out, cov)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut slots: Vec<Option<Expanded>> = (0..n).map(|_| None).collect();
    let mut chunk_cov: Option<Coverage> = None;
    for (out, cov) in per_worker {
        for (i, e) in out {
            slots[i] = Some(e);
        }
        if let Some(theirs) = cov {
            match &mut chunk_cov {
                Some(mine) => mine.merge(&theirs),
                None => chunk_cov = Some(theirs),
            }
        }
    }
    let expanded = slots
        .into_iter()
        .map(|e| e.expect("every frontier item is expanded"))
        .collect();
    (expanded, chunk_cov)
}

/// The sequential commit of one expanded chunk, in three steps:
///
/// 1. **Admit** every successor of the chunk in one
///    [`TieredStore::insert_batch`] call, grouped by stripe. Arrival
///    order within the batch is immaterial — admission keeps the minimum
///    rank per state.
/// 2. **Seal** the winners in one [`TieredStore::seal_batch`] pre-pass.
///    Winners are final once the chunk's admits are in: every rank that
///    could beat a stored one was admitted by this or an earlier chunk
///    (later chunks only carry larger ranks), and at most one probe per
///    state holds the stored minimum, so per-stripe batching cannot
///    change any verdict. Flags past a stop cut are never read; the
///    extra seals they performed are report-invisible (seals only gate
///    spill contents and later-level probes, and the run is stopping).
/// 3. **Fold** the items in rank order: only winning occurrences enter
///    the next frontier, and the violation cap cuts at the same rank
///    for every worker count.
#[allow(clippy::too_many_arguments)]
fn commit_chunk(
    chunk: &[FrontierItem],
    expanded: Vec<Expanded>,
    base: usize,
    epoch: u32,
    cfg: &super::Config,
    store: &TieredStore,
    report: &mut Report,
    next: &mut FrontierSpool<FrontierItem>,
    stop: &mut bool,
) {
    let cap: usize = expanded.iter().map(|e| e.se.keys.len()).sum();
    let mut admits: Vec<(u64, u64, &[u8])> = Vec::with_capacity(cap);
    for (i, e) in expanded.iter().enumerate() {
        for (j, (h, enc)) in e.se.keys.iter().enumerate() {
            if !enc.is_empty() {
                admits.push((h, rank(base + i, j), enc));
            }
        }
    }
    store.insert_batch(&mut admits);
    // Freed before the probes are built: one chunk-sized list at a
    // time. The probes go in commit order, one per State child, which
    // is the order the fold below reads the verdicts back in.
    drop(admits);
    let mut probes: Vec<(u64, u64, &[u8])> = Vec::with_capacity(cap);
    for (i, e) in expanded.iter().enumerate() {
        if let NodeExpansion::Children(cs) = &e.se.expansion {
            for (j, c) in cs.iter().enumerate() {
                if matches!(c.outcome, SuccOutcome::State(..)) {
                    let (h, enc) = e.se.keys.get(j);
                    probes.push((h, rank(base + i, j), enc));
                }
            }
        }
    }
    let mut won = store.seal_batch(&probes, epoch).into_iter();
    for (item, e) in chunk.iter().zip(expanded) {
        if *stop {
            break;
        }
        let se = e.se;
        report.transitions += e.transitions;
        report.truncated |= e.truncated;
        report.shared_components += e.shared_components;
        report.total_components += e.total_components;
        report.tosses_taken += e.tosses_taken;
        report.por_skipped_procs += se.por_skipped;
        report.por_proviso_fallbacks += se.por_fallback as usize;
        match se.expansion {
            NodeExpansion::DeadEnd { deadlock } => {
                if deadlock {
                    report.violations.push(Violation {
                        kind: ViolationKind::Deadlock,
                        process: None,
                        trace: item.path.to_vec(),
                    });
                    *stop |= report.violations.len() >= cfg.max_violations;
                }
            }
            NodeExpansion::Children(cs) => {
                for (j, c) in cs.into_iter().enumerate() {
                    if *stop {
                        break;
                    }
                    let decision = Decision {
                        process: c.process,
                        choices: c.choices,
                    };
                    match c.outcome {
                        SuccOutcome::State(s, _) => {
                            if won.next().expect("one seal verdict per State child") {
                                report.states += 1;
                                report.max_depth_seen = report.max_depth_seen.max(item.depth + 1);
                                if item.depth + 1 >= cfg.max_depth {
                                    report.truncated = true;
                                } else {
                                    let cost = se.keys.get(j).1.len();
                                    let fi = FrontierItem {
                                        state: *s,
                                        depth: item.depth + 1,
                                        path: item.path.push(decision),
                                    };
                                    next.push(fi, cost).expect("spool next frontier");
                                }
                            }
                        }
                        SuccOutcome::Violation(kind, process) => {
                            report.violations.push(Violation {
                                kind,
                                process,
                                trace: item.path.pushed_vec(decision),
                            });
                            *stop |= report.violations.len() >= cfg.max_violations;
                        }
                    }
                }
            }
        }
    }
}

/// Explicit-state depth-first search. The POR proviso probes the visited
/// set at expansion time: the last state of any reduced-graph cycle to
/// be expanded necessarily sees its cycle successor already visited, so
/// it is fully expanded and no enabled process is ignored forever.
fn stateful_dfs(exec: &Executor<'_>) -> Report {
    let cfg = exec.config();
    let interner = ComponentInterner::new();
    let mut cx = ExecCtx::new(exec, cfg.max_transitions);
    let mut report = Report::default();
    let mut stop = false;
    let record = |report: &mut Report,
                  stop: &mut bool,
                  kind: ViolationKind,
                  process: Option<usize>,
                  trace: Vec<Decision>| {
        report.violations.push(Violation {
            kind,
            process,
            trace,
        });
        if report.violations.len() >= cfg.max_violations {
            *stop = true;
        }
    };
    // The visited set: compressed tuples bucketed by the (cheap,
    // incrementally combined) fingerprint; membership compares bytes,
    // per the collision-safety rule in [`crate::state::encode`]. Keyed
    // by an already-mixed fingerprint, so the pass-through hasher
    // applies here too.
    let mut visited: HashMap<u64, Vec<Box<[u8]>>, crate::hash::FpBuildHasher> = HashMap::default();
    // Work items carry their depth, (persistent) reproducing path, and
    // the state's fingerprint + compressed tuple — computed once at
    // discovery (`expand_stateful` needs them for the proviso anyway)
    // and reused for the pop-time dedup instead of re-encoding.
    type DfsItem = (GlobalState, usize, Trace, u64, Box<[u8]>);
    let init = exec.initial();
    let (h0, e0) = init.fingerprint_and_intern(&interner);
    let mut stack: Vec<DfsItem> = vec![(init, 0, Trace::default(), h0, e0.into_boxed_slice())];
    let mut stored_bytes = 0usize;
    while let Some((state, depth, path, fp, enc)) = stack.pop() {
        if stop || cx.truncated {
            break;
        }
        let bucket = visited.entry(fp).or_default();
        if bucket.iter().any(|e| **e == *enc) {
            continue;
        }
        // `visited_bytes` is the *raw* logical total: a tuple carries
        // the raw encoding length in its prefix.
        report.visited_bytes +=
            crate::state::intern::raw_len_of(&enc).expect("compressed tuple prefix");
        stored_bytes += enc.len();
        report.visited_states += 1;
        bucket.push(enc);
        report.states += 1;
        report.max_depth_seen = report.max_depth_seen.max(depth);
        if depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }
        let se = exec.expand_stateful(&mut cx, &interner, &state, |h, e| {
            visited.get(&h).is_some_and(|b| b.iter().any(|x| **x == *e))
        });
        report.por_skipped_procs += se.por_skipped;
        report.por_proviso_fallbacks += se.por_fallback as usize;
        match se.expansion {
            NodeExpansion::DeadEnd { deadlock } => {
                if deadlock {
                    record(
                        &mut report,
                        &mut stop,
                        ViolationKind::Deadlock,
                        None,
                        path.to_vec(),
                    );
                }
            }
            NodeExpansion::Children(cs) => {
                for (c, (h, e)) in cs.into_iter().zip(se.keys.iter()) {
                    if stop {
                        break;
                    }
                    let d = Decision {
                        process: c.process,
                        choices: c.choices,
                    };
                    match c.outcome {
                        SuccOutcome::State(s, _) => {
                            stack.push((*s, depth + 1, path.push(d), h, Box::from(e)))
                        }
                        SuccOutcome::Violation(k, pr) => {
                            record(&mut report, &mut stop, k, pr, path.pushed_vec(d));
                        }
                    }
                }
            }
        }
    }
    report.transitions = cx.transitions;
    report.truncated |= cx.truncated;
    report.shared_components = cx.shared_components;
    report.total_components = cx.total_components;
    report.tosses_taken = cx.tosses_taken;
    report.coverage = cx.coverage;
    report.store_stored_bytes = stored_bytes;
    report.interner_entries = interner.len();
    report.interner_bytes = interner.bytes();
    report
}
