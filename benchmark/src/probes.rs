//! Primitive probes: nanoseconds per call of the explorer's hot public
//! functions, over a fixed sample of reachable states of the workload's
//! own closed programs. Run in the traced run only.

use crate::stats::median;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use verisoft::search::store::rank;
use verisoft::{
    enabled_processes, encode_state, persistent_set, ComponentInterner, Config, ExecCtx, Executor,
    GlobalState, Scheduled, SuccOutcome, VisitedStore,
};

/// Reachable states sampled per program, breadth first.
pub const STATES_PER_PROGRAM: usize = 1_000;
/// Timed repetitions per probe; the median is reported.
pub const REPS: usize = 5;

/// Nanoseconds per call of each probed function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `Executor::successors`, per call (one process, all its outcomes).
    pub successors_ns: f64,
    /// `GlobalState::fingerprint`.
    pub fingerprint_ns: f64,
    /// `ComponentInterner::intern` of a canonical state encoding, half
    /// first insertions and half repeats.
    pub intern_ns: f64,
    /// `VisitedStore::admit` plus `seal` of one state.
    pub insert_ns: f64,
    /// `encode_state`.
    pub encode_ns: f64,
    /// `persistent_set`, given the enabled processes.
    pub persistent_set_ns: f64,
    /// States sampled.
    pub states: usize,
}

/// Up to `limit` distinct reachable states, breadth first.
fn sample(exec: &Executor<'_>, limit: usize) -> Vec<GlobalState> {
    let mut cx = ExecCtx::new(exec, usize::MAX);
    let mut seen = HashSet::new();
    let mut states = vec![exec.initial()];
    seen.insert(encode_state(&states[0]));
    let mut i = 0;
    while i < states.len() && states.len() < limit {
        let state = states[i].clone();
        i += 1;
        let pids = match exec.schedule(&state) {
            Scheduled::Init(pid) => vec![pid],
            Scheduled::Procs(procs) => procs,
            Scheduled::DeadEnd { .. } => continue,
        };
        for pid in pids {
            for (_, outcome) in exec.successors(&mut cx, &state, pid) {
                if let SuccOutcome::State(s, _) = outcome {
                    if states.len() < limit && seen.insert(encode_state(&s)) {
                        states.push(*s);
                    }
                }
            }
        }
    }
    states
}

/// Median over [`REPS`] runs of `f`, in nanoseconds per call; `f`
/// returns how many calls it made.
fn time_per_call(mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut per_call = Vec::with_capacity(REPS);
    let mut calls = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        calls = f();
        per_call.push(t.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    (median(&per_call), calls)
}

/// Probe every function over the states of `progs`, summing calls
/// across programs.
pub fn run(progs: &[cfgir::CfgProgram]) -> Probes {
    let config = Config::default();
    // (total ns, calls) per probe, summed over programs.
    let mut acc = [(0.0f64, 0usize); 6];
    let mut states_total = 0;
    for prog in progs {
        let exec = Executor::new(prog, &config);
        let states = sample(&exec, STATES_PER_PROGRAM);
        states_total += states.len();
        let scheduled: Vec<Vec<usize>> = states
            .iter()
            .map(|s| match exec.schedule(s) {
                Scheduled::Init(pid) => vec![pid],
                Scheduled::Procs(procs) => procs,
                Scheduled::DeadEnd { .. } => Vec::new(),
            })
            .collect();
        let encs: Vec<(u64, Vec<u8>)> = states
            .iter()
            .map(|s| (s.fingerprint(), encode_state(s)))
            .collect();
        let enabled: Vec<Vec<usize>> = states.iter().map(|s| enabled_processes(prog, s)).collect();

        let probes: [(f64, usize); 6] = [
            time_per_call(|| {
                let mut cx = ExecCtx::new(&exec, usize::MAX);
                let mut calls = 0;
                for (s, pids) in states.iter().zip(&scheduled) {
                    for &pid in pids {
                        black_box(exec.successors(&mut cx, s, pid));
                        calls += 1;
                    }
                }
                calls
            }),
            time_per_call(|| {
                for s in &states {
                    black_box(s.fingerprint());
                }
                states.len()
            }),
            time_per_call(|| {
                let interner = ComponentInterner::new();
                for _ in 0..2 {
                    for (_, e) in &encs {
                        black_box(interner.intern(e));
                    }
                }
                2 * encs.len()
            }),
            time_per_call(|| {
                let store = VisitedStore::default();
                for (j, (h, e)) in encs.iter().enumerate() {
                    store.admit(*h, e, rank(j, 0));
                    store.seal(*h, e, 1);
                }
                black_box(store.len())
            }),
            time_per_call(|| {
                for s in &states {
                    black_box(encode_state(s));
                }
                states.len()
            }),
            time_per_call(|| {
                for (s, en) in states.iter().zip(&enabled) {
                    black_box(persistent_set(prog, exec.static_info(), s, en));
                }
                states.len()
            }),
        ];
        for (a, (ns, calls)) in acc.iter_mut().zip(probes) {
            a.0 += ns * calls as f64;
            a.1 += calls;
        }
    }
    let per = |k: usize| acc[k].0 / acc[k].1.max(1) as f64;
    Probes {
        successors_ns: per(0),
        fingerprint_ns: per(1),
        intern_ns: per(2),
        insert_ns: per(3),
        encode_ns: per(4),
        persistent_set_ns: per(5),
        states: states_total,
    }
}
