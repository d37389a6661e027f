//! Micro-benchmark of the tiered visited store behind the out-of-core
//! frontier engines: rank admission + sealing into the in-memory tier,
//! membership probes against both tiers (an on-disk hit pays one
//! positional read to confirm the tuple; a miss stays an O(1) index
//! lookup), and the sealed-drain → segment-write spill cycle. The
//! element set is reachable states of the auto-closed
//! `switchgen --lines 2` application, as in `state_ops`. Writes
//! `BENCH_visited_store.json`; `ci.sh` checks the file's schema.

use reclose_bench::close;
use reclose_bench::harness::{BenchmarkId, Criterion, Throughput};
use reclose_bench::{criterion_group, criterion_main};
use std::collections::HashSet;
use std::hint::black_box;
use switchsim::SwitchConfig;
use verisoft::search::store::{rank, SpillDir, TieredStore};
use verisoft::state::encode_state;
use verisoft::{ComponentInterner, Config, ExecCtx, Executor, GlobalState, Scheduled, SuccOutcome};

/// How many distinct reachable states to collect for the sweep.
const SAMPLE: usize = 2_000;

fn switch_lines2() -> cfgir::CfgProgram {
    let cfg = SwitchConfig {
        lines: 2,
        events_per_line: 1,
        ..SwitchConfig::default()
    };
    let open = cfgir::compile(&switchsim::generate(&cfg)).unwrap();
    close(&open).program
}

/// Breadth-first sweep collecting up to [`SAMPLE`] distinct reachable
/// states (deduplicated by canonical encoding).
fn reachable_states(exec: &Executor<'_>) -> Vec<GlobalState> {
    let mut cx = ExecCtx::new(exec, usize::MAX);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut states = vec![exec.initial()];
    seen.insert(encode_state(&states[0]));
    let mut i = 0;
    while i < states.len() && states.len() < SAMPLE {
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
                    if seen.insert(encode_state(&s)) {
                        states.push(*s);
                    }
                }
                if states.len() >= SAMPLE {
                    return states;
                }
            }
        }
    }
    states
}

/// A store with every encoding admitted and sealed (epoch 1), either
/// unbounded in memory or fully spilled to a tier-1 segment.
fn sealed_store(encs: &[(u64, Vec<u8>)], spill: bool) -> TieredStore {
    let dir = spill.then(|| SpillDir::temp().expect("temp spill dir"));
    let store = TieredStore::new(if spill { 0 } else { usize::MAX }, dir);
    for (j, (h, e)) in encs.iter().enumerate() {
        store.admit(*h, e, rank(j, 0));
        store.seal_if_winner(*h, e, rank(j, 0), 1);
    }
    if spill {
        store.end_of_level().expect("spill to segment");
        assert_eq!(store.segment_count(), 1);
    }
    store
}

fn bench(c: &mut Criterion) {
    let prog = switch_lines2();
    let config = Config::default();
    let exec = Executor::new(&prog, &config);
    let states = reachable_states(&exec);
    // The keys the frontier engine stores: fingerprint plus the
    // collapse-compressed component-ID tuple.
    let interner = ComponentInterner::new();
    let encs: Vec<(u64, Vec<u8>)> = states
        .iter()
        .map(|s| s.fingerprint_and_intern(&interner))
        .collect();
    // Present/absent halves for hit/miss probes.
    let (present, absent) = encs.split_at(encs.len() / 2);
    let bytes: usize = encs.iter().map(|(_, e)| e.len()).sum();
    println!(
        "workload: switchgen --lines 2 (auto-closed), {} reachable states, \
         {:.1} bytes/state as tuples",
        states.len(),
        bytes as f64 / states.len() as f64
    );

    let n = encs.len() as u64;
    let mut g = c.benchmark_group("visited_store");
    g.throughput(Throughput::Elements(n));

    // The frontier's write path: admit + seal into the memory tier.
    g.bench_with_input(BenchmarkId::new("insert", n), &encs, |b, encs| {
        b.iter(|| {
            let store = TieredStore::new(usize::MAX, None);
            for (j, (h, e)) in encs.iter().enumerate() {
                store.admit(*h, e, rank(j, 0));
                store.seal_if_winner(*h, e, rank(j, 0), 1);
            }
            black_box(store.len())
        })
    });

    // The same write path through the batched commit entry points the
    // frontier engines use per chunk: one stripe-grouped `insert_batch`
    // plus one `seal_batch`, instead of two locked calls per state.
    g.bench_with_input(BenchmarkId::new("insert_batch", n), &encs, |b, encs| {
        b.iter(|| {
            let store = TieredStore::new(usize::MAX, None);
            let mut items: Vec<(u64, u64, &[u8])> = encs
                .iter()
                .enumerate()
                .map(|(j, (h, e))| (*h, rank(j, 0), e.as_slice()))
                .collect();
            store.insert_batch(&mut items);
            let probes: Vec<(u64, u64, &[u8])> = encs
                .iter()
                .enumerate()
                .map(|(j, (h, e))| (*h, rank(j, 0), e.as_slice()))
                .collect();
            black_box(store.seal_batch(&probes, 1));
            black_box(store.len())
        })
    });

    // The POR-proviso probe against memory-resident sealed states.
    let mem = sealed_store(&encs, false);
    g.bench_with_input(BenchmarkId::new("probe_hit_mem", n), &encs, |b, encs| {
        b.iter(|| {
            encs.iter()
                .filter(|(h, e)| mem.contains_sealed_before(*h, e, 2))
                .count()
        })
    });

    // The same probe when every sealed state lives on disk: the index
    // nominates in memory, one positional read confirms the bytes.
    let spilled = sealed_store(&encs, true);
    g.bench_with_input(BenchmarkId::new("probe_hit_disk", n), &encs, |b, encs| {
        b.iter(|| {
            encs.iter()
                .filter(|(h, e)| spilled.contains_sealed_before(*h, e, 2))
                .count()
        })
    });

    // Misses against the spilled store never touch disk: the
    // fingerprint index answers in memory.
    let half = sealed_store(present, true);
    g.throughput(Throughput::Elements(absent.len() as u64));
    g.bench_with_input(BenchmarkId::new("probe_miss", n), &absent, |b, absent| {
        b.iter(|| {
            absent
                .iter()
                .filter(|(h, e)| half.contains_sealed_before(*h, e, 2))
                .count()
        })
    });

    // The full spill cycle: admit + seal everything, then drain the
    // sealed set into a synced segment and index it.
    g.throughput(Throughput::Elements(n));
    g.bench_with_input(BenchmarkId::new("spill", n), &encs, |b, encs| {
        b.iter(|| {
            let store = sealed_store(encs, true);
            black_box(store.spilled_entries())
        })
    });

    // Checkpoint-time segment compaction: spill in four small levels,
    // then merge the shards into one segment and remap their index
    // refs (the cost the checkpoint writer pays to cap file handles).
    g.bench_with_input(BenchmarkId::new("compact", n), &encs, |b, encs| {
        b.iter(|| {
            let dir = SpillDir::temp().expect("temp spill dir");
            let store = TieredStore::new(0, Some(dir));
            for chunk in encs.chunks(encs.len() / 4 + 1) {
                for (j, (h, e)) in chunk.iter().enumerate() {
                    store.admit(*h, e, rank(j, 0));
                    store.seal_if_winner(*h, e, rank(j, 0), 1);
                }
                store.end_of_level().expect("spill to segment");
            }
            let retired = store.compact_segments().expect("compact");
            assert_eq!(retired, 4, "all four shard segments merge");
            black_box(store.segment_count())
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(3)
        .emit_json("visited_store");
    targets = bench
}
criterion_main!(benches);
