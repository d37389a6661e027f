//! The parallel engines' contract: the report is byte-identical for any
//! `--jobs` value, on every corpus program, in every relevant mode —
//! for both the sharded work-stealing stateless engine and the
//! shared-visited-store stateful frontier engine.

use reclose::prelude::*;
use switchsim::rng::SplitMix64;
use verisoft::Violation;

fn corpus_files() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus dir exists") {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "mc").unwrap_or(false) {
            out.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
    out.sort();
    assert!(out.len() >= 6, "corpus populated");
    out
}

/// Everything observable about a report: (states, transitions, max depth,
/// truncated, violations, trace count, coverage totals, POR counters).
type ReportKey = (
    usize,
    usize,
    usize,
    bool,
    Vec<Violation>,
    usize,
    Option<(usize, usize)>,
    (usize, usize),
);

fn key(r: &Report) -> ReportKey {
    (
        r.states,
        r.transitions,
        r.max_depth_seen,
        r.truncated,
        r.violations.clone(),
        r.traces.len(),
        r.coverage.as_ref().map(|c| c.totals()),
        (r.por_skipped_procs, r.por_proviso_fallbacks),
    )
}

fn closed_corpus() -> Vec<(String, cfgir::CfgProgram)> {
    corpus_files()
        .into_iter()
        .map(|(name, src)| {
            let open = compile(&src).unwrap_or_else(|d| panic!("{name}: {d}"));
            (
                name,
                closer::close(&open, &dataflow::analyze(&open)).program,
            )
        })
        .collect()
}

#[test]
fn explore_jobs1_equals_jobs4_on_corpus() {
    for (name, prog) in closed_corpus() {
        let base = Config {
            engine: Engine::Parallel,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: usize::MAX,
            track_coverage: true,
            ..Config::default()
        };
        let one = explore(
            &prog,
            &Config {
                jobs: 1,
                ..base.clone()
            },
        );
        let four = explore(
            &prog,
            &Config {
                jobs: 4,
                ..base.clone()
            },
        );
        assert_eq!(key(&one), key(&four), "{name}");
        assert!(!one.truncated, "{name}: caps must not mask the comparison");
    }
}

#[test]
fn violation_schedules_replay_identically_across_jobs() {
    // Open corpus programs explored under domain enumeration produce
    // violations; every reported schedule must be identical across job
    // counts and replay to the recorded violation.
    for (name, src) in corpus_files() {
        let prog = compile(&src).unwrap();
        let base = Config {
            engine: Engine::Parallel,
            env_mode: EnvMode::Enumerate,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: usize::MAX,
            ..Config::default()
        };
        let one = explore(
            &prog,
            &Config {
                jobs: 1,
                ..base.clone()
            },
        );
        let four = explore(
            &prog,
            &Config {
                jobs: 4,
                ..base.clone()
            },
        );
        assert_eq!(one.violations, four.violations, "{name}");
        for v in &four.violations {
            assert!(
                verisoft::replay(&prog, &v.trace, base.env_mode, &base.limits).is_err(),
                "{name}: schedule must replay into the violation: {v}"
            );
        }
    }
}

#[test]
fn first_violation_mode_is_jobs_invariant() {
    // max_violations: 1 exercises the ordered-commit truncation path:
    // racing workers may overshoot the cap, but the committed report may
    // not depend on the worker count.
    for (name, src) in corpus_files() {
        let prog = compile(&src).unwrap();
        let base = Config {
            engine: Engine::Parallel,
            env_mode: EnvMode::Enumerate,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: 1,
            ..Config::default()
        };
        let runs: Vec<Report> = [1, 2, 4, 8]
            .iter()
            .map(|&jobs| {
                explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                )
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(runs[0].violations, r.violations, "{name}");
        }
    }
}

#[test]
fn trace_sets_are_jobs_invariant_on_figures() {
    // Exact trace-set collection (the Figure 3 experiment's mode) across
    // job counts, closed Figure 2/3 programs.
    for (name, src) in [
        ("fig2", reclose_bench::FIG2_P),
        ("fig3", reclose_bench::FIG3_Q),
    ] {
        let open = compile(src).unwrap();
        let prog = closer::close(&open, &dataflow::analyze(&open)).program;
        let base = Config {
            engine: Engine::Parallel,
            collect_traces: true,
            por: false,
            sleep_sets: false,
            max_violations: usize::MAX,
            max_depth: 200,
            ..Config::default()
        };
        let one = explore(
            &prog,
            &Config {
                jobs: 1,
                ..base.clone()
            },
        );
        let four = explore(
            &prog,
            &Config {
                jobs: 4,
                ..base.clone()
            },
        );
        assert_eq!(one.traces, four.traces, "{name}");
        assert!(!one.traces.is_empty(), "{name}");
    }
}

#[test]
fn stateful_parallel_is_jobs_invariant_on_corpus() {
    // The shared-visited-store frontier engine: byte-identical reports
    // for every worker count, and equal to the sequential BFS driver on
    // cap-free runs.
    for (name, prog) in closed_corpus() {
        let base = Config {
            engine: Engine::StatefulParallel,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: usize::MAX,
            track_coverage: true,
            ..Config::default()
        };
        let bfs = explore(
            &prog,
            &Config {
                engine: Engine::Bfs,
                ..base.clone()
            },
        );
        let runs: Vec<Report> = [1, 2, 4, 8]
            .iter()
            .map(|&jobs| {
                explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                )
            })
            .collect();
        assert!(!bfs.truncated, "{name}: caps must not mask the comparison");
        for r in &runs {
            assert_eq!(key(&bfs), key(r), "{name}: must equal sequential BFS");
        }
    }
}

#[test]
fn stateful_por_reports_are_byte_identical_across_jobs() {
    // POR selection and the ignoring proviso must be pure functions of
    // the state (never of worker timing): with reduction on — and off —
    // the *rendered report bytes* and the full report key must match for
    // jobs 1, 2 and 8, and match the sequential BFS driver. The cyclic
    // ring program rides along to pin the proviso path itself.
    let mut programs = closed_corpus();
    let ring = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/cyclic/ring.mc");
    programs.push((
        "cyclic/ring.mc".into(),
        compile(&std::fs::read_to_string(ring).unwrap()).unwrap(),
    ));
    for (name, prog) in programs {
        for por in [true, false] {
            let base = Config {
                engine: Engine::StatefulParallel,
                por,
                sleep_sets: por,
                max_depth: 300,
                max_transitions: 2_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            };
            let bfs = explore(
                &prog,
                &Config {
                    engine: Engine::Bfs,
                    ..base.clone()
                },
            );
            for jobs in [1, 2, 8] {
                let r = explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                );
                assert_eq!(key(&bfs), key(&r), "{name}: por={por} jobs={jobs}");
                assert_eq!(
                    format!("{bfs}").into_bytes(),
                    format!("{r}").into_bytes(),
                    "{name}: por={por} jobs={jobs}: rendered bytes differ"
                );
            }
        }
    }
}

#[test]
fn stateful_parallel_first_violation_is_jobs_invariant() {
    // With max_violations: 1 the ordered commit must cut at the same
    // discovery rank for every worker count.
    for (name, src) in corpus_files() {
        let prog = compile(&src).unwrap();
        let base = Config {
            engine: Engine::StatefulParallel,
            env_mode: EnvMode::Enumerate,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: 1,
            ..Config::default()
        };
        let runs: Vec<Report> = [1, 2, 8]
            .iter()
            .map(|&jobs| {
                explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                )
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(runs[0].violations, r.violations, "{name}");
        }
        for v in &runs[0].violations {
            assert!(
                verisoft::replay(&prog, &v.trace, base.env_mode, &base.limits).is_err(),
                "{name}: schedule must replay into the violation: {v}"
            );
        }
    }
}

/// A deliberately skewed decision tree: a long unary spine of sends, then
/// a bushy crown of toss branches. With `shard_target: 1` the sharding
/// pass hands the whole tree to one worker as a single entry, so any
/// parallelism the other workers contribute can only come from stealing
/// donated subtrees off the spine-walking owner.
const SKEWED: &str = r#"
    chan out[64];
    proc skew() {
        int i = 0;
        while (i < 16) { send(out, i); i = i + 1; }
        int a = VS_toss(2);
        int b = VS_toss(2);
        int c = VS_toss(2);
        send(out, a + b + c);
        VS_assert(a + b + c < 6);
    }
    process skew();
"#;

#[test]
fn skewed_tree_with_stealing_matches_sequential() {
    let prog = compile(SKEWED).unwrap();
    let seq_cfg = Config {
        max_violations: usize::MAX,
        collect_traces: true,
        track_coverage: true,
        ..Config::default()
    };
    let seq = explore(&prog, &seq_cfg);
    assert!(
        !seq.violations.is_empty(),
        "the a+b+c==6 leaf must be found"
    );
    for jobs in [1, 2, 4, 8] {
        let par = explore(
            &prog,
            &Config {
                engine: Engine::Parallel,
                jobs,
                shard_target: 1,
                ..seq_cfg.clone()
            },
        );
        assert_eq!(key(&seq), key(&par), "jobs={jobs}");
    }
}

#[test]
fn adaptive_shard_target_is_jobs_invariant() {
    // `shard_target: 0` lets the sharding pass size the shard set from
    // the branching it observes. The target is derived from a sequential
    // pass over the tree prefix, never from the worker count, so the
    // merged report must stay byte-identical across jobs — on every
    // corpus program and on the skewed spine-and-crown tree.
    let mut programs = closed_corpus();
    programs.push(("skewed".into(), compile(SKEWED).unwrap()));
    for (name, prog) in programs {
        let base = Config {
            engine: Engine::Parallel,
            shard_target: 0,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: usize::MAX,
            track_coverage: true,
            ..Config::default()
        };
        let seq = explore(
            &prog,
            &Config {
                engine: Engine::Stateless,
                ..base.clone()
            },
        );
        for jobs in [1, 2, 4, 8] {
            let par = explore(
                &prog,
                &Config {
                    jobs,
                    ..base.clone()
                },
            );
            assert_eq!(key(&seq), key(&par), "{name}: jobs={jobs}");
        }
    }
}

#[test]
fn skewed_tree_stateful_sweep_is_jobs_invariant() {
    let prog = compile(SKEWED).unwrap();
    let base = Config {
        engine: Engine::StatefulParallel,
        max_violations: usize::MAX,
        track_coverage: true,
        ..Config::default()
    };
    let bfs = explore(
        &prog,
        &Config {
            engine: Engine::Bfs,
            ..base.clone()
        },
    );
    for jobs in [1, 2, 4, 8] {
        let par = explore(
            &prog,
            &Config {
                jobs,
                ..base.clone()
            },
        );
        assert_eq!(key(&bfs), key(&par), "jobs={jobs}");
    }
}

/// Breadth-first sweep over a program's reachable states (deduplicated
/// by canonical encoding), capped at `cap` distinct states.
fn reachable_states(prog: &cfgir::CfgProgram, cap: usize) -> Vec<verisoft::GlobalState> {
    let config = Config::default();
    let exec = verisoft::Executor::new(prog, &config);
    let mut cx = verisoft::ExecCtx::new(&exec, usize::MAX);
    let mut seen = std::collections::HashSet::new();
    let mut states = vec![exec.initial()];
    seen.insert(verisoft::encode_state(&states[0]));
    let mut i = 0;
    while i < states.len() && states.len() < cap {
        let state = states[i].clone();
        i += 1;
        let pids = match exec.schedule(&state) {
            verisoft::Scheduled::Init(pid) => vec![pid],
            verisoft::Scheduled::Procs(procs) => procs,
            verisoft::Scheduled::DeadEnd { .. } => continue,
        };
        for pid in pids {
            for (_, outcome) in exec.successors(&mut cx, &state, pid) {
                if let verisoft::SuccOutcome::State(s, _) = outcome {
                    if seen.insert(verisoft::encode_state(&s)) && states.len() < cap {
                        states.push(*s);
                    }
                }
            }
        }
    }
    states
}

#[test]
fn cow_successors_match_the_eager_clone_oracle_on_corpus() {
    // Every successor produced through the CoW mutation funnel
    // (`CowArc::make_mut`) must be value-equal — and fingerprint-equal —
    // to its *eager clone*: the decode of its canonical encoding, which
    // shares no allocation with the CoW state. A divergence here means a
    // mutation slipped past the funnel or a cached sub-hash went stale.
    for (name, prog) in closed_corpus() {
        let config = Config::default();
        let exec = verisoft::Executor::new(&prog, &config);
        let mut cx = verisoft::ExecCtx::new(&exec, usize::MAX);
        let mut seen = std::collections::HashSet::new();
        let mut queue = vec![exec.initial()];
        seen.insert(verisoft::encode_state(&queue[0]));
        let mut i = 0;
        let mut checked = 0usize;
        while i < queue.len() && checked < 2_000 {
            let state = queue[i].clone();
            i += 1;
            let pids = match exec.schedule(&state) {
                verisoft::Scheduled::Init(pid) => vec![pid],
                verisoft::Scheduled::Procs(procs) => procs,
                verisoft::Scheduled::DeadEnd { .. } => continue,
            };
            for pid in pids {
                for (_, outcome) in exec.successors(&mut cx, &state, pid) {
                    if let verisoft::SuccOutcome::State(s, _) = outcome {
                        let enc = verisoft::encode_state(&s);
                        let oracle = verisoft::decode_state(&enc)
                            .unwrap_or_else(|| panic!("{name}: canonical encoding decodes"));
                        assert_eq!(*s, oracle, "{name}: CoW successor != eager clone");
                        assert_eq!(
                            s.fingerprint(),
                            oracle.fingerprint(),
                            "{name}: cached sub-hashes drifted from the eager clone"
                        );
                        checked += 1;
                        if seen.insert(enc) {
                            queue.push(*s);
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "{name}: sweep produced successors");
    }
}

#[test]
fn every_reachable_corpus_state_roundtrips_through_the_encoder() {
    // decode(encode(s)) == s, and re-encoding the decode reproduces the
    // byte string — over the reachable fragment of every closed corpus
    // program, not just hand-built states.
    for (name, prog) in closed_corpus() {
        let states = reachable_states(&prog, 2_000);
        assert!(states.len() > 1, "{name}: sweep reached states");
        for s in &states {
            let enc = verisoft::encode_state(s);
            let back = verisoft::decode_state(&enc)
                .unwrap_or_else(|| panic!("{name}: reachable state decodes"));
            assert_eq!(*s, back, "{name}: roundtrip changed the state");
            assert_eq!(
                enc,
                verisoft::encode_state(&back),
                "{name}: re-encoding is not stable"
            );
        }
    }
}

/// Build a pseudo-random report from a deterministic seed, exercising
/// every merged field.
fn seeded_report(rng: &mut SplitMix64) -> Report {
    let mut r = Report {
        states: rng.below(100),
        transitions: rng.below(1000),
        max_depth_seen: rng.below(50),
        truncated: rng.coin(),
        ..Report::default()
    };
    for _ in 0..rng.below(4) {
        r.violations.push(Violation {
            kind: verisoft::ViolationKind::AssertionViolation,
            process: Some(rng.below(4)),
            trace: vec![verisoft::Decision {
                process: rng.below(4),
                choices: vec![rng.next_u64() as u32 % 8],
            }],
        });
    }
    r
}

fn report_fields(r: &Report) -> (usize, usize, usize, bool, Vec<Violation>, usize) {
    (
        r.states,
        r.transitions,
        r.max_depth_seen,
        r.truncated,
        r.violations.clone(),
        r.traces.len(),
    )
}

#[test]
fn report_merge_is_a_monoid_under_seeded_fragments() {
    // `Report::merge` is the parallel engines' only combination
    // operator; the ordered commit relies on it being a monoid.
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let a = seeded_report(&mut rng);
        let b = seeded_report(&mut rng);
        let c = seeded_report(&mut rng);

        // Identity on both sides.
        let mut left = Report::default();
        left.merge(a.clone());
        assert_eq!(report_fields(&left), report_fields(&a), "seed {seed}");
        let mut right = a.clone();
        right.merge(Report::default());
        assert_eq!(report_fields(&right), report_fields(&a), "seed {seed}");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ab_c = ab;
        ab_c.merge(c.clone());
        let mut bc = b.clone();
        bc.merge(c.clone());
        let mut a_bc = a.clone();
        a_bc.merge(bc);
        assert_eq!(report_fields(&ab_c), report_fields(&a_bc), "seed {seed}");
    }
}

#[test]
fn report_merge_trace_sets_union_and_violations_concatenate() {
    // Trace sets union (idempotent: merging a fragment carrying the
    // same maximal traces adds nothing), while violations concatenate
    // in order — duplicates are preserved, as the ordered commit
    // requires for deterministic cap cuts.
    let mut rng = SplitMix64::new(7);
    for _ in 0..32 {
        let mut a = seeded_report(&mut rng);
        a.traces.insert(Vec::new());
        let dup = a.clone();
        let before_traces = a.traces.clone();
        let before_violations = a.violations.clone();
        a.merge(dup);
        assert_eq!(a.traces, before_traces, "trace-set union is idempotent");
        assert_eq!(
            a.violations.len(),
            before_violations.len() * 2,
            "violations concatenate, preserving duplicates"
        );
        assert_eq!(
            &a.violations[..before_violations.len()],
            &before_violations[..]
        );
        assert_eq!(
            &a.violations[before_violations.len()..],
            &before_violations[..]
        );
    }
}
