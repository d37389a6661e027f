//! Differential oracle for the frontier engine's batched commit
//! (batched store admission and winner seals over the tiered store):
//! for every worker count and memory budget it must explore exactly the
//! states the sequential explicit-state DFS ([`Engine::Stateful`])
//! explores. The DFS is an independent reference — its visited set is a
//! private `HashMap`, and it shares no store, spool, or commit code with
//! the frontier engine. The frontier reports must also be byte-identical
//! to each other.

use reclose::prelude::*;
use std::process::Command;

fn workers_src() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc"))
        .expect("corpus/workers.mc")
}

/// Two processes cycling values through a *shared* channel, so an
/// unlucky interleaving hands `a` one of `b`'s values and trips the
/// assertion — exercises the violation path and the `--all` accumulation
/// through the batched commit.
const RACY_SRC: &str = r#"
    chan q[2];
    proc a() {
        int i = 0;
        while (i < 4) {
            send(q, i);
            int x = recv(q);
            VS_assert(x < 4);
            i = i + 1;
        }
    }
    proc b() {
        int j = 0;
        while (j < 3) {
            send(q, 7);
            int y = recv(q);
            j = j + 1;
        }
    }
    process a();
    process b();
"#;

/// A two-process cyclic wait: both block on their first receive, so the
/// very first level dead-ends — exercises the deadlock branch.
const DEADLOCK_SRC: &str = r#"
    chan c1[1];
    chan c2[1];
    proc p() {
        int x = recv(c1);
        send(c2, x);
    }
    proc r() {
        int y = recv(c2);
        send(c1, y);
    }
    process p();
    process r();
"#;

/// The `(kind, process)` of every violation, sorted: the DFS reaches
/// violations in a different order and along different paths than the
/// breadth-first frontier, but with POR off and no violation cap both
/// record one per violating transition of every reachable state.
fn violation_multiset(r: &Report) -> Vec<(String, Option<usize>)> {
    let mut v: Vec<_> = r
        .violations
        .iter()
        .map(|v| (v.kind.to_string(), v.process))
        .collect();
    v.sort();
    v
}

#[test]
fn frontier_engine_matches_the_stateful_dfs_reference() {
    let models = [
        ("workers", workers_src()),
        ("racy", RACY_SRC.to_string()),
        ("deadlock", DEADLOCK_SRC.to_string()),
    ];
    for (name, src) in &models {
        let prog = compile(src).unwrap();
        let exhaustive = Config {
            por: false,
            max_violations: usize::MAX,
            ..Config::default()
        };
        let reference = explore(
            &prog,
            &Config {
                engine: Engine::Stateful,
                ..exhaustive.clone()
            },
        );
        assert!(!reference.truncated, "{name}: the reference completes");
        let mut first: Option<String> = None;
        for jobs in [1usize, 2, 8] {
            for mem_limit in [usize::MAX, 256] {
                let tag = format!("{name} jobs={jobs} mem_limit={mem_limit}");
                let r = explore(
                    &prog,
                    &Config {
                        engine: if jobs > 1 {
                            Engine::StatefulParallel
                        } else {
                            Engine::Bfs
                        },
                        jobs,
                        mem_limit,
                        ..exhaustive.clone()
                    },
                );
                assert_eq!(
                    (r.states, r.visited_states, r.visited_bytes),
                    (
                        reference.states,
                        reference.visited_states,
                        reference.visited_bytes
                    ),
                    "{tag}: explored state set differs from the DFS reference"
                );
                assert_eq!(
                    violation_multiset(&r),
                    violation_multiset(&reference),
                    "{tag}: violations differ from the DFS reference"
                );
                assert!(r.store_batch_ops > 0, "{tag}: no batches issued");
                let s = r.to_string();
                match &first {
                    None => first = Some(s),
                    Some(f) => assert_eq!(f, &s, "{tag}: report not byte-identical"),
                }
            }
        }
    }
    let racy = explore(
        &compile(RACY_SRC).unwrap(),
        &Config {
            engine: Engine::Bfs,
            max_violations: usize::MAX,
            ..Config::default()
        },
    );
    assert!(!racy.clean(), "the racy model really violates");
}

#[test]
fn cli_reports_are_byte_identical_across_jobs_and_mem_limit() {
    // The whole CLI output (report included) and the exit status must
    // not depend on the worker count or on spilling.
    let dir = std::env::temp_dir().join(format!("reclose-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("racy.mc");
    std::fs::write(&model, RACY_SRC).unwrap();
    let model = model.to_str().unwrap();
    let mut first: Option<(String, Option<i32>)> = None;
    for jobs in ["1", "4"] {
        for extra in [&[][..], &["--mem-limit", "256"][..]] {
            let mut args = vec!["explore", model, "--stateful", "--jobs", jobs, "--all"];
            args.extend_from_slice(extra);
            let out = Command::new(env!("CARGO_BIN_EXE_reclose"))
                .args(&args)
                .output()
                .expect("binary runs");
            let got = (
                String::from_utf8_lossy(&out.stdout).into_owned(),
                out.status.code(),
            );
            assert_eq!(got.1, Some(1), "{args:?}: the racy model violates");
            match &first {
                None => first = Some(got),
                Some(f) => assert_eq!(f, &got, "{args:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
