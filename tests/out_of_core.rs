//! Out-of-core frontier search: spilling under a memory budget and
//! kill/resume through checkpoints must both leave the report
//! byte-identical to an unbounded, uninterrupted run — for any worker
//! count and any memory limit.

use reclose::prelude::*;

fn workers_src() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc"))
        .expect("corpus/workers.mc")
}

fn frontier_config(jobs: usize) -> Config {
    Config {
        engine: if jobs > 1 {
            Engine::StatefulParallel
        } else {
            Engine::Bfs
        },
        jobs,
        ..Config::default()
    }
}

/// The deterministic surface of a report: everything except the
/// operational IO counters (peak bytes, spill/segment/checkpoint
/// counts), which legitimately vary with the memory limit and with
/// where a run was interrupted.
fn surface(r: &Report) -> (String, usize, usize, usize, usize, usize, usize) {
    (
        r.to_string(),
        r.visited_bytes,
        r.visited_states,
        r.shared_components,
        r.total_components,
        r.por_skipped_procs,
        r.por_proviso_fallbacks,
    )
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reclose-ooc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn spilling_never_changes_the_report() {
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    assert!(baseline.clean(), "workers.mc is violation-free");
    assert!(baseline.states > 20, "the run is big enough to spill");
    for jobs in [1, 2, 8] {
        for mem_limit in [usize::MAX, 1 << 10, 256, 32] {
            let config = Config {
                mem_limit,
                ..frontier_config(jobs)
            };
            let report = explore(&prog, &config);
            assert_eq!(
                surface(&report),
                surface(&baseline),
                "jobs={jobs} mem_limit={mem_limit}"
            );
            if mem_limit == 32 {
                assert!(report.store_spilled_entries > 0, "tiny budget spills");
                assert!(report.frontier_spilled_entries > 0, "and spools");
            }
            if mem_limit == usize::MAX {
                assert_eq!(report.store_segments, 0, "unbounded never hits disk");
            }
        }
    }
}

#[test]
fn killed_and_resumed_runs_complete_byte_identically() {
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    for (kill_jobs, resume_jobs) in [(1, 1), (2, 8), (8, 1)] {
        for (kill_mem, resume_mem) in [
            (usize::MAX, usize::MAX),
            (300, usize::MAX),
            (usize::MAX, 300),
        ] {
            let dir = temp_dir(&format!(
                "kr-{kill_jobs}-{resume_jobs}-{kill_mem}-{resume_mem}"
            ));
            let killed = explore(
                &prog,
                &Config {
                    mem_limit: kill_mem,
                    checkpoint_dir: Some(dir.clone()),
                    checkpoint_every: 1,
                    abort_after_checkpoints: Some(2),
                    ..frontier_config(kill_jobs)
                },
            );
            assert!(killed.truncated, "the abort hook interrupts the run");
            assert!(
                killed.states < baseline.states,
                "the kill happened mid-search"
            );
            assert_eq!(killed.checkpoints_written, 2);
            // Resume — possibly under a different worker count and a
            // different memory budget: neither is part of the
            // checkpoint's config digest because neither influences
            // the report.
            let resumed = explore(
                &prog,
                &Config {
                    mem_limit: resume_mem,
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..frontier_config(resume_jobs)
                },
            );
            assert_eq!(
                surface(&resumed),
                surface(&baseline),
                "kill(jobs={kill_jobs},mem={kill_mem}) → resume(jobs={resume_jobs},mem={resume_mem})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resume_survives_repeated_kills() {
    // Kill after every single checkpoint until the run finally
    // completes — the worst-case crash pattern.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("repeated");
    let mut config = Config {
        mem_limit: 300,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        abort_after_checkpoints: Some(1),
        ..frontier_config(2)
    };
    let mut report = explore(&prog, &config);
    let mut kills = 0;
    config.resume = true;
    while report.truncated {
        kills += 1;
        assert!(kills < 100, "resume must make progress");
        report = explore(&prog, &config);
    }
    assert!(kills > 2, "several kill/resume cycles actually happened");
    assert_eq!(surface(&report), surface(&baseline));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interner_table_survives_a_torn_tail() {
    // A crash can tear the append-only interner table mid-record: the
    // manifest records the committed (entries, bytes) prefix, so any
    // trailing garbage past that point must be truncated on load and
    // the resumed run must stay byte-identical.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("torn-intern");
    let killed = explore(
        &prog,
        &Config {
            mem_limit: 300,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            abort_after_checkpoints: Some(2),
            ..frontier_config(2)
        },
    );
    assert!(killed.truncated);
    assert!(killed.interner_entries > 0, "compression is on by default");
    let intern = dir.join("intern.bin");
    let committed = std::fs::metadata(&intern)
        .expect("interner table persisted")
        .len();
    assert!(committed > 0);
    // Simulate a crash mid-append: garbage past the committed prefix.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&intern)
        .unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x7F]).unwrap();
    drop(f);
    assert!(std::fs::metadata(&intern).unwrap().len() > committed);

    let resumed = explore(
        &prog,
        &Config {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..frontier_config(1)
        },
    );
    assert_eq!(surface(&resumed), surface(&baseline));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_retires_segments_without_changing_membership() {
    // Under a tiny budget every level spills a small segment; each
    // checkpoint then compacts the accumulated shards into one merged
    // segment and GCs the retired files after the manifest rename.
    // None of this may leak into the report surface.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("compact");
    let killed = explore(
        &prog,
        &Config {
            mem_limit: 16,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            abort_after_checkpoints: Some(3),
            ..frontier_config(1)
        },
    );
    assert!(killed.truncated);
    assert!(
        killed.store_segments_compacted > 0,
        "several small segments accumulated and were merged"
    );
    let resumed = explore(
        &prog,
        &Config {
            mem_limit: 16,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..frontier_config(2)
        },
    );
    assert_eq!(surface(&resumed), surface(&baseline));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_or_torn_bloom_prefilters_are_rebuilt_on_resume() {
    // Per-segment Bloom prefilter files (`seg-<id>.bloom`) are an
    // advisory cache: they are deliberately *not* in the checkpoint
    // manifest, so a crash can leave them missing, torn, or stale. On
    // resume every filter is validated (format checksum + exact entry
    // count + containment of every live fingerprint) and rebuilt from
    // the segment's own fingerprints on any mismatch — a damaged file
    // may cost a rebuild but can never produce a wrong probe miss.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("bloom");
    let killed = explore(
        &prog,
        &Config {
            mem_limit: 16,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            abort_after_checkpoints: Some(3),
            ..frontier_config(2)
        },
    );
    assert!(killed.truncated);
    assert!(killed.store_segments > 0, "the tiny budget spilled");
    let mut blooms: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name.starts_with("seg-") && name.ends_with(".bloom")).then_some(p)
        })
        .collect();
    blooms.sort();
    // Checkpoint-time compaction merges small segments, so a single
    // filter may be all that survives the kill — damage whatever is
    // there, each file a different way: garbage, torn tail, gone.
    assert!(!blooms.is_empty(), "a per-segment filter was persisted");
    std::fs::write(&blooms[0], b"not a bloom filter at all").unwrap();
    if let Some(second) = blooms.get(1) {
        let torn = std::fs::read(second).unwrap();
        std::fs::write(second, &torn[..torn.len() / 2]).unwrap();
    }
    if let Some(third) = blooms.get(2) {
        std::fs::remove_file(third).unwrap();
    }

    let resumed = explore(
        &prog,
        &Config {
            mem_limit: 16,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..frontier_config(1)
        },
    );
    assert_eq!(surface(&resumed), surface(&baseline));
    assert!(
        resumed.prefilter_rebuilds >= blooms.len().min(3),
        "every damaged filter was rebuilt, not trusted: {} rebuilds",
        resumed.prefilter_rebuilds
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_different_program_or_config() {
    let prog = compile(&workers_src()).unwrap();
    let dir = temp_dir("reject");
    let config = Config {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        abort_after_checkpoints: Some(1),
        ..frontier_config(1)
    };
    let killed = explore(&prog, &config);
    assert!(killed.truncated);

    let other = compile("chan c[1]; proc p() { send(c, 1); } process p();").unwrap();
    let err = verisoft::validate_checkpoint(&dir, &other, &config).unwrap_err();
    assert!(err.contains("different program"), "{err}");

    let narrower = Config {
        max_depth: 7,
        ..config.clone()
    };
    let err = verisoft::validate_checkpoint(&dir, &prog, &narrower).unwrap_err();
    assert!(err.contains("different exploration configuration"), "{err}");

    // The knobs that are *excluded* from the digest validate fine.
    let retuned = Config {
        jobs: 64,
        mem_limit: 128,
        checkpoint_every: 9,
        ..config.clone()
    };
    verisoft::validate_checkpoint(&dir, &prog, &retuned).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
