//! Integration tests for the `reclose` CLI binary.

use std::io::Write as _;
use std::process::Command;

fn reclose(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reclose"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("reclose-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const OPEN_SRC: &str = r#"
    extern chan out;
    input x : 0..7;
    proc p(int x) {
        if (x > 3) send(out, 1);
        else send(out, 0);
    }
    process p(x);
"#;

const BUGGY_SRC: &str = r#"
    input x : 0..3;
    chan c[1];
    proc m() {
        int v = env_input(x);
        int n = 0;
        if (v > 1) { n = 2; } else { n = 1; }
        send(c, n);
        int got = recv(c);
        VS_assert(got != 2);
    }
    process m();
"#;

#[test]
fn help_prints_usage() {
    let out = reclose(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: reclose"));
}

#[test]
fn unknown_command_fails() {
    let out = reclose(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn check_reports_open_system() {
    let path = write_temp("open.mc", OPEN_SRC);
    let out = reclose(&["check", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("open system"), "{s}");
}

#[test]
fn check_rejects_invalid_source() {
    let path = write_temp("bad.mc", "proc m() { y = 1; } process m();");
    let out = reclose(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variable"));
}

#[test]
fn close_prints_listing_with_toss() {
    let path = write_temp("open2.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("toss(1)"), "{s}");
}

#[test]
fn close_stats_row_per_proc() {
    let path = write_temp("open3.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap(), "--stats"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("params removed 1"), "{s}");
}

#[test]
fn close_dot_is_graphviz() {
    let path = write_temp("open4.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap(), "--dot"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn explore_open_program_requires_mode() {
    let path = write_temp("buggy.mc", BUGGY_SRC);
    let out = reclose(&["explore", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--enumerate"));
}

#[test]
fn explore_close_finds_violation_and_explains() {
    let path = write_temp("buggy2.mc", BUGGY_SRC);
    let out = reclose(&["explore", path.to_str().unwrap(), "--close", "--explain"]);
    assert!(!out.status.success(), "violation sets exit code");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("assertion violation"), "{s}");
    assert!(s.contains("VS_assert VIOLATED"), "{s}");
    assert!(s.contains("send(c, 2)"), "explanation names objects: {s}");
}

#[test]
fn explore_enumerate_matches_closed_verdict() {
    let path = write_temp("buggy3.mc", BUGGY_SRC);
    let a = reclose(&["explore", path.to_str().unwrap(), "--enumerate"]);
    let b = reclose(&["explore", path.to_str().unwrap(), "--close"]);
    assert!(!a.status.success());
    assert!(!b.status.success());
}

#[test]
fn explore_clean_program_succeeds() {
    let path = write_temp(
        "clean.mc",
        "chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no violations"));
}

#[test]
fn explore_stateful_engine_flag() {
    let path = write_temp(
        "clean2.mc",
        "chan c[1]; proc m() { while (1) { send(c, 1); int x = recv(c); } } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap(), "--stateful"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn graph_emits_dot() {
    let path = write_temp("open5.mc", OPEN_SRC);
    let out = reclose(&["graph", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("subgraph cluster_0"));
}

#[test]
fn envgen_lists_environment_processes() {
    let path = write_temp("buggy4.mc", BUGGY_SRC);
    let out = reclose(&["envgen", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("__env_feed_x"), "{s}");
}

#[test]
fn switchgen_emits_compilable_source() {
    let out = reclose(&["switchgen", "--lines", "3", "--seed-assert"]);
    assert!(out.status.success());
    let src = String::from_utf8_lossy(&out.stdout);
    let prog = cfgir::compile(&src).expect("switchgen output compiles");
    assert_eq!(prog.processes.len(), 6);
}

#[test]
fn switchgen_stub_flag() {
    let out = reclose(&["switchgen", "--lines", "1", "--stub"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("proc stub0"));
}

#[test]
fn close_refine_partitions_domain() {
    let src = r#"
        extern chan grant;
        input req : 0..100000;
        proc m() {
            int t = env_input(req);
            if (t < 50) send(grant, 1);
            else send(grant, 2);
        }
        process m();
    "#;
    let path = write_temp("refine.mc", src);
    let out = reclose(&["close", path.to_str().unwrap(), "--refine"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("2 classes over a domain of 100001"), "{err}");
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("toss(1)"), "{listing}");
    // The representatives 0 and 50 survive as data.
    assert!(
        listing.contains("t = 50") || listing.contains("= 50"),
        "{listing}"
    );
}

#[test]
fn explore_coverage_flag() {
    let path = write_temp(
        "cov.mc",
        "chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap(), "--coverage"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("coverage:"), "{s}");
    assert!(s.contains("m: "), "{s}");
}

#[test]
fn run_replays_a_schedule() {
    let path = write_temp(
        "sched.mc",
        "chan c[1]; proc m() { int v = VS_toss(1); send(c, v); int w = recv(c); } process m();",
    );
    let out = reclose(&["run", path.to_str().unwrap(), "P0[1]", "P0", "P0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("send(c, 1)"), "{s}");
    assert!(s.contains("recv(c) = 1"), "{s}");
    assert!(s.contains("end:"), "{s}");
}

#[test]
fn run_rejects_malformed_schedules() {
    let path = write_temp(
        "sched2.mc",
        "chan c[1]; proc m() { send(c, 1); } process m();",
    );
    for bad in ["Q0", "P0[", "P0[x]", "Pzero"] {
        let out = reclose(&["run", path.to_str().unwrap(), bad]);
        assert!(!out.status.success(), "accepted {bad}");
    }
}

const CLEAN_SRC: &str = "chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();";

#[test]
fn missing_flag_values_are_usage_errors() {
    let src = write_temp("clean_for_flags.mc", CLEAN_SRC);
    let src = src.to_str().unwrap();
    // A trailing option, or one followed by another flag, has no value:
    // `--resume` must not silently start a fresh run.
    for (args, flag) in [
        (&["explore", src, "--bfs", "--resume"][..], "--resume"),
        (
            &["explore", src, "--bfs", "--resume", "--all"][..],
            "--resume",
        ),
        (&["explore", src, "--depth"][..], "--depth"),
        (&["switchgen", "--lines"][..], "--lines"),
        (&["fuzz", "--seeds", "--no-minimize"][..], "--seeds"),
    ] {
        let out = reclose(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("error: {flag} needs a value")),
            "{err}"
        );
    }
}

#[test]
fn explore_rejects_unknown_flags() {
    let src = write_temp("clean_for_unknown.mc", CLEAN_SRC);
    let src = src.to_str().unwrap();
    for flag in ["--depht", "--stat", "--jobz"] {
        let out = reclose(&["explore", src, "--stateful", flag, "3"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(err.contains("reclose --help"), "usage hint: {err}");
    }
}

#[test]
fn uncreatable_checkpoint_dir_is_a_clean_error() {
    let src = write_temp("clean_for_ckpt.mc", CLEAN_SRC);
    let out = reclose(&[
        "explore",
        src.to_str().unwrap(),
        "--bfs",
        "--checkpoint-dir",
        "/dev/null/x",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: cannot create checkpoint directory /dev/null/x: "),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}
