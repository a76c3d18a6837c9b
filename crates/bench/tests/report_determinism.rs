//! BENCH report byte-determinism: with `CPR_BENCH_TIMING=0` every
//! emitter must write a byte-identical report for
//! `CPR_THREADS ∈ {1, 2, 8}` and across repeated runs.
//!
//! Each report embeds the obs registry snapshot under `"metrics"` and
//! nulls its wall-clock fields, so the *entire file* — numbers, float
//! formatting, key order — is pinned here by spawning the real binaries
//! (via `CARGO_BIN_EXE_*`) at a small instance size and comparing raw
//! bytes. Spawned processes carry their own environment, so no env
//! locking is needed and the runs are genuinely independent.

use std::path::PathBuf;
use std::process::Command;

const THREAD_COUNTS: [&str; 3] = ["1", "2", "8"];

/// Runs `exe` with the given extra env, `CPR_BENCH_TIMING=0`, and
/// `CPR_THREADS=threads`, returning the bytes of the report it wrote.
fn run_report(exe: &str, tag: &str, threads: &str, run: usize, env: &[(&str, &str)]) -> Vec<u8> {
    let out: PathBuf = std::env::temp_dir().join(format!(
        "cpr-report-determinism-{tag}-t{threads}-r{run}-{}.json",
        std::process::id()
    ));
    let mut cmd = Command::new(exe);
    cmd.env("CPR_BENCH_TIMING", "0")
        .env("CPR_THREADS", threads)
        .env_remove("CPR_TRACE")
        .env("CPR_BENCH_OUT", &out);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd
        .output()
        .unwrap_or_else(|e| panic!("{tag}: failed to spawn {exe}: {e}"));
    assert!(
        status.status.success(),
        "{tag} (CPR_THREADS={threads}) exited with {}:\n{}",
        status.status,
        String::from_utf8_lossy(&status.stderr)
    );
    let bytes = std::fs::read(&out).unwrap_or_else(|e| panic!("{tag}: read {out:?}: {e}"));
    let _ = std::fs::remove_file(&out);
    bytes
}

/// Pins one binary: a serial reference run, a serial repeat, and one run
/// per swept thread count must all produce the same bytes.
fn pin_report(exe: &str, tag: &str, env: &[(&str, &str)]) {
    let reference = run_report(exe, tag, "1", 0, env);
    assert!(!reference.is_empty(), "{tag}: report must not be empty");
    let repeat = run_report(exe, tag, "1", 1, env);
    assert_eq!(
        reference, repeat,
        "{tag}: same-input rerun produced different bytes"
    );
    for threads in THREAD_COUNTS {
        let got = run_report(exe, tag, threads, 2, env);
        assert_eq!(
            got, reference,
            "{tag}: report diverged at CPR_THREADS={threads}"
        );
    }
}

#[test]
fn chaos_report_is_byte_deterministic() {
    pin_report(
        env!("CARGO_BIN_EXE_chaos"),
        "chaos",
        &[("CPR_CHAOS_N", "16"), ("CPR_CHAOS_EVENTS", "3")],
    );
}

#[test]
fn allpairs_report_is_byte_deterministic() {
    pin_report(
        env!("CARGO_BIN_EXE_allpairs_bench"),
        "allpairs",
        &[("CPR_BENCH_N", "32")],
    );
}

#[test]
fn plane_throughput_report_is_byte_deterministic() {
    pin_report(
        env!("CARGO_BIN_EXE_plane_throughput"),
        "plane_throughput",
        &[("CPR_BENCH_N", "32"), ("CPR_BENCH_QUERIES", "500")],
    );
}

/// The churn survival bench drives random + targeted churn storms and
/// a live `reconcile` drill; all report metrics are logical
/// (permille reachability, nearest-rank stretch percentiles, dirty-pair
/// counts), and repair budgets are nulled with timing off, so the
/// three-arm survival matrix is pinned byte-for-byte.
#[test]
fn churn_report_is_byte_deterministic() {
    pin_report(
        env!("CARGO_BIN_EXE_churn_bench"),
        "churn",
        &[("CPR_BENCH_N", "48"), ("CPR_CHURN_ROUNDS", "6")],
    );
}

/// The multi-algebra bench compiles all twelve served classes into one
/// process and reports substrate sharing, per-class serving tallies and
/// the shared-delta repair sizes — all logical quantities, with the
/// sweep/reconcile wall-clock fields nulled, so the whole report pins.
#[test]
fn multi_report_is_byte_deterministic() {
    pin_report(
        env!("CARGO_BIN_EXE_multi_bench"),
        "multi",
        &[("CPR_BENCH_N", "48"), ("CPR_BENCH_QUERIES", "200")],
    );
}

/// The serving bench runs a real daemon on a loopback socket with
/// closed-loop clients; with timing disabled it serializes swaps
/// between bursts, so even the per-epoch query counters in the embedded
/// registry snapshot are pinned. The client count is held at 2 while
/// `CPR_THREADS` sweeps — serving determinism must not depend on the
/// worker pool.
#[test]
fn serve_report_is_byte_deterministic() {
    pin_report(
        env!("CARGO_BIN_EXE_serve_bench"),
        "serve",
        &[
            ("CPR_BENCH_N", "24"),
            ("CPR_BENCH_QUERIES", "200"),
            ("CPR_SERVE_CLIENTS", "2"),
        ],
    );
}
