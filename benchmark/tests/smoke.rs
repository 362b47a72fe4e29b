//! `run --smoke` end to end: builds the daemons if need be, drives all five
//! workloads at smoke size, and leaves no process behind.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn ledger(root: &Path, args: &[&str]) -> (std::process::Output, Duration) {
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_confbench-ledger"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("the benchmark binary runs");
    (output, started.elapsed())
}

/// Processes whose command line names a daemon listening on an ephemeral
/// loopback port, as the benchmark starts them.
fn benchmark_daemons() -> Vec<String> {
    std::fs::read_dir("/proc")
        .expect("/proc")
        .filter_map(|entry| std::fs::read(entry.ok()?.path().join("cmdline")).ok())
        .map(|raw| String::from_utf8_lossy(&raw).replace('\0', " "))
        .filter(|cmd| cmd.contains("confbench-") && cmd.contains("--listen 127.0.0.1:0"))
        .collect()
}

#[test]
fn smoke_run_is_quick_labelled_correct_and_leaves_no_daemon() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
    // The first call pays for building the daemons when they are stale.
    let (warm, _) = ledger(
        root,
        &[
            "--workload",
            "run_closed",
            "--seed",
            "13",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--smoke",
        ],
    );
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));

    let (output, took) = ledger(root, &["run", "--seed", "13", "--smoke"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    assert!(took < Duration::from_secs(10), "smoke run took {took:?}");
    assert_eq!(stdout.matches("[SMOKE: not comparable with full runs]").count(), 5, "{stdout}");
    assert_eq!(stdout.matches("\"correct\": true").count(), 5, "{stdout}");
    assert!(stdout.trim_end().ends_with("all workloads correct"), "{stdout}");
    assert_eq!(benchmark_daemons(), Vec::<String>::new(), "daemons outlived the run");
}

#[test]
fn outside_a_checkout_the_benchmark_refuses_without_a_result() {
    let (output, _) = ledger(
        Path::new("/"),
        &["--workload", "run_closed", "--seed", "1", "--seconds", "1", "--trace", "0"],
    );
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "{}", String::from_utf8_lossy(&output.stdout));
}
