//! The command line: one command runs every workload, each in a process
//! of its own, and prints every end-to-end metric by name and unit.

use std::process::Command;

use perfbench::report::parse_result_line;

const END_TO_END: [&str; 9] = [
    "ops_per_s",
    "insert_p50_us",
    "point_p50_us",
    "window_p50_us",
    "knn_p50_us",
    "msgs_per_op",
    "setup_s",
    "peak_rss_mib",
    "completed_op_ratio",
];

#[test]
fn all_workloads_report_their_own_metrics() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--seed", "5", "--seconds", "1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("runs");
    assert!(out.status.success(), "exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let result =
        parse_result_line(stdout.lines().last().expect("a result line")).expect("a result line");
    assert!(result.correct);
    assert_eq!(result.failed, 0);
    let value = |name: String| {
        result
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    for workload in ["sim-grow", "sim-query", "tcp-mixed"] {
        for metric in END_TO_END {
            assert!(value(format!("{workload}/{metric}")) > 0.0);
        }
        assert_eq!(value(format!("{workload}/completed_op_ratio")), 1.0);
    }
    // tcp-mixed holds about a thousand objects and runs after the 200k-object
    // simulator workloads: its peak memory must be its own, not theirs.
    let tcp = value("tcp-mixed/peak_rss_mib".into());
    assert!(tcp < value("sim-query/peak_rss_mib".into()));
    assert!(tcp < value("sim-grow/peak_rss_mib".into()));
}

#[test]
fn unknown_flags_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "sim-query", "--quick"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
