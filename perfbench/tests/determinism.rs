//! Count determinism: two runs on one seed must give identical counts.
//!
//! Later "same behaviour, less code" changes are judged by exactly these
//! numbers repeating, so a count that drifts between same-seed runs would
//! make every such comparison meaningless.

use perfbench::workload::{Scale, Workload};
use perfbench::{run, Params, RunOutput};

const SEED: u64 = 3;

fn quick(workload: Workload, traced: bool) -> RunOutput {
    let out = run(&Params {
        workload,
        seed: SEED,
        rounds: 1,
        scale: Scale::Quick,
        traced,
    })
    .expect("quick run");
    assert!(
        out.correct(),
        "{}: answers differ from the oracle",
        workload.name()
    );
    assert_eq!(
        out.tally.failed(),
        0,
        "{}: failed operations",
        workload.name()
    );
    out
}

/// The counts of a traced run, by name.
fn counts(workload: Workload) -> Vec<(String, f64)> {
    let out = quick(workload, true);
    let mut counts: Vec<(String, f64)> = out
        .metrics()
        .into_iter()
        .filter(|m| {
            m.name.starts_with("core.msgs_per_op.")
                || [
                    "core.splits",
                    "core.deliveries_per_op",
                    "image.direct_ratio",
                    "wire.server_bytes_per_op",
                    "trace.replay_mismatches",
                ]
                .contains(&m.name.as_str())
        })
        .map(|m| (m.name, m.value))
        .collect();
    let untraced = quick(workload, false);
    let msgs = untraced
        .metrics()
        .into_iter()
        .find(|m| m.name == "msgs_per_op")
        .expect("end-to-end msgs_per_op");
    counts.push((msgs.name, msgs.value));
    counts
}

fn value(counts: &[(String, f64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .expect("metric present")
}

#[test]
fn sim_grow_counts_repeat_exactly() {
    let a = counts(Workload::SimGrow);
    assert_eq!(a, counts(Workload::SimGrow));
    assert!(
        value(&a, "core.splits") > 0.0,
        "the quick growth must split"
    );
    assert_eq!(value(&a, "trace.replay_mismatches"), 0.0);
}

#[test]
fn sim_query_counts_repeat_exactly() {
    let a = counts(Workload::SimQuery);
    assert_eq!(a, counts(Workload::SimQuery));
    assert!(value(&a, "core.msgs_per_op.query") > 0.0);
    assert_eq!(value(&a, "core.splits"), 0.0, "sim-query must not split");
    assert_eq!(value(&a, "trace.replay_mismatches"), 0.0);
}

#[test]
fn tcp_mixed_answers_match_the_oracle() {
    let out = quick(Workload::TcpMixed, false);
    assert!(out.tally.attempted > 0);
}
