//! End-to-end tallies, percentiles, and the result line.

use crate::speed::REFERENCE_NS;
use crate::workload::OpKind;
use sdr_det::json::Json;
use std::fmt::Write as _;

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric with a static name.
    pub fn new(name: &'static str, value: f64, unit: &str) -> Metric {
        Metric::owned(name.to_string(), value, unit)
    }

    /// A metric with a built name.
    pub fn owned(name: String, value: f64, unit: &str) -> Metric {
        Metric {
            name,
            value,
            unit: unit.to_string(),
        }
    }
}

/// The median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The tail of ascending `sorted`: the 11th-largest sample, which has
/// exactly ten beyond it. With ten or fewer samples, the maximum.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let rank = if n > 10 { n - 11 } else { n.saturating_sub(1) };
    Tail {
        value: sorted.get(rank).copied().unwrap_or(0.0),
        percentile: if n > 10 {
            100.0 * (n - 10) as f64 / n as f64
        } else {
            100.0
        },
        samples: n,
    }
}

/// Most segments a run's samples are cut into (see [`segmented`]).
pub const SEGMENTS: usize = 10;

/// Fewest samples a segment holds, so a segment's tail is at least its
/// 90th percentile.
const MIN_SEGMENT: usize = 100;

/// Cuts `n` samples in arrival order into up to [`SEGMENTS`] consecutive
/// segments of at least [`MIN_SEGMENT`] samples (one segment when `n` is
/// smaller); the last segment takes the remainder.
fn segments(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let k = (n / MIN_SEGMENT).clamp(1, SEGMENTS);
    let size = n / k;
    (0..k).map(move |i| i * size..if i + 1 == k { n } else { (i + 1) * size })
}

/// Median and tail of `samples` (in arrival order), each the median over
/// the run's segments of that statistic within the segment. The machine's
/// speed drifts while a run lasts (other tenants share its cores); a
/// median over time segments keeps a slow stretch from moving the result.
pub fn segmented(samples: &[f64]) -> (f64, Tail) {
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let mut percentile = 100.0;
    for r in segments(samples.len()) {
        let mut seg = samples[r].to_vec();
        p50s.push(median(&mut seg));
        let t = tail(&seg);
        tails.push(t.value);
        percentile = t.percentile;
    }
    (
        median(&mut p50s),
        Tail {
            value: median(&mut tails),
            percentile,
            samples: samples.len(),
        },
    )
}

/// End-to-end observations of one run's measured phase.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Latency of each completed operation, in µs, per op type.
    pub latency_us: [Vec<f64>; 4],
    /// Every operation's duration in arrival order, and whether it
    /// completed (correctness checks are outside these intervals).
    pub ops: Vec<(u64, bool)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Measured operations whose answer differed from the oracle.
    pub mismatches: u64,
    /// Run-level checks that failed: structural invariants, the object
    /// count, the `tcp-mixed` simulator twin's answers, and delivery
    /// failures that no operation reported. Not operations, so not in
    /// [`Tally::failed`]; any of them makes the run incorrect.
    pub check_failures: u64,
    /// Server-addressed messages of the measured operations.
    pub msgs: u64,
    /// Operations those messages were counted over.
    pub msg_ops: u64,
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// Input-generation part of each set-up.
    pub gen_s: Vec<f64>,
    /// Durations of the reference task timed between the measured
    /// operations, in ns (the simulator workloads; see [`crate::speed`]).
    pub reference_ns: Vec<f64>,
    /// Durations of the reference task timed before each set-up, in ns.
    pub setup_reference_ns: Vec<f64>,
}

impl Tally {
    /// Books one completed operation.
    pub fn record(&mut self, kind: OpKind, ns: u64) {
        self.latency_us[kind.idx()].push(ns as f64 / 1e3);
        self.ops.push((ns, true));
        self.attempted += 1;
    }

    /// Books one operation that returned an error.
    pub fn record_error(&mut self, ns: u64) {
        self.ops.push((ns, false));
        self.attempted += 1;
        self.errors += 1;
    }

    /// Failed operations: errors plus wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Whether every answer matched the oracle and every run-level check
    /// held.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.check_failures == 0
    }

    /// Share of attempted operations that completed with a correct
    /// answer.
    pub fn completed_op_ratio(&self) -> f64 {
        self.attempted.saturating_sub(self.failed()) as f64 / self.attempted.max(1) as f64
    }

    /// The factor that brings the measured phase's times to the
    /// reference speed: [`REFERENCE_NS`] over the median duration of the
    /// reference task between its operations; 1 when it timed none.
    pub fn scale(&self) -> f64 {
        reference_scale(&self.reference_ns)
    }

    /// The same for the set-ups, from the task timed before each one:
    /// set-up runs in the first seconds of a run, and the machine's speed
    /// then may differ from its median over the run.
    pub fn setup_scale(&self) -> f64 {
        reference_scale(&self.setup_reference_ns)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order: times at the
    /// reference speed (see [`Tally::scale`]) or, without
    /// `at_reference`, as measured.
    pub fn metrics(&self, peak_rss_mib: f64, at_reference: bool) -> Vec<Metric> {
        let (scale, setup_scale) = if at_reference {
            (self.scale(), self.setup_scale())
        } else {
            (1.0, 1.0)
        };
        let mut m = vec![Metric::new("ops_per_s", self.ops_per_s() / scale, "1/s")];
        for kind in OpKind::ALL {
            let (p50, _) = segmented(&self.latency_us[kind.idx()]);
            m.push(Metric::owned(
                format!("{}_p50_us", kind.name()),
                p50 * scale,
                "us",
            ));
        }
        m.push(Metric::new(
            "msgs_per_op",
            self.msgs as f64 / self.msg_ops.max(1) as f64,
            "msgs/op",
        ));
        m.push(Metric::new(
            "setup_s",
            median(&mut self.setup_s.clone()) * setup_scale,
            "s",
        ));
        m.push(Metric::new("peak_rss_mib", peak_rss_mib, "MiB"));
        m.push(Metric::new(
            "completed_op_ratio",
            self.completed_op_ratio(),
            "ratio",
        ));
        m
    }

    /// Completed operations per second of the closed loop: completed ops
    /// over the time all ops took (the untimed oracle checks and
    /// reference tasks between them excluded).
    pub fn ops_per_s(&self) -> f64 {
        let done = self.ops.iter().filter(|(_, ok)| *ok).count() as f64;
        let secs = self.ops.iter().map(|(ns, _)| *ns).sum::<u64>() as f64 / 1e9;
        done / secs
    }

    /// Each op type's tail, at the reference speed like the medians: its
    /// value, which percentile it is, and over how many samples.
    /// Reported, not bounded: on a machine shared with
    /// other tenants, run-to-run spread of these tails was wider than any
    /// bound a regression check could use (see `README.md`).
    pub fn tail_lines(&self) -> Vec<String> {
        let scale = self.scale();
        OpKind::ALL
            .into_iter()
            .map(|kind| {
                let (_, t) = segmented(&self.latency_us[kind.idx()]);
                format!(
                    "{}_tail_us {:.4} us = p{:.3} per segment, median of segments, {} samples",
                    kind.name(),
                    t.value * scale,
                    t.percentile,
                    t.samples
                )
            })
            .collect()
    }
}

/// [`REFERENCE_NS`] over the median of `samples_ns`; 1 for no samples.
fn reference_scale(samples_ns: &[f64]) -> f64 {
    if samples_ns.is_empty() {
        1.0
    } else {
        REFERENCE_NS / median(&mut samples_ns.to_vec())
    }
}

/// The process's peak resident set, in MiB (`VmHWM`, Linux).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A result line read back: what [`json_line`] wrote.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// Whether every answer and check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in order.
    pub metrics: Vec<Metric>,
}

/// Parses a line written by [`json_line`].
pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let json = Json::parse(line)?;
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("result line has no {key}"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok(Metric::owned(name.clone(), value, unit)),
                _ => Err(format!("metric {name} lacks a value or unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ResultLine {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failures_beyond_attempts_do_not_wrap() {
        let tally = Tally {
            attempted: 2,
            errors: 1,
            mismatches: 2,
            ..Tally::default()
        };
        assert!(tally.failed() > tally.attempted);
        assert_eq!(tally.completed_op_ratio(), 0.0);
        assert!(!tally.correct());
    }

    #[test]
    fn run_level_check_failure_is_incorrect_but_no_failed_op() {
        let mut tally = Tally::default();
        tally.record(OpKind::Point, 1_000);
        tally.check_failures = 1;
        assert_eq!(tally.failed(), 0);
        assert_eq!(tally.completed_op_ratio(), 1.0);
        assert!(!tally.correct());
    }

    #[test]
    fn times_are_brought_to_the_reference_speed() {
        let mut tally = Tally::default();
        tally.record(OpKind::Point, 10_000);
        tally.setup_s.push(1.0);
        // The machine ran at half the reference speed during the measured
        // phase, and at twice it during set-up.
        tally.reference_ns = vec![2.0 * REFERENCE_NS];
        tally.setup_reference_ns = vec![REFERENCE_NS / 2.0];
        let value = |at_reference: bool, name: &str| {
            let metrics = tally.metrics(0.0, at_reference);
            metrics
                .iter()
                .find(|m| m.name == name)
                .expect("metric")
                .value
        };
        assert_eq!(value(false, "point_p50_us"), 10.0);
        assert_eq!(value(true, "point_p50_us"), 5.0);
        assert_eq!(value(true, "ops_per_s"), 2.0 * value(false, "ops_per_s"));
        assert_eq!(value(false, "setup_s"), 1.0);
        assert_eq!(value(true, "setup_s"), 2.0);
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Metric::new("ops_per_s", 1234.5678, "1/s"),
            Metric::new("peak_rss_mib", 42.25, "MiB"),
        ];
        let line = json_line(false, 7, 1, &metrics);
        let back = parse_result_line(&line).expect("parses");
        assert_eq!(
            back,
            ResultLine {
                correct: false,
                attempted: 7,
                failed: 1,
                metrics: metrics.to_vec(),
            }
        );
    }

    #[test]
    fn json_line_shape() {
        let line = json_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
