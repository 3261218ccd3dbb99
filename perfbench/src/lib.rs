//! # perfbench — the SD-Rtree benchmark
//!
//! Three closed-loop workloads drive the program through its public
//! APIs only (`Client`, `Cluster`, `Cluster::bulk_load`, `NetCluster`/
//! `NetClient`, `RTree`, `sdr_rtree::partition`, `encode_message`/
//! `decode_message`):
//!
//! * `sim-grow` — the write path, in the simulator;
//! * `sim-query` — the read path, in the simulator;
//! * `tcp-mixed` — both over localhost TCP (`sdr-net`).
//!
//! An untraced run reports the end-to-end metrics. A traced run reports
//! per-layer metrics and a ledger that splits each op's time across
//! `sdr-core`, `sdr-rtree` (with `sdr-geom`) and `sdr-net`, timed from
//! outside by wrapping and replaying the benchmark's own calls into each
//! layer (see [`replay`] and [`trace`]). See `README.md` for how to run
//! and read it.

pub mod oracle;
pub mod replay;
pub mod report;
pub mod sim;
pub mod speed;
pub mod tcp;
pub mod trace;
pub mod workload;

use report::{peak_rss_mib, Metric, Tally};
use trace::{Layers, Spans};
use workload::{Scale, Workload};

/// What one run does.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured rounds. A traced run measures its first half untraced,
    /// for comparison, and its second half traced (`sim-grow`: one
    /// growth each).
    pub rounds: usize,
    /// Sizes.
    pub scale: Scale,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
}

/// What one run measured.
pub struct RunOutput {
    /// The workload.
    pub workload: Workload,
    /// End-to-end observations and correctness counts.
    pub tally: Tally,
    /// Servers at the end of the run.
    pub servers: usize,
    /// Traced runs: per-layer counters.
    pub layers: Option<Layers>,
    /// Traced runs: the span log.
    pub spans: Option<Spans>,
}

impl RunOutput {
    fn untraced(workload: Workload, tally: Tally, servers: usize) -> RunOutput {
        RunOutput {
            workload,
            tally,
            servers,
            layers: None,
            spans: None,
        }
    }

    fn traced(
        workload: Workload,
        tally: Tally,
        servers: usize,
        layers: Layers,
        spans: Spans,
    ) -> RunOutput {
        RunOutput {
            workload,
            tally,
            servers,
            layers: Some(layers),
            spans: Some(spans),
        }
    }

    /// Whether every answer matched the oracle and every run-level check
    /// held.
    pub fn correct(&self) -> bool {
        self.tally.correct()
    }

    /// The metrics this run reports: end-to-end when untraced, per-layer
    /// when traced.
    pub fn metrics(&self) -> Vec<Metric> {
        match &self.layers {
            Some(layers) => layers.metrics(self.workload),
            None => self.tally.metrics(peak_rss_mib(), true),
        }
    }
}

/// Runs one workload.
pub fn run(p: &Params) -> Result<RunOutput, String> {
    match p.workload {
        Workload::SimGrow => Ok(sim::sim_grow(p)),
        Workload::SimQuery => Ok(sim::sim_query(p)),
        Workload::TcpMixed => tcp::tcp_mixed(p),
    }
}
