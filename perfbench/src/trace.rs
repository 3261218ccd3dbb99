//! The traced run's spans, per-layer counters and cost ledger.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (the program crates carry no tracing): an op span around each
//! client call, and replayed child spans for the layers below (see
//! [`crate::replay`]). Replayed spans run after their op, so they do not
//! nest in wall time; a layer's *self* time is its span minus the
//! durations of its children. Spans stay in memory and are written out
//! once, when the run ends.

use crate::replay::OpReplay;
use crate::report::Metric;
use crate::workload::{OpKind, Workload};
use sdr_core::stats::StatsDelta;
use sdr_core::MsgCategory;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// 1-based id (0 means "no parent").
    pub id: u32,
    /// The span that caused this one.
    pub parent: u32,
    /// The id of the operation's root span; shared by all its spans.
    pub op: u32,
    /// Layer and call, e.g. `rtree.search_window`.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

/// An in-memory span log.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty log whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn record(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let op = match parent {
            0 => id,
            p => self.spans[p as usize - 1].op,
        };
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a span from `start_ns` to now; returns its duration.
    pub fn close(&mut self, parent: u32, name: &'static str, start_ns: u64) -> u64 {
        let end = self.now_ns();
        self.record(parent, name, start_ns, end);
        end - start_ns
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the log as tab-separated `id parent op name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-op-type sums for the ledger.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindLedger {
    /// Traced operations.
    pub ops: u64,
    /// Their op-span time (the TCP call on `tcp-mixed`).
    pub op_ns: u64,
    /// `tcp-mixed` only: the simulator twin's op-span time.
    pub twin_ns: u64,
    /// Replayed `sdr-rtree` time.
    pub rtree_ns: u64,
    /// Replayed search time (part of `rtree_ns`).
    pub search_ns: u64,
    /// Replayed codec time.
    pub codec_ns: u64,
    /// Operations of the untraced comparison block, and their time.
    pub untraced_ops: u64,
    /// Time of the untraced comparison block's operations.
    pub untraced_ns: u64,
}

impl KindLedger {
    fn mean_us(&self, ns: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            ns as f64 / self.ops as f64 / 1e3
        }
    }
}

/// Everything a traced run counts, per layer.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Ledger sums per op type.
    pub kinds: [KindLedger; 4],
    /// Server-addressed messages per category (`MsgCategory::ALL` order).
    pub by_category: [u64; 9],
    /// Simulator delivery events (`Cluster::tick` deltas).
    pub deliveries: u64,
    /// Operations traced.
    pub ops: u64,
    /// Operations whose first-addressed server was the right one.
    pub direct: u64,
    /// Operations that report a direct flag (inserts, point and window).
    pub direct_of: u64,
    /// Servers in the client's image at the end of the traced block.
    pub known_servers: f64,
    /// Splits replayed, and the op time of the inserts that split.
    pub splits: u64,
    /// Op time of the inserts that split.
    pub split_insert_ns: u64,
    /// Replayed partition time.
    pub partition_ns: u64,
    /// Query operations traced.
    pub query_ops: u64,
    /// Replayed local searches.
    pub searches: u64,
    /// Objects those searches returned.
    pub hits: u64,
    /// Codec replay totals.
    pub encode_ns: u64,
    /// Decode time.
    pub decode_ns: u64,
    /// Messages through the codec.
    pub wire_msgs: u64,
    /// Their encoded bytes.
    pub wire_bytes: u64,
    /// `tcp-mixed`: frames written and their bytes, from the deployment's
    /// `frame/write` and `frame/bytes_out` counters.
    pub frames: u64,
    /// Bytes written in frames.
    pub net_bytes: u64,
    /// `tcp-mixed`: delivery failures and the in-flight high-water mark.
    pub delivery_failures: u64,
    /// In-flight high-water mark.
    pub in_flight_max: f64,
    /// Replay divergences (see [`crate::replay`]).
    pub mismatches: u64,
    /// Input-generation seconds (median over set-ups).
    pub gen_s: f64,
    /// Mean local R-tree height over data nodes at the end.
    pub rtree_height: f64,
}

impl Layers {
    /// Books one traced operation. `op_ns` is its op span, `twin_ns` the
    /// twin's (`tcp-mixed` only), `delta` and `ticks` the simulator's
    /// counters over the operation that ran the protocol.
    #[allow(clippy::too_many_arguments)]
    pub fn account(
        &mut self,
        kind: OpKind,
        op_ns: u64,
        twin_ns: u64,
        rep: &OpReplay,
        delta: &StatsDelta,
        ticks: u64,
        direct: Option<bool>,
    ) {
        let k = &mut self.kinds[kind.idx()];
        k.ops += 1;
        k.op_ns += op_ns;
        k.twin_ns += twin_ns;
        k.rtree_ns += rep.rtree_ns();
        k.search_ns += rep.search_ns;
        k.codec_ns += rep.codec_ns();
        for (i, c) in MsgCategory::ALL.into_iter().enumerate() {
            self.by_category[i] += delta.category(c);
        }
        self.deliveries += ticks;
        self.ops += 1;
        if let Some(d) = direct {
            self.direct_of += 1;
            self.direct += u64::from(d);
        }
        if rep.splits > 0 {
            self.splits += rep.splits;
            self.split_insert_ns += if twin_ns > 0 { twin_ns } else { op_ns };
            self.partition_ns += rep.partition_ns;
        }
        if kind != OpKind::Insert {
            self.query_ops += 1;
        }
        self.searches += rep.searches;
        self.hits += rep.hits;
        self.encode_ns += rep.encode_ns;
        self.decode_ns += rep.decode_ns;
        self.wire_msgs += rep.msgs;
        self.wire_bytes += rep.bytes;
        self.mismatches += rep.mismatches;
    }

    /// The untraced comparison time of one operation.
    pub fn untraced(&mut self, kind: OpKind, ns: u64) {
        let k = &mut self.kinds[kind.idx()];
        k.untraced_ops += 1;
        k.untraced_ns += ns;
    }

    /// Traced op time over untraced op time, weighting each op type by
    /// its traced count (the comparison blocks draw from one mix).
    pub fn overhead_ratio(&self) -> f64 {
        let (mut traced, mut untraced) = (0.0, 0.0);
        for k in &self.kinds {
            if k.ops > 0 && k.untraced_ops > 0 {
                traced += k.op_ns as f64;
                untraced += k.ops as f64 * k.untraced_ns as f64 / k.untraced_ops as f64;
            }
        }
        ratio(traced, untraced)
    }

    fn category(&self, c: MsgCategory) -> u64 {
        let i = MsgCategory::ALL
            .iter()
            .position(|&x| x == c)
            .expect("category is listed in ALL");
        self.by_category[i]
    }

    /// The ledger rows: per op type, each layer's mean self time.
    pub fn ledger(&self, workload: Workload) -> Vec<LedgerRow> {
        let tcp = workload == Workload::TcpMixed;
        OpKind::ALL
            .into_iter()
            .filter(|k| self.kinds[k.idx()].ops > 0)
            .map(|kind| {
                let k = &self.kinds[kind.idx()];
                let op = k.mean_us(k.op_ns);
                let rtree = k.mean_us(k.rtree_ns);
                // The protocol runs in the op itself on the simulator, and
                // in the simulator twin on TCP.
                let core_span = if tcp { k.mean_us(k.twin_ns) } else { op };
                let core = core_span - rtree;
                let (codec, transport) = if tcp {
                    let codec = k.mean_us(k.codec_ns);
                    (codec, op - core_span - codec)
                } else {
                    (0.0, 0.0)
                };
                let sum = core.max(0.0) + rtree + codec + transport.max(0.0);
                LedgerRow {
                    kind,
                    ops: k.ops,
                    op_us: op,
                    untraced_us: if k.untraced_ops > 0 {
                        k.untraced_ns as f64 / k.untraced_ops as f64 / 1e3
                    } else {
                        0.0
                    },
                    core_us: core,
                    rtree_us: rtree,
                    codec_us: codec,
                    transport_us: transport,
                    gap: ratio((sum - op).abs(), op),
                }
            })
            .collect()
    }

    /// The per-layer metrics, every one of them on every workload; a layer
    /// a workload bypasses reads 0.
    pub fn metrics(&self, workload: Workload) -> Vec<Metric> {
        let tcp = workload == Workload::TcpMixed;
        let ops = self.ops as f64;
        let per_op = |n: u64| ratio(n as f64, ops);
        let mut m = vec![
            Metric::new("workload.gen_s", self.gen_s, "s"),
            Metric::new(
                "image.direct_ratio",
                ratio(self.direct as f64, self.direct_of as f64),
                "ratio",
            ),
            Metric::new("image.known_servers", self.known_servers, "count"),
            Metric::new(
                "core.msgs_per_op.iam",
                per_op(self.category(MsgCategory::Iam)),
                "msgs/op",
            ),
        ];
        for (name, c) in [
            ("insert", MsgCategory::Insert),
            ("split", MsgCategory::Split),
            ("adjust", MsgCategory::Adjust),
            ("rotation", MsgCategory::Rotation),
            ("oc", MsgCategory::Oc),
            ("query", MsgCategory::Query),
            ("reply", MsgCategory::Reply),
        ] {
            m.push(Metric::owned(
                format!("core.msgs_per_op.{name}"),
                per_op(self.category(c)),
                "msgs/op",
            ));
        }
        m.push(Metric::new(
            "core.deliveries_per_op",
            per_op(self.deliveries),
            "msgs/op",
        ));
        m.push(Metric::new("core.splits", self.splits as f64, "count"));
        m.push(Metric::new(
            "core.split_insert_ms",
            ratio(self.split_insert_ns as f64 / 1e6, self.splits as f64),
            "ms",
        ));
        let rows = self.ledger(workload);
        let row = |k: OpKind| rows.iter().find(|r| r.kind == k);
        for k in OpKind::ALL {
            let v = row(k).map_or(0.0, |r| r.core_us);
            m.push(Metric::owned(format!("core.self_us.{}", k.name()), v, "us"));
        }
        for k in [OpKind::Point, OpKind::Window, OpKind::Knn] {
            let kl = &self.kinds[k.idx()];
            m.push(Metric::owned(
                format!("rtree.search_us.{}", k.name()),
                kl.mean_us(kl.search_ns),
                "us",
            ));
        }
        m.push(Metric::new(
            "rtree.searches_per_op",
            ratio(self.searches as f64, self.query_ops as f64),
            "count",
        ));
        m.push(Metric::new(
            "rtree.hits_per_search",
            ratio(self.hits as f64, self.searches as f64),
            "count",
        ));
        m.push(Metric::new(
            "rtree.split_partition_ms",
            ratio(self.partition_ns as f64 / 1e6, self.splits as f64),
            "ms",
        ));
        m.push(Metric::new("rtree.height", self.rtree_height, "levels"));
        m.push(Metric::new(
            "wire.encode_ns_per_msg",
            ratio(self.encode_ns as f64, self.wire_msgs as f64),
            "ns",
        ));
        m.push(Metric::new(
            "wire.decode_ns_per_msg",
            ratio(self.decode_ns as f64, self.wire_msgs as f64),
            "ns",
        ));
        m.push(Metric::new(
            "wire.server_bytes_per_op",
            per_op(self.wire_bytes),
            "B/op",
        ));
        for k in OpKind::ALL {
            let v = row(k).filter(|_| tcp).map_or(0.0, |r| r.op_us);
            m.push(Metric::owned(format!("net.op_us.{}", k.name()), v, "us"));
        }
        for k in OpKind::ALL {
            let v = row(k).filter(|_| tcp).map_or(0.0, |r| r.transport_us);
            m.push(Metric::owned(format!("net.wait_us.{}", k.name()), v, "us"));
        }
        m.push(Metric::new(
            "net.frames_per_op",
            per_op(self.frames),
            "count",
        ));
        m.push(Metric::new(
            "net.bytes_per_op",
            per_op(self.net_bytes),
            "B/op",
        ));
        m.push(Metric::new(
            "net.delivery_failures",
            self.delivery_failures as f64,
            "count",
        ));
        m.push(Metric::new(
            "net.in_flight_max",
            self.in_flight_max,
            "count",
        ));
        m.push(Metric::new(
            "trace.overhead_ratio",
            self.overhead_ratio(),
            "ratio",
        ));
        m.push(Metric::new(
            "trace.ledger_gap_ratio",
            rows.iter().map(|r| r.gap).fold(0.0, f64::max),
            "ratio",
        ));
        m.push(Metric::new(
            "trace.replay_mismatches",
            self.mismatches as f64,
            "count",
        ));
        m
    }

    /// The ledger as a text table.
    pub fn render_ledger(&self, workload: Workload) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ledger {}: mean us per op; layers are self times and add up to the traced op",
            workload.name()
        );
        let _ = writeln!(
            s,
            "  {:<7} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "op",
            "ops",
            "untraced",
            "traced",
            "sdr-core",
            "sdr-rtree",
            "net-codec",
            "net-wait",
            "gap"
        );
        for r in self.ledger(workload) {
            let _ = writeln!(
                s,
                "  {:<7} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>5.1}%",
                r.kind.name(),
                r.ops,
                r.untraced_us,
                r.op_us,
                r.core_us,
                r.rtree_us,
                r.codec_us,
                r.transport_us,
                r.gap * 100.0
            );
        }
        let _ = writeln!(
            s,
            "  sdr-workload: {:.4} s input generation, in set-up (no per-op share)",
            self.gen_s
        );
        s
    }
}

/// One ledger row.
#[derive(Clone, Copy, Debug)]
pub struct LedgerRow {
    /// The op type.
    pub kind: OpKind,
    /// Traced operations.
    pub ops: u64,
    /// Mean traced op time.
    pub op_us: f64,
    /// Mean op time of the untraced comparison block.
    pub untraced_us: f64,
    /// `sdr-core` self time: the protocol span minus replayed R-tree time.
    pub core_us: f64,
    /// Replayed `sdr-rtree` (with `sdr-geom`) time.
    pub rtree_us: f64,
    /// Replayed codec time (`tcp-mixed` only).
    pub codec_us: f64,
    /// Socket and wait time: TCP op minus twin minus codec (`tcp-mixed`).
    pub transport_us: f64,
    /// |sum of layers − op| / op, with negative self times counted as 0.
    pub gap: f64,
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
