//! The simulator workloads, `sim-grow` and `sim-query`, and the
//! simulator driving shared with the `tcp-mixed` twin.

use crate::oracle::{check, Answer, Oracle};
use crate::replay::{install_tap, take_tapped, OpReplay, Shadow};
use crate::report::{median, Tally};
use crate::speed::{Reference, OPS_PER_SAMPLE};
use crate::trace::{Layers, Spans};
use crate::workload::{
    growth_objects, mixed_round, objects, queries, Op, OpKind, Sizes, Workload, KNN_K,
};
use crate::{Params, RunOutput};
use sdr_core::stats::StatsDelta;
use sdr_core::{Client, ClientId, Cluster, Variant};
use sdr_det::{DetRng, Rng};
use sdr_workload::Distribution;

use std::time::Instant;

/// One simulated deployment and its single closed-loop client.
pub struct Sim {
    /// The cluster.
    pub cluster: Cluster,
    /// The IMCLIENT client.
    pub client: Client,
}

/// A traced simulator operation.
pub struct TracedOp {
    /// What it returned.
    pub answer: Answer,
    /// Its op span's id and duration.
    pub span: u32,
    /// Duration of the op span.
    pub ns: u64,
    /// Replayed lower layers.
    pub replay: OpReplay,
    /// Message counters over the op.
    pub delta: StatsDelta,
    /// Delivery events over the op.
    pub ticks: u64,
    /// Whether the first-addressed server was right (not for kNN).
    pub direct: Option<bool>,
}

fn span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Insert => "sim.insert",
        OpKind::Point => "sim.point",
        OpKind::Window => "sim.window",
        OpKind::Knn => "sim.knn",
    }
}

impl Sim {
    /// A deployment over `cluster` with a fresh client.
    pub fn new(cluster: Cluster, seed: u64) -> Sim {
        Sim {
            cluster,
            client: Client::new(ClientId(0), Variant::ImClient, seed),
        }
    }

    /// Runs one operation to quiescence.
    pub fn op(&mut self, op: &Op) -> (Answer, Option<bool>) {
        let (c, cl) = (&mut self.cluster, &mut self.client);
        match op {
            Op::Insert(o) => (Answer::Stored, Some(cl.insert(c, *o).direct)),
            Op::Point(p) => {
                let out = cl.point_query(c, *p);
                (Answer::Objects(out.results), Some(out.direct))
            }
            Op::Window(w) => {
                let out = cl.window_query(c, *w);
                (Answer::Objects(out.results), Some(out.direct))
            }
            Op::Knn(p) => {
                let out = cl.knn(c, *p, KNN_K);
                (
                    Answer::Dists(out.neighbors.iter().map(|n| n.1).collect()),
                    None,
                )
            }
        }
    }

    /// Runs `ops` untraced: latencies and messages into `tally`, answers
    /// checked against `oracle` outside the timed region. With a
    /// `reference`, its task is timed after every
    /// [`OPS_PER_SAMPLE`]th op, also outside the timed region.
    pub fn run_block(
        &mut self,
        ops: &[Op],
        oracle: &mut Oracle,
        tally: &mut Tally,
        mut reference: Option<&mut Reference>,
    ) {
        let before = self.cluster.stats.total();
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let (answer, _) = self.op(op);
            let ns = t.elapsed().as_nanos() as u64;
            tally.record(op.kind(), ns);
            if !check(oracle, op, &answer) {
                tally.mismatches += 1;
            }
            if let Some(r) = reference.as_deref_mut() {
                if (i + 1) % OPS_PER_SAMPLE == 0 {
                    tally.reference_ns.push(r.sample());
                }
            }
        }
        tally.msgs += self.cluster.stats.total() - before;
        tally.msg_ops += ops.len() as u64;
    }

    /// Runs one operation inside an op span (a child of `parent`, or a
    /// root span when `parent` is 0) and replays it against the lower
    /// layers. The tap must be installed.
    pub fn traced_op(
        &mut self,
        op: &Op,
        shadow: &mut Shadow,
        spans: &mut Spans,
        parent: u32,
    ) -> TracedOp {
        let snap = self.cluster.stats.snapshot();
        let tick = self.cluster.tick();
        let start = spans.now_ns();
        let (answer, direct) = self.op(op);
        let end = spans.now_ns();
        let span = spans.record(parent, span_name(op.kind()), start, end);
        let delta = self.cluster.stats.since(&snap);
        let ticks = self.cluster.tick() - tick;
        let msgs = take_tapped();
        let inserted = match op {
            Op::Insert(o) => Some(o),
            _ => None,
        };
        let replay = shadow.replay(&self.cluster, &msgs, inserted, spans, span);
        TracedOp {
            answer,
            span,
            ns: end - start,
            replay,
            delta,
            ticks,
            direct,
        }
    }

    /// Runs `ops` traced, booking each into `layers` and `tally`.
    pub fn run_block_traced(
        &mut self,
        ops: &[Op],
        oracle: &mut Oracle,
        tally: &mut Tally,
        layers: &mut Layers,
        spans: &mut Spans,
    ) {
        install_tap(&mut self.cluster);
        let mut shadow = Shadow::of(&self.cluster);
        for op in ops {
            let t = self.traced_op(op, &mut shadow, spans, 0);
            layers.account(op.kind(), t.ns, 0, &t.replay, &t.delta, t.ticks, t.direct);
            tally.record(op.kind(), t.ns);
            tally.msgs += t.delta.total;
            tally.msg_ops += 1;
            if !check(oracle, op, &t.answer) {
                tally.mismatches += 1;
            }
        }
        layers.known_servers = self.client.image.known_servers() as f64;
    }

    /// End-of-run checks: structural invariants, and the object count
    /// against the oracle. Each failure is a run-level check failure.
    pub fn finish(&mut self, oracle: &Oracle, tally: &mut Tally) {
        let cluster = &mut self.cluster;
        let invariants =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.check_invariants()));
        if invariants.is_err() {
            tally.check_failures += 1;
        }
        if self.cluster.total_objects() != oracle.len() {
            tally.check_failures += 1;
        }
    }

    /// Mean local R-tree height over the data nodes.
    pub fn rtree_height(&self) -> f64 {
        let h: Vec<f64> = self
            .cluster
            .servers()
            .iter()
            .filter_map(|s| s.data.as_ref())
            .map(|d| d.tree.height() as f64)
            .collect();
        h.iter().sum::<f64>() / h.len().max(1) as f64
    }
}

/// Sets the untraced comparison times from the operations booked so far.
pub(crate) fn book_untraced(layers: &mut Layers, tally: &Tally) {
    for kind in OpKind::ALL {
        for &us in &tally.latency_us[kind.idx()] {
            layers.untraced(kind, (us * 1e3) as u64);
        }
    }
}

/// `sim-grow`: every round grows a fresh cluster from one empty server by
/// inserting the same skewed objects, then queries the grown tree.
pub fn sim_grow(p: &Params) -> RunOutput {
    let sizes = Sizes::of(Workload::SimGrow, p.scale);
    let rng = Rng::seed_from_u64(p.seed);
    let mut tally = Tally::default();
    let mut reference = (!p.traced).then(Reference::new);
    let (mut inserts, mut reads) = (Vec::new(), Vec::new());
    for _ in 0..sizes.setup_repeats {
        if let Some(r) = reference.as_mut() {
            tally.setup_reference_ns.push(r.sample());
        }
        let t = Instant::now();
        let data = growth_objects(sizes.round_inserts);
        reads = queries(sizes.round_queries, sizes.windows(), &rng.fork(11));
        rng.fork(12).shuffle(&mut reads);
        inserts = data.into_iter().map(Op::Insert).collect::<Vec<_>>();
        let s = t.elapsed().as_secs_f64();
        tally.setup_s.push(s);
        tally.gen_s.push(s);
    }
    let round = |tally: &mut Tally,
                 mut reference: Option<&mut Reference>,
                 trace: Option<(&mut Layers, &mut Spans)>| {
        let mut sim = Sim::new(Cluster::new(sizes.config()), p.seed);
        let mut oracle = Oracle::new(&[]);
        match trace {
            None => {
                sim.run_block(&inserts, &mut oracle, tally, reference.as_deref_mut());
                sim.run_block(&reads, &mut oracle, tally, reference);
            }
            Some((layers, spans)) => {
                sim.run_block_traced(&inserts, &mut oracle, tally, layers, spans);
                sim.run_block_traced(&reads, &mut oracle, tally, layers, spans);
                layers.rtree_height = sim.rtree_height();
            }
        }
        sim.finish(&oracle, tally);
        sim.cluster.num_servers()
    };
    let mut servers = 0;
    if !p.traced {
        for _ in 0..p.rounds {
            servers = round(&mut tally, reference.as_mut(), None);
        }
        return RunOutput::untraced(Workload::SimGrow, tally, servers);
    }
    let mut layers = Layers::default();
    let mut spans = Spans::new();
    round(&mut tally, None, None);
    book_untraced(&mut layers, &tally);
    servers = round(&mut tally, None, Some((&mut layers, &mut spans)));
    layers.gen_s = median(&mut tally.gen_s.clone());
    RunOutput::traced(Workload::SimGrow, tally, servers, layers, spans)
}

/// `sim-query`: a bulk-loaded uniform tree (the paper's §5.2 query
/// setting) queried through a warm IMCLIENT image, with a trickle of
/// inserts that never fills a server.
pub fn sim_query(p: &Params) -> RunOutput {
    let sizes = Sizes::of(Workload::SimQuery, p.scale);
    let blocks = if p.traced { p.rounds.max(2) } else { p.rounds };
    let rng = Rng::seed_from_u64(p.seed);
    let mut tally = Tally::default();
    let mut reference = (!p.traced).then(Reference::new);
    let mut loaded = None;
    for _ in 0..sizes.setup_repeats {
        // Drop the previous set-up first, so repeats measure the same
        // allocator state and peak memory holds one tree.
        drop(loaded.take());
        if let Some(r) = reference.as_mut() {
            tally.setup_reference_ns.push(r.sample());
        }
        let t = Instant::now();
        let data = objects(
            sizes.preload,
            Distribution::Uniform,
            0,
            rng.fork(20).next_u64(),
        );
        let rounds: Vec<Vec<Op>> = (0..blocks)
            .map(|r| {
                let first_oid = (sizes.preload + r * sizes.round_inserts) as u64;
                mixed_round(&sizes, first_oid, &rng.fork(100 + r as u64))
            })
            .collect();
        let gen = t.elapsed().as_secs_f64();
        let oracle = Oracle::new(&data);
        let t = Instant::now();
        let cluster = Cluster::bulk_load(sizes.config(), data);
        tally.setup_s.push(gen + t.elapsed().as_secs_f64());
        tally.gen_s.push(gen);
        loaded = Some((cluster, oracle, rounds));
    }
    let (cluster, mut oracle, rounds) = loaded.expect("at least one set-up");
    let mut sim = Sim::new(cluster, p.seed);
    // Warm the client's image before timing, as a long-lived client's
    // would be: unmeasured, unchecked window and point queries.
    let warm = queries(
        [sizes.round_queries[0] / 4, sizes.round_queries[1] / 4, 0],
        sizes.windows(),
        &rng.fork(21),
    );
    for op in &warm {
        sim.op(op);
    }
    let servers = sim.cluster.num_servers();
    if !p.traced {
        for ops in &rounds {
            sim.run_block(ops, &mut oracle, &mut tally, reference.as_mut());
        }
        sim.finish(&oracle, &mut tally);
        return RunOutput::untraced(Workload::SimQuery, tally, servers);
    }
    let mut layers = Layers::default();
    let mut spans = Spans::new();
    // The first half of the rounds untraced, for the overhead comparison;
    // the second half traced.
    let (untraced, traced) = rounds.split_at(rounds.len() / 2);
    sim.run_block(&untraced.concat(), &mut oracle, &mut tally, None);
    book_untraced(&mut layers, &tally);
    sim.run_block_traced(
        &traced.concat(),
        &mut oracle,
        &mut tally,
        &mut layers,
        &mut spans,
    );
    layers.rtree_height = sim.rtree_height();
    layers.gen_s = median(&mut tally.gen_s.clone());
    sim.finish(&oracle, &mut tally);
    RunOutput::traced(Workload::SimQuery, tally, servers, layers, spans)
}
