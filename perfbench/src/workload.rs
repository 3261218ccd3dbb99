//! Workload definitions: names, sizes, and the seeded operation streams.
//!
//! Every workload is a closed loop with one client: the next operation is
//! issued when the previous one has completed, which is the only
//! concurrency the SD-Rtree protocol supports (operations run one at a
//! time to quiescence). All inputs derive from the `--seed` argument; the
//! program under test only ever sees the generated objects and queries.

use sdr_core::{Object, Oid, SdrConfig};
use sdr_det::{DetRng, Rng};
use sdr_geom::{Point, Rect};
use sdr_workload::{DatasetSpec, Distribution, PointSpec, WindowSpec};

/// `k` of every kNN query.
pub const KNN_K: usize = 10;

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Simulator, skewed inserts from one empty server (the write path).
    SimGrow,
    /// Simulator, read mix on a bulk-loaded 200k-object tree (the read path).
    SimQuery,
    /// TCP deployment on localhost, inserts mixed with queries.
    TcpMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::SimGrow, Workload::SimQuery, Workload::TcpMixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimGrow => "sim-grow",
            Workload::SimQuery => "sim-query",
            Workload::TcpMixed => "tcp-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall seconds one measured round takes on the reference machine
    /// (2 vCPU x86-64). `--seconds` becomes a whole number of rounds, so a
    /// run's work — and with it every count and the rank of every tail
    /// percentile — is the same on every run of a commit.
    pub fn round_seconds(self) -> f64 {
        match self {
            Workload::SimGrow => 10.0,
            Workload::SimQuery => 1.0,
            Workload::TcpMixed => 0.5,
        }
    }

    /// Rounds a run of `seconds` measures.
    pub fn rounds_for(self, seconds: f64) -> usize {
        ((seconds / self.round_seconds()).round() as usize).max(1)
    }
}

/// Full (paper-scale) or quick (self-test) sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Small sizes for the benchmark's own tests.
    Quick,
}

/// Sizes of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Data-node capacity.
    pub capacity: usize,
    /// Objects loaded during set-up (bulk load or TCP preload; 0 for
    /// `sim-grow`, which starts empty).
    pub preload: usize,
    /// Inserts per measured round (`sim-grow`: the objects the round grows
    /// the tree to).
    pub round_inserts: usize,
    /// Point, window and kNN queries per measured round.
    pub round_queries: [usize; 3],
    /// Largest per-axis window extent. `sim-query` uses the paper's 10 %.
    /// On `sim-grow`'s skewed tree a 10 % window on the densest cluster
    /// returns tens of thousands of objects, and whether a seed drew such
    /// windows decided the run's peak memory; on `tcp-mixed` a window
    /// spanning several servers collects each reply through the client's
    /// 1 ms receive poll. Both use 1 %, which keeps most windows on one
    /// data node.
    pub window_extent: f64,
    /// Times set-up is repeated; `setup_s` is the median. On `tcp-mixed`
    /// each set-up is a deployment that then runs its share of the
    /// rounds.
    pub setup_repeats: usize,
}

impl Sizes {
    /// The sizes of `workload` at `scale`.
    pub fn of(workload: Workload, scale: Scale) -> Sizes {
        match (workload, scale) {
            (Workload::SimGrow, Scale::Full) => Sizes {
                capacity: 3_000,
                preload: 0,
                round_inserts: 200_000,
                round_queries: [3_000, 2_000, 1_000],
                window_extent: 0.01,
                setup_repeats: 15,
            },
            (Workload::SimGrow, Scale::Quick) => Sizes {
                capacity: 150,
                preload: 0,
                round_inserts: 4_000,
                round_queries: [30, 30, 10],
                window_extent: 0.01,
                setup_repeats: 2,
            },
            (Workload::SimQuery, Scale::Full) => Sizes {
                capacity: 3_000,
                preload: 200_000,
                round_inserts: 400,
                round_queries: [9_000, 8_600, 2_000],
                window_extent: 0.1,
                setup_repeats: 5,
            },
            (Workload::SimQuery, Scale::Quick) => Sizes {
                capacity: 150,
                preload: 5_000,
                round_inserts: 10,
                round_queries: [100, 90, 20],
                window_extent: 0.1,
                setup_repeats: 2,
            },
            // A TCP kNN takes one transport hop (~1.2 ms of polls) per
            // server its search touches. At capacities 400 and 600 about
            // half of the kNN queries touched one server, so the median
            // jumped between the one- and two-hop latencies from seed to
            // seed. At 200 most touch two and the median holds; the run
            // ends with ~19 server threads, mostly asleep in their polls.
            (Workload::TcpMixed, Scale::Full) => Sizes {
                capacity: 200,
                preload: 600,
                round_inserts: 50,
                round_queries: [20, 20, 10],
                window_extent: 0.01,
                setup_repeats: 3,
            },
            (Workload::TcpMixed, Scale::Quick) => Sizes {
                capacity: 50,
                preload: 100,
                round_inserts: 20,
                round_queries: [8, 8, 4],
                window_extent: 0.01,
                setup_repeats: 1,
            },
        }
    }

    /// The window-query spec.
    pub fn windows(&self) -> WindowSpec {
        WindowSpec::with_max_extent(self.window_extent)
    }

    /// The SD-Rtree configuration: the paper's (capacity 3,000, Quadratic
    /// split) with this workload's capacity.
    pub fn config(&self) -> SdrConfig {
        SdrConfig::with_capacity(self.capacity)
    }
}

/// The four operation types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Object insertion.
    Insert,
    /// Point query.
    Point,
    /// Window query.
    Window,
    /// k-nearest-neighbour query.
    Knn,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 4] = [OpKind::Insert, OpKind::Point, OpKind::Window, OpKind::Knn];

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Point => "point",
            OpKind::Window => "window",
            OpKind::Knn => "knn",
        }
    }

    /// Dense index for per-kind arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One client operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Insert this object.
    Insert(Object),
    /// Objects whose mbb contains the point.
    Point(Point),
    /// Objects whose mbb intersects the window.
    Window(Rect),
    /// The `KNN_K` objects nearest to the point.
    Knn(Point),
}

impl Op {
    /// The operation's type.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Insert(_) => OpKind::Insert,
            Op::Point(_) => OpKind::Point,
            Op::Window(_) => OpKind::Window,
            Op::Knn(_) => OpKind::Knn,
        }
    }
}

/// `n` objects with oids `first_oid..`, centers from `distribution`.
pub fn objects(n: usize, distribution: Distribution, first_oid: u64, seed: u64) -> Vec<Object> {
    DatasetSpec::new(n, distribution)
        .generate(seed)
        .into_iter()
        .zip(first_oid..)
        .map(|(r, oid)| Object::new(Oid(oid), r))
        .collect()
}

/// The queries of one round, uniform over the unit square (the paper's
/// §5.2 query setting): `counts` = point, window, kNN; window extents
/// follow `windows`. Each input stream is its own fork of `rng`.
pub fn queries(counts: [usize; 3], windows: WindowSpec, rng: &Rng) -> Vec<Op> {
    let [np, nw, nk] = counts;
    let pts = PointSpec::uniform().generate(np + nk, rng.fork(1).next_u64());
    let (p, k) = pts.split_at(np);
    let mut ops: Vec<Op> = p.iter().map(|&p| Op::Point(p)).collect();
    ops.extend(
        windows
            .generate(nw, rng.fork(2).next_u64())
            .into_iter()
            .map(Op::Window),
    );
    ops.extend(k.iter().map(|&p| Op::Knn(p)));
    ops
}

/// Seed of `sim-grow`'s growth set.
const GROWTH_SEED: u64 = 0x5D27_2007;

/// `sim-grow`'s growth set: `n` skewed objects, the same for every run.
///
/// The seed does not choose them. Grown by insertion from skewed data,
/// the SD-Rtree's shape is chaotic in the arrival order: over growth sets
/// drawn from different seeds (even around one fixed cluster layout),
/// query messages per query and query latency on the grown tree differed
/// by 2x, so no query metric of this workload would be comparable from
/// one seed to the next. Like the paper's evaluation, which grows one
/// GSTD file, the workload grows one set; the seed draws its queries.
pub fn growth_objects(n: usize) -> Vec<Object> {
    objects(n, Distribution::default_skewed(), 0, GROWTH_SEED)
}

/// One round of a mixed workload: the round's inserts of new uniform
/// objects (oids from `first_oid`), shuffled among its queries.
pub fn mixed_round(sizes: &Sizes, first_oid: u64, rng: &Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = objects(
        sizes.round_inserts,
        Distribution::Uniform,
        first_oid,
        rng.fork(6).next_u64(),
    )
    .into_iter()
    .map(Op::Insert)
    .collect();
    ops.extend(queries(sizes.round_queries, sizes.windows(), rng));
    rng.fork(5).shuffle(&mut ops);
    ops
}
