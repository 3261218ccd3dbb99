//! `tcp-mixed`: the SD-Rtree over real localhost sockets (`sdr-net`),
//! with inserts and queries sharing one deployment.
//!
//! Each measured operation sequence also runs, untimed, through a
//! simulator twin (`Cluster` + IMCLIENT `Client`) fed the same objects in
//! the same order. The twin gives `msgs_per_op` (the socket transport
//! counts messages only when metrics are switched on, which would change
//! the program being measured) and, in the traced run, the protocol and
//! R-tree shares of each TCP operation.

use crate::oracle::{check, Answer, Oracle};
use crate::replay::{install_tap, Shadow};
use crate::report::{median, Tally};
use crate::sim::{book_untraced, Sim};
use crate::trace::{Layers, Spans};
use crate::workload::{mixed_round, objects, Op, OpKind, Sizes, Workload, KNN_K};
use crate::{Params, RunOutput};
use sdr_core::{Cluster, Object};
use sdr_det::{DetRng, Rng};
use sdr_net::{NetClient, NetCluster, NetError};
use sdr_workload::Distribution;
use std::time::Instant;

fn span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Insert => "tcp.insert",
        OpKind::Point => "tcp.point",
        OpKind::Window => "tcp.window",
        OpKind::Knn => "tcp.knn",
    }
}

/// Runs one operation over TCP.
fn net_op(client: &mut NetClient, op: &Op) -> Result<Answer, NetError> {
    Ok(match op {
        Op::Insert(o) => {
            client.insert(*o)?;
            Answer::Stored
        }
        Op::Point(p) => Answer::Objects(client.point_query(*p)?),
        Op::Window(w) => Answer::Objects(client.window_query(*w)?),
        Op::Knn(p) => Answer::Dists(client.knn(*p, KNN_K)?.into_iter().map(|(_, d)| d).collect()),
    })
}

/// A launched deployment, its client, and what set-up stored in it.
struct Deployment {
    cluster: NetCluster,
    client: NetClient,
    preload: Vec<Object>,
}

/// Launches a run's `index`th deployment and preloads it by insert;
/// returns it with the input-generation seconds.
fn set_up(
    p: &Params,
    sizes: &Sizes,
    index: u64,
    metrics: bool,
) -> Result<(Deployment, f64), String> {
    let t = Instant::now();
    let preload = objects(
        sizes.preload,
        Distribution::Uniform,
        0,
        Rng::seed_from_u64(p.seed).fork(30 + index).next_u64(),
    );
    let gen = t.elapsed().as_secs_f64();
    // The deployment reads SDR_METRICS once, at launch; the traced run
    // switches its frame counters on this way.
    if metrics {
        std::env::set_var("SDR_METRICS", "1");
    }
    let launched = NetCluster::launch(sizes.config());
    if metrics {
        std::env::remove_var("SDR_METRICS");
    }
    let cluster = launched.map_err(|e| format!("launch failed: {e}"))?;
    let mut client = NetClient::connect(&cluster).map_err(|e| format!("connect failed: {e}"))?;
    for o in &preload {
        client
            .insert(*o)
            .map_err(|e| format!("preload insert failed: {e}"))?;
    }
    Ok((
        Deployment {
            cluster,
            client,
            preload,
        },
        gen,
    ))
}

fn counter(cluster: &NetCluster, key: &str) -> f64 {
    cluster
        .metrics_snapshot()
        .and_then(|m| m.into_iter().find(|(k, _)| k == key).map(|(_, v)| v))
        .unwrap_or(0.0)
}

/// Runs `ops` over TCP; answers checked against `oracle` outside the
/// timed region. Returns each op's duration (traced runs record spans).
fn run_block(
    d: &mut Deployment,
    ops: &[Op],
    oracle: &mut Oracle,
    tally: &mut Tally,
    mut trace: Option<(&mut Layers, &mut Spans)>,
) -> Vec<(u32, u64)> {
    let mut timed = Vec::with_capacity(ops.len());
    for op in ops {
        let frames = trace.as_ref().map(|_| {
            (
                counter(&d.cluster, "frame/write"),
                counter(&d.cluster, "frame/bytes_out"),
            )
        });
        let t = Instant::now();
        let result = net_op(&mut d.client, op);
        let ns = t.elapsed().as_nanos() as u64;
        let mut span = 0;
        if let Some((layers, spans)) = trace.as_mut() {
            let end = spans.now_ns();
            span = spans.record(0, span_name(op.kind()), end - ns, end);
            if let Some((f0, b0)) = frames {
                layers.frames += (counter(&d.cluster, "frame/write") - f0) as u64;
                layers.net_bytes += (counter(&d.cluster, "frame/bytes_out") - b0) as u64;
            }
        }
        timed.push((span, ns));
        match result {
            Ok(answer) => {
                tally.record(op.kind(), ns);
                if !check(oracle, op, &answer) {
                    tally.mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!("tcp-mixed: {:?} failed: {e}", op.kind());
                tally.record_error(ns);
                // The insert may have landed; keep the oracle's view
                // consistent with what a retry-free client must assume.
                if let Op::Insert(o) = op {
                    oracle.insert(o);
                }
            }
        }
    }
    timed
}

/// The rounds of one deployment: `n` rounds whose inserts take oids after
/// the preload, each round drawn from its own fork of `rng` (`first` is
/// the index of the deployment's first round in the run).
fn rounds(sizes: &Sizes, rng: &Rng, first: usize, n: usize) -> Vec<Vec<Op>> {
    (0..n)
        .map(|r| {
            let first_oid = (sizes.preload + r * sizes.round_inserts) as u64;
            mixed_round(sizes, first_oid, &rng.fork(200 + (first + r) as u64))
        })
        .collect()
}

/// The simulator twin of `d`: a `Cluster` and IMCLIENT client preloaded
/// with the same objects, and an oracle over them.
fn twin_of(d: &Deployment, sizes: &Sizes, seed: u64) -> (Sim, Oracle) {
    let mut twin = Sim::new(Cluster::new(sizes.config()), seed);
    for o in &d.preload {
        twin.op(&Op::Insert(*o));
    }
    (twin, Oracle::new(&d.preload))
}

/// Stops `d`, after booking a delivery failure that no operation
/// reported as a failed run-level check.
fn shut_down(d: Deployment, tally: &mut Tally, errors_before: u64) {
    let failures = d.cluster.delivery_failures();
    d.cluster.shutdown();
    if failures > 0 && tally.errors == errors_before {
        // Every delivery failure must surface as a failed operation.
        tally.check_failures += 1;
    }
}

/// A wrong answer of the simulator twin is a defect of the program too.
fn book_twin(tally: &mut Tally, twin_tally: &Tally) {
    if twin_tally.mismatches > 0 {
        eprintln!(
            "tcp-mixed: the simulator twin gave {} answers that differ from the oracle",
            twin_tally.mismatches
        );
        tally.check_failures += twin_tally.mismatches;
    }
}

/// `tcp-mixed`.
///
/// An end-to-end run launches `Sizes::setup_repeats` deployments one
/// after another, each preloaded from a seed of its own, and splits its
/// rounds evenly among them. Grown by insertion, a deployment's tree
/// sometimes takes a shape whose queries fan out to several servers (on
/// one seed in three or four, query messages per op doubled or more);
/// with a single deployment, a run's `msgs_per_op` and query medians
/// would hang on whether its one tree took such a shape. The traced run
/// uses one deployment.
pub fn tcp_mixed(p: &Params) -> Result<RunOutput, String> {
    let sizes = Sizes::of(Workload::TcpMixed, p.scale);
    let rng = Rng::seed_from_u64(p.seed);
    let mut tally = Tally::default();
    if !p.traced {
        let deployments = sizes.setup_repeats;
        let per = (p.rounds / deployments).max(1);
        let mut servers = 0;
        for i in 0..deployments {
            let t = Instant::now();
            let (mut d, gen) = set_up(p, &sizes, i as u64, false)?;
            tally.setup_s.push(t.elapsed().as_secs_f64());
            tally.gen_s.push(gen);
            let rounds = rounds(&sizes, &rng, i * per, per);
            let errors_before = tally.errors;
            let mut oracle = Oracle::new(&d.preload);
            for ops in &rounds {
                run_block(&mut d, ops, &mut oracle, &mut tally, None);
            }
            let (mut twin, mut twin_oracle) = twin_of(&d, &sizes, p.seed);
            let mut twin_tally = Tally::default();
            for ops in &rounds {
                twin.run_block(ops, &mut twin_oracle, &mut twin_tally, None);
            }
            tally.msgs += twin_tally.msgs;
            tally.msg_ops += twin_tally.msg_ops;
            book_twin(&mut tally, &twin_tally);
            servers = d.cluster.num_servers();
            shut_down(d, &mut tally, errors_before);
        }
        return Ok(RunOutput::untraced(Workload::TcpMixed, tally, servers));
    }
    let t = Instant::now();
    let (mut d, gen) = set_up(p, &sizes, 0, true)?;
    tally.setup_s.push(t.elapsed().as_secs_f64());
    tally.gen_s.push(gen);
    let rounds = rounds(&sizes, &rng, 0, p.rounds.max(2));
    let mut oracle = Oracle::new(&d.preload);
    let (mut twin, mut twin_oracle) = twin_of(&d, &sizes, p.seed);
    let mut twin_tally = Tally::default();
    let mut layers = Layers::default();
    let mut spans = Spans::new();
    // The first half of the rounds untraced, for the overhead
    // comparison; the second half traced.
    let (untraced, traced) = rounds.split_at(rounds.len() / 2);
    let (untraced, traced) = (untraced.concat(), traced.concat());
    run_block(&mut d, &untraced, &mut oracle, &mut tally, None);
    book_untraced(&mut layers, &tally);
    let timed = run_block(
        &mut d,
        &traced,
        &mut oracle,
        &mut tally,
        Some((&mut layers, &mut spans)),
    );
    // The twin replays both blocks; the second one traced, each twin op
    // a child of its TCP op.
    twin.run_block(&untraced, &mut twin_oracle, &mut twin_tally, None);
    install_tap(&mut twin.cluster);
    let mut shadow = Shadow::of(&twin.cluster);
    for (op, &(span, ns)) in traced.iter().zip(&timed) {
        let t = twin.traced_op(op, &mut shadow, &mut spans, span);
        layers.account(op.kind(), ns, t.ns, &t.replay, &t.delta, t.ticks, t.direct);
        tally.msgs += t.delta.total;
        tally.msg_ops += 1;
        if !check(&mut twin_oracle, op, &t.answer) {
            twin_tally.mismatches += 1;
        }
    }
    layers.known_servers = d.client.image().known_servers() as f64;
    layers.delivery_failures = d.cluster.delivery_failures();
    layers.in_flight_max = counter(&d.cluster, "net/in_flight/max");
    layers.rtree_height = twin.rtree_height();
    layers.gen_s = median(&mut tally.gen_s.clone());
    book_twin(&mut tally, &twin_tally);
    let servers = d.cluster.num_servers();
    shut_down(d, &mut tally, 0);
    Ok(RunOutput::traced(
        Workload::TcpMixed,
        tally,
        servers,
        layers,
        spans,
    ))
}
