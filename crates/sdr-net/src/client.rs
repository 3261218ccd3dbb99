//! A TCP client component: the IMCLIENT variant of §3 over sockets.
//!
//! The client binds a reply listener served by a reader thread of its
//! own, keeps an [`Image`] corrected by IAMs, addresses servers with
//! CHOOSEFROMIMAGE, and applies the direct termination protocol of §4.3
//! to decide when a query is complete.

use crate::node::{accept_frames, send_message, wake, Deployment};
use crate::NetCluster;
use sdr_core::ids::{ClientId, NodeRef, QueryId};
use sdr_core::msg::{
    Endpoint, ImageHolder, Message, Payload, QueryKind, QueryMode, QueryMsg, ReplyProtocol,
};
use sdr_core::{DirectAccounting, Image, Object, ServerId};
use sdr_geom::{Point, Rect};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors a network client can hit.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The termination protocol did not complete within the timeout.
    Timeout,
    /// The deployment failed to deliver at least one message during the
    /// operation (undeliverable frame, truncated/undecodable inbound
    /// frame, or injected fault). Unlike [`NetError::Timeout`] this is
    /// reported as soon as the failure is recorded — the operation's
    /// effects may be partial, but never silently so.
    Undeliverable,
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Timeout => write!(f, "query did not complete in time"),
            NetError::Undeliverable => {
                write!(f, "the deployment failed to deliver a message")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Counter handing out distinct client ids within the process.
static NEXT_CLIENT: AtomicU32 = AtomicU32::new(0);

/// A TCP client of a [`NetCluster`].
#[derive(Debug)]
pub struct NetClient {
    id: ClientId,
    image: Image,
    /// Frames addressed to this client, in arrival order, queued by
    /// `reader`.
    inbox: Receiver<Message>,
    /// The reply listener's port and its reader thread (joined on drop).
    port: u16,
    reader: Option<JoinHandle<()>>,
    reader_stop: Arc<AtomicBool>,
    deployment: Arc<Deployment>,
    next_qid: u64,
    /// The deployment's delivery-failure count as of the last check, so
    /// each client reports an advance exactly once (in a `Cell`: checks
    /// happen inside `&self` receive/quiesce loops).
    failures_seen: std::cell::Cell<u64>,
    /// How long to wait for the reply protocol to complete.
    pub timeout: Duration,
}

impl NetClient {
    /// Connects a fresh client (empty image; server 0 as contact).
    pub fn connect(cluster: &NetCluster) -> std::io::Result<NetClient> {
        let id = ClientId(NEXT_CLIENT.fetch_add(1, Ordering::SeqCst));
        let deployment = cluster.deployment.clone();
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let port = listener.local_addr()?.port();
        let (queue, inbox) = mpsc::channel();
        let reader_stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let deployment = deployment.clone();
            let stop = reader_stop.clone();
            std::thread::Builder::new()
                .name(format!("sdr-client-{}", id.0))
                .spawn(move || read_replies(&deployment, &listener, &stop, &queue))?
        };
        deployment.register(Endpoint::Client(id), port);
        let failures_seen =
            std::cell::Cell::new(deployment.delivery_failures.load(Ordering::SeqCst));
        Ok(NetClient {
            id,
            image: Image::new(),
            inbox,
            port,
            reader: Some(reader),
            reader_stop,
            deployment,
            next_qid: 0,
            failures_seen,
            timeout: Duration::from_secs(10),
        })
    }

    /// Fails fast if the deployment recorded new delivery failures since
    /// this client last checked: the current operation may have lost a
    /// message, and waiting for a timeout would misattribute the cause.
    fn check_failures(&self) -> Result<(), NetError> {
        let now = self.deployment.delivery_failures.load(Ordering::SeqCst);
        if now != self.failures_seen.get() {
            self.failures_seen.set(now);
            return Err(NetError::Undeliverable);
        }
        Ok(())
    }

    /// The client's image (inspectable for convergence experiments).
    pub fn image(&self) -> &Image {
        &self.image
    }

    fn qid(&mut self) -> QueryId {
        self.next_qid += 1;
        QueryId(((self.id.0 as u64) << 32) | self.next_qid)
    }

    fn send(&self, to: ServerId, payload: Payload) {
        send_message(
            &self.deployment,
            &Message {
                from: Endpoint::Client(self.id),
                to: Endpoint::Server(to),
                payload,
            },
        );
    }

    /// Blocks until `ready` yields a value; `ready` is told whether
    /// nothing is in flight. Before it is asked on a quiet wire, the
    /// fault layer's delay lane is flushed: only that lane can still
    /// hold a frame then. Fails fast with [`NetError::Undeliverable`] if
    /// the deployment recorded a delivery failure, instead of hanging
    /// out the full timeout: a lost message will never arrive, so there
    /// is nothing truthful to wait for.
    fn wait_for<T>(
        &self,
        deadline: Instant,
        mut ready: impl FnMut(bool) -> Option<T>,
    ) -> Result<T, NetError> {
        loop {
            let seen = self.deployment.event_seq();
            self.check_failures()?;
            let quiet = self.deployment.in_flight.load(Ordering::SeqCst) <= 0;
            if quiet && self.deployment.flush_delayed(true) > 0 {
                continue;
            }
            if let Some(value) = ready(quiet) {
                return Ok(value);
            }
            if !self.deployment.wait_event(seen, deadline) {
                return Err(NetError::Timeout);
            }
        }
    }

    /// Waits for the next frame addressed to this client.
    fn recv(&self, deadline: Instant) -> Result<Message, NetError> {
        self.wait_for(deadline, |_| self.inbox.try_recv().ok())
    }

    /// Inserts an object and waits for the structure to quiesce. An
    /// out-of-range path produces an acknowledgment carrying an IAM
    /// (inserts are acknowledged only when repaired, §3.2); quiescence
    /// guarantees it is already in the inbox, and its IAM corrects the
    /// image before this returns.
    pub fn insert(&mut self, obj: Object) -> Result<(), NetError> {
        let target = self.image.choose(&obj.mbb);
        let iam_to = ImageHolder::Client(self.id);
        match target {
            Some(link) if link.is_data() => self.send(
                link.node.server,
                Payload::InsertAtLeaf {
                    obj,
                    trace: vec![],
                    iam_to,
                    initial: true,
                },
            ),
            Some(link) => self.send(
                link.node.server,
                Payload::InsertAscend {
                    obj,
                    trace: vec![],
                    iam_to,
                    initial: true,
                },
            ),
            None => self.send(
                ServerId(0),
                Payload::InsertAtLeaf {
                    obj,
                    trace: vec![],
                    iam_to,
                    initial: true,
                },
            ),
        }
        // Sequential-operation semantics: wait for the structure to
        // quiesce (splits, adjustments, OC maintenance) before the next
        // operation. Overlapping maintenance chains are the concurrency
        // problem the paper leaves open (§6), so the client — like the
        // paper's own evaluation — issues one operation at a time.
        self.quiesce()?;
        // Client-bound frames count as in flight until they are queued,
        // so every ack is here now; direct inserts have none (§3.2).
        while let Ok(Message { payload, .. }) = self.inbox.try_recv() {
            if let Payload::InsertAck { trace, .. } = payload {
                self.image.absorb(&trace);
            }
        }
        Ok(())
    }

    /// Blocks until no frame is in flight anywhere in the deployment —
    /// including replies not yet queued in a client's inbox, and
    /// messages parked by delay injection, which are flushed once
    /// everything else has settled. Fails fast with
    /// [`NetError::Undeliverable`] on a delivery failure.
    pub fn quiesce(&self) -> Result<(), NetError> {
        self.wait_for(Instant::now() + self.timeout, |quiet| quiet.then_some(()))
    }

    /// Runs a point query and returns the matching objects.
    pub fn point_query(&mut self, p: Point) -> Result<Vec<Object>, NetError> {
        self.run_query(QueryKind::Point(p))
    }

    /// Runs a window query and returns the matching objects.
    pub fn window_query(&mut self, w: Rect) -> Result<Vec<Object>, NetError> {
        self.run_query(QueryKind::Window(w))
    }

    fn run_query(&mut self, query: QueryKind) -> Result<Vec<Object>, NetError> {
        let qid = self.qid();
        let region = query.rect();
        let target = match query {
            QueryKind::Point(_) => self.image.choose_data(&region),
            QueryKind::Window(_) => self.image.choose(&region),
        }
        .map(|l| l.node)
        .unwrap_or(NodeRef::data(ServerId(0)));
        self.send(
            target.server,
            Payload::Query(QueryMsg {
                target,
                query,
                region,
                mode: QueryMode::Check,
                qid,
                initial: true,
                repaired: false,
                iam_carrier: false,
                visited: vec![],
                results_to: self.id,
                iam_to: ImageHolder::Client(self.id),
                protocol: ReplyProtocol::Direct,
                reply_via: None,
                parent_branch: 0,
                trace: vec![],
            }),
        );

        // Direct termination protocol: one report per hop; each report
        // names the servers its onward hops target, and the traversal is
        // complete only when every named server has reported (see
        // `sdr_core::DirectAccounting` for why a bare fan-out count is
        // not loss-safe).
        let deadline = Instant::now() + self.timeout;
        let mut acct = DirectAccounting::new();
        let mut results: Vec<Object> = Vec::new();
        while !acct.is_complete() {
            let msg = self.recv(deadline)?;
            let from = msg.from;
            match msg.payload {
                Payload::QueryReport {
                    qid: rq,
                    results: r,
                    spawned,
                    trace,
                    direct,
                } if rq == qid => {
                    if let Endpoint::Server(sender) = from {
                        acct.report(sender, &spawned, direct.is_some());
                    }
                    results.extend(r);
                    self.image.absorb(&trace);
                }
                // Replies from older queries (late branches) drop.
                // A stray ack from an earlier insert that failed before
                // draining its acks: fold its IAM into the image rather
                // than discarding the correction.
                Payload::InsertAck { trace, .. } => self.image.absorb(&trace),
                _ => {}
            }
        }
        let mut seen = std::collections::HashSet::new();
        results.retain(|o| seen.insert(o.oid));
        Ok(results)
    }

    /// Runs a distributed k-nearest-neighbour query (the §7 extension):
    /// up to `k` `(object, distance)` pairs, nearest first. Same
    /// estimate-then-verify algorithm as the simulator client
    /// (`sdr_core::knn`).
    pub fn knn(&mut self, p: Point, k: usize) -> Result<Vec<(Object, f64)>, NetError> {
        if k == 0 {
            return Ok(vec![]);
        }
        // Phase 1: local estimate from the most promising data node.
        let region = Rect::from_point(p);
        let target = self
            .image
            .choose_data(&region)
            .map(|l| l.node)
            .unwrap_or(NodeRef::data(ServerId(0)));
        let qid = self.qid();
        self.send(
            target.server,
            Payload::KnnLocal {
                p,
                k,
                qid,
                results_to: self.id,
            },
        );
        let deadline = Instant::now() + self.timeout;
        let mut radius = 0.01f64;
        loop {
            let msg = self.recv(deadline)?;
            match msg.payload {
                Payload::KnnLocalReply { qid: rq, items, dr } if rq == qid => {
                    if let Some(kth) = k.checked_sub(1).and_then(|i| items.get(i)) {
                        radius = kth.1.max(1e-9);
                    } else if let Some(dr) = dr {
                        radius = dr.width().max(dr.height()).max(0.01);
                    }
                    break;
                }
                // Stray ack from an earlier insert: fold in its IAM.
                Payload::InsertAck { trace, .. } => self.image.absorb(&trace),
                _ => {}
            }
        }
        // Phase 2: verification by expanding window queries.
        loop {
            let window = Rect::new(p.x - radius, p.y - radius, p.x + radius, p.y + radius);
            let mut candidates: Vec<(Object, f64)> = self
                .window_query(window)?
                .into_iter()
                .map(|o| (o, o.mbb.min_dist(&p)))
                .collect();
            candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            candidates.retain(|(_, d)| *d <= radius);
            if candidates.len() >= k || radius >= 4.0 {
                candidates.truncate(k);
                return Ok(candidates);
            }
            radius *= 2.0;
        }
    }

    /// Deletes an object; returns whether some server removed it.
    pub fn delete(&mut self, obj: Object) -> Result<bool, NetError> {
        let qid = self.qid();
        let target = self
            .image
            .choose_data(&obj.mbb)
            .map(|l| l.node)
            .unwrap_or(NodeRef::data(ServerId(0)));
        self.send(
            target.server,
            Payload::Delete {
                obj,
                qid,
                mode: QueryMode::Check,
                region: obj.mbb,
                visited: vec![],
                target,
                results_to: self.id,
                iam_to: ImageHolder::Client(self.id),
                trace: vec![],
                initial: true,
            },
        );
        let deadline = Instant::now() + self.timeout;
        let mut acct = DirectAccounting::new();
        let mut removed = false;
        while !acct.is_complete() {
            let msg = self.recv(deadline)?;
            let from = msg.from;
            match msg.payload {
                Payload::DeleteReport {
                    qid: rq,
                    removed: r,
                    spawned,
                    trace,
                    initial,
                } if rq == qid => {
                    if let Endpoint::Server(sender) = from {
                        acct.report(sender, &spawned, initial);
                    }
                    removed |= r;
                    self.image.absorb(&trace);
                }
                // Stray ack from an earlier insert: fold in its IAM.
                Payload::InsertAck { trace, .. } => self.image.absorb(&trace),
                _ => {}
            }
        }
        // Deletion may trigger eliminations and rotations; quiesce.
        self.quiesce()?;
        Ok(removed)
    }
}

impl Drop for NetClient {
    /// Stops addressing this client, then wakes its reader out of
    /// `accept` and joins it.
    fn drop(&mut self) {
        self.deployment.deregister(Endpoint::Client(self.id));
        self.reader_stop.store(true, Ordering::SeqCst);
        wake(self.port);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A client's reply reader: queues every frame in the client's inbox
/// *before* settling its `in_flight` count, so a quiescent deployment
/// has every reply already queued, then wakes the client.
fn read_replies(
    deployment: &Deployment,
    listener: &TcpListener,
    stop: &AtomicBool,
    queue: &Sender<Message>,
) {
    accept_frames(listener, stop, |frame| match frame {
        Some(msg) => {
            let _ = queue.send(msg);
            deployment.in_flight.fetch_sub(1, Ordering::SeqCst);
            deployment.notify();
        }
        // A truncated or undecodable reply: book it, so the operation
        // waiting for it fails fast instead of timing out.
        None => deployment.read_failure(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::{Oid, SdrConfig};
    use std::io::Write;
    use std::net::TcpStream;

    /// A truncated client-bound frame used to be discarded without a
    /// record, so the operation waiting for it sat out its full timeout.
    /// Now it is booked like a lost server-bound frame: its `in_flight`
    /// count settles, `delivery_failures` advances, and the waiting
    /// operation fails fast with `Undeliverable`.
    #[test]
    fn truncated_reply_frame_is_booked_as_a_delivery_failure() {
        let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
        let mut client = NetClient::connect(&cluster).unwrap();
        client.timeout = Duration::from_secs(30);
        let port = cluster
            .deployment
            .lookup(Endpoint::Client(client.id))
            .expect("client registered");

        // Count the frame the way a sender would, then deliver only part
        // of it: the length prefix promises 64 bytes, 3 arrive.
        cluster.deployment.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
        raw.write_all(&64u32.to_be_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        drop(raw);

        let started = Instant::now();
        let err = client.point_query(Point::new(0.5, 0.5));
        assert!(
            matches!(err, Err(NetError::Undeliverable)),
            "expected Undeliverable, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure report took {:?}",
            started.elapsed()
        );
        assert_eq!(cluster.delivery_failures(), 1);
        client.quiesce().unwrap();
        assert_eq!(
            cluster.in_flight(),
            0,
            "the truncated frame was not settled"
        );

        // The client keeps working afterwards.
        client
            .insert(Object::new(Oid(1), Rect::new(0.4, 0.4, 0.41, 0.41)))
            .unwrap();
        let hits = client.point_query(Point::new(0.405, 0.405)).unwrap();
        assert!(hits.iter().any(|o| o.oid == Oid(1)));
        cluster.shutdown();
    }
}
