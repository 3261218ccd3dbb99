//! A TCP server node: one SD-Rtree server behind a socket.
//!
//! Each node blocks in `accept` on an OS-assigned port registered in the
//! deployment's address directory. A connection carries exactly one
//! frame (a [`sdr_core::Message`]); the node feeds it to the embedded
//! [`Server`] state machine and ships the resulting outbox — to peer
//! nodes and to clients' reply ports alike.
//!
//! When the state machine allocates a new server (a split), the node
//! *synchronously* binds the new server's listener before forwarding any
//! message to it, so the `SplitCreate` can never be lost; the new node's
//! accept loop then runs on its own thread. This is the node-manager
//! role a production deployment would delegate to its orchestrator.

use crate::buf::ReadBuf;
use crate::wire::{decode_message, encode_message};
use sdr_core::msg::{Endpoint, Message};
use sdr_core::{Allocator, FaultInjector, Outbox, SdrConfig, Server, ServerId, Stats};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic fault injection for the TCP substrate: the injector
/// executing a [`sdr_core::FaultPlan`] plus its own fault counters
/// (the deployment has no simulator `Stats`; this pair is the TCP
/// equivalent). Shared behind one lock so decisions draw from a single
/// seeded stream even with concurrent senders.
#[derive(Debug)]
pub(crate) struct NetFaults {
    pub injector: FaultInjector,
    pub stats: Stats,
}

/// Shared deployment state every node needs: the address directory, the
/// server id allocator, the shutdown flag, and the delivery accounting
/// clients wait on.
#[derive(Debug)]
pub(crate) struct Deployment {
    /// Address directory: endpoint → OS-assigned port. Every listener
    /// binds port 0 and registers here *before* anything can address it.
    /// A production deployment would get this from its node manager;
    /// OS-assigned ports make parallel deployments and rapid restarts
    /// collision-free (no fixed ranges, no `TIME_WAIT` interference).
    pub registry: std::sync::RwLock<std::collections::HashMap<Endpoint, u16>>,
    /// Next server id — shared so concurrent splits never collide.
    pub next_server: Arc<AtomicU32>,
    pub config: SdrConfig,
    pub stop: Arc<AtomicBool>,
    /// Every node thread with its listener's port, so shutdown can wake
    /// each one out of `accept` and join it.
    pub nodes: Mutex<Vec<(u16, JoinHandle<()>)>>,
    /// Serializes message *handling* across the deployment.
    ///
    /// The paper leaves concurrency control explicitly open (§6: "our
    /// study ... yet remains about entirely open with respect to ...
    /// concurrency, transactions"). Unserialized handling does break the
    /// structure: a rotation applying snapshot links can race a split
    /// and orphan the new server. Until a concurrency-control scheme
    /// exists, the TCP layer executes the *distribution* faithfully
    /// (real sockets, framing, per-server state) while handling one
    /// message at a time, matching the synchronous semantics the paper's
    /// own evaluation assumes. Senders never block on receivers'
    /// processing (frames queue in the OS accept backlog), so the lock
    /// cannot deadlock.
    pub handle_lock: Arc<std::sync::Mutex<()>>,
    /// Frames sent but not yet settled by their receiver. Clients wait
    /// for this to drop to zero between operations
    /// ([`crate::NetClient::quiesce`]), reproducing the simulator's
    /// sequential-operation semantics over real sockets — overlapping
    /// maintenance chains are exactly the concurrency problem the paper
    /// leaves open.
    ///
    /// Every delivery path keeps the pairing exact: the sender
    /// increments when it commits to a frame, and the receiver
    /// decrements once — a node after handling it, a client's reply
    /// reader after queueing it in the client's inbox, either of them on
    /// *any* failure to read/decode it (the failure path also bumps
    /// [`Deployment::delivery_failures`], so the loss is observable).
    /// Zero therefore means every reply, acknowledgment and IAM is
    /// already in its client's inbox. Unsolicited frames (raw
    /// connections that never went through `send_message`) can push the
    /// count transiently below zero, which is why quiescence tests
    /// `> 0`, not `!= 0`.
    pub in_flight: Arc<std::sync::atomic::AtomicI64>,
    /// Monotonic count of messages this deployment failed to deliver:
    /// frames undeliverable after every connect attempt, frames that
    /// arrived truncated/undecodable, and fault-injected losses. Clients
    /// snapshot it per operation; any advance surfaces as
    /// [`crate::client::NetError::Undeliverable`] instead of a silent
    /// drop or a hang-until-timeout.
    pub delivery_failures: AtomicU64,
    /// Bumped, under its lock, whenever `in_flight` settles to zero or
    /// below, a delivery failure is recorded, or a client's reply reader
    /// queues a frame; [`Deployment::wait_event`] blocks on it.
    pub event_seq: Mutex<u64>,
    /// Signalled with every `event_seq` bump.
    pub event: Condvar,
    /// Deterministic fault injection (`None` in normal deployments).
    pub faults: Mutex<Option<NetFaults>>,
    /// Messages held back by delay/reorder injection, with the number of
    /// send events still to elapse before transmission.
    pub delayed: Mutex<Vec<(Message, u32)>>,
    /// Connect attempts `send_message` makes before declaring a message
    /// undeliverable (the retry ladder sleeps `2ms * attempt` between
    /// tries). Tunable so fault tests fail fast instead of in seconds.
    pub send_attempts: u32,
    /// Deployment-wide delivery metrics (`None` unless `SDR_METRICS` is
    /// set at launch): frame read/write counts and bytes, in-flight
    /// high-water, delayed-lane flushes. Numeric *values* depend on
    /// thread timing — only the key set is deterministic — so these are
    /// for operator inspection, never for golden comparisons.
    pub metrics: Mutex<Option<sdr_obs::Metrics>>,
}

impl Deployment {
    /// Registers an endpoint's port in the directory.
    pub fn register(&self, endpoint: Endpoint, port: u16) {
        self.registry
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(endpoint, port);
    }

    /// Looks up an endpoint's port.
    pub fn lookup(&self, endpoint: Endpoint) -> Option<u16> {
        self.registry
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&endpoint)
            .copied()
    }

    /// Removes an endpoint from the directory (fault-injection hook:
    /// simulates a listener that died mid-run).
    pub fn deregister(&self, endpoint: Endpoint) {
        self.registry
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&endpoint);
    }

    /// Counts one failed delivery and wakes every waiter.
    pub fn record_delivery_failure(&self) {
        self.delivery_failures.fetch_add(1, Ordering::SeqCst);
        self.notify();
    }

    /// Settles one counted frame; waiters wake once nothing is in flight.
    pub fn settle(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) <= 1 {
            self.notify();
        }
    }

    /// Books a counted frame that arrived but could not be processed:
    /// settles the sender's `in_flight` increment and counts the loss.
    pub fn read_failure(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.record_delivery_failure();
        self.with_metrics(|m| m.inc("frame/read_failure"));
    }

    /// Records an event and wakes every thread in [`Deployment::wait_event`].
    pub fn notify(&self) {
        let mut seq = self.event_seq.lock().unwrap_or_else(|e| e.into_inner());
        *seq = seq.wrapping_add(1);
        self.event.notify_all();
    }

    /// The current event number: read it *before* checking the state
    /// to wait on, then pass it to [`Deployment::wait_event`], so an
    /// event between the check and the wait is never missed.
    pub fn event_seq(&self) -> u64 {
        *self.event_seq.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until an event after `seen` is recorded; `false` if the
    /// deadline passes first.
    pub fn wait_event(&self, seen: u64, deadline: Instant) -> bool {
        let mut seq = self.event_seq.lock().unwrap_or_else(|e| e.into_inner());
        while *seq == seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            seq = self
                .event
                .wait_timeout(seq, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Runs `f` against the metrics registry if one is installed. The
    /// lock is held only for the closure — callers must not nest this
    /// inside other deployment locks.
    pub fn with_metrics(&self, f: impl FnOnce(&mut sdr_obs::Metrics)) {
        let mut guard = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(m) = guard.as_mut() {
            f(m);
        }
    }

    /// Ticks the delay buffer by one send event and transmits every
    /// expired message (with `force`, all of them). Returns how many
    /// were sent. Re-injected messages bypass further fault decisions,
    /// mirroring the simulator's exemption rule.
    pub fn flush_delayed(&self, force: bool) -> usize {
        let expired: Vec<Message> = {
            let mut delayed = self.delayed.lock().unwrap_or_else(|e| e.into_inner());
            if delayed.is_empty() {
                return 0;
            }
            let mut expired = Vec::new();
            delayed.retain_mut(|(msg, countdown)| {
                if force || *countdown <= 1 {
                    expired.push(msg.clone());
                    false
                } else {
                    *countdown -= 1;
                    true
                }
            });
            expired
        };
        let n = expired.len();
        for msg in &expired {
            transmit(self, msg);
        }
        if n > 0 {
            self.with_metrics(|m| m.add("net/delayed_flush", n as u64));
        }
        n
    }
}

/// Binds a node's listener synchronously (registering its OS-assigned
/// port), then spawns its accept loop.
pub(crate) fn spawn_node(deployment: Arc<Deployment>, id: ServerId) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let port = listener.local_addr()?.port();
    deployment.register(Endpoint::Server(id), port);
    let server = if id.0 == 0 {
        Server::new(id, deployment.config)
    } else {
        Server::bare(id, deployment.config)
    };
    let node = {
        let deployment = deployment.clone();
        std::thread::Builder::new()
            .name(format!("sdr-node-{}", id.0))
            .spawn(move || accept_loop(deployment, listener, server))?
    };
    deployment
        .nodes
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((port, node));
    Ok(())
}

/// Backoff before retrying after a failed `accept`. Transient conditions
/// (`ECONNABORTED` from a handshake the peer gave up on, `EMFILE`/
/// `ENFILE` descriptor pressure, `EINTR`) clear themselves; the only
/// legitimate way for a listener to stop serving is its stop flag.
/// Exponential up to a bound so a persistent error cannot spin a core,
/// yet recovery is observed within `ACCEPT_BACKOFF_CAP`.
pub(crate) fn accept_backoff(consecutive_errors: u32) -> Duration {
    let ms = 1u64 << consecutive_errors.min(6);
    Duration::from_millis(ms.min(ACCEPT_BACKOFF_CAP.as_millis() as u64))
}

/// The longest a listener ever sleeps between accept retries.
pub(crate) const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Blocks in `accept` and hands every connection's frame to `on_frame`
/// (`None`: the frame was truncated or undecodable) until `stop` is set
/// and the listener is woken by [`wake`]. The wake-up connection carries
/// no bytes, so after the stop flag an empty read is taken for it, not
/// for a lost frame; real frames queued ahead of it are still handed on.
pub(crate) fn accept_frames(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut on_frame: impl FnMut(Option<Message>),
) {
    let mut consecutive_errors: u32 = 0;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                let frame = read_frame(stream);
                if frame.is_none() && stop.load(Ordering::SeqCst) {
                    return;
                }
                on_frame(frame);
            }
            // Transient accept errors (ECONNABORTED, EMFILE, EINTR, ...)
            // must not kill the thread forever; retry with bounded
            // backoff and let only the stop flag end the loop.
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(accept_backoff(consecutive_errors));
            }
        }
    }
}

/// Wakes a listener blocked in [`accept_frames`] with an empty
/// connection; set its stop flag first.
pub(crate) fn wake(port: u16) {
    let _ = TcpStream::connect(("127.0.0.1", port));
}

fn accept_loop(deployment: Arc<Deployment>, listener: TcpListener, mut server: Server) {
    accept_frames(&listener, &deployment.stop, |frame| match frame {
        Some(msg) => {
            deployment.with_metrics(|m| m.inc("frame/read"));
            // Receive-side fault injection: the frame arrived but is
            // treated as unreadable.
            let corrupt = {
                let mut guard = deployment.faults.lock().unwrap_or_else(|e| e.into_inner());
                guard.as_mut().is_some_and(|nf| {
                    let category = msg.payload.category();
                    nf.injector.decide_corrupt(category, &mut nf.stats)
                })
            };
            if corrupt {
                deployment.read_failure();
            } else {
                handle_message(&deployment, &mut server, msg);
            }
        }
        // Timeout, truncation, or decode error: the frame is lost, but
        // the sender already counted it in `in_flight` — settle the
        // account and make the loss observable instead of leaking the
        // count and hanging every subsequent quiesce.
        None => deployment.read_failure(),
    });
}

fn handle_message(deployment: &Arc<Deployment>, server: &mut Server, msg: Message) {
    // sdr-lint: allow(lock-hygiene) — serializing whole handler turns
    // (handle + sends) is the point of this lock; send_message only
    // writes a frame and never awaits the peer's processing, so no
    // reply can need this lock before we release it.
    let _serialized = deployment
        .handle_lock
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("SDR_NET_TRACE").is_some() {
        eprintln!(
            "[{:?}] S{} <- {:?}: {}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default()
                .as_millis()
                % 100_000,
            server.id.0,
            msg.from,
            msg.payload.name(),
        );
    }
    let mut out =
        Outbox::with_allocator(server.id, Allocator::Shared(deployment.next_server.clone()));
    server.handle(msg.from, msg.payload, &mut out);
    // Bind listeners for freshly allocated servers *before* any message
    // can reach them.
    for new_id in &out.allocated {
        if let Err(e) = spawn_node(deployment.clone(), *new_id) {
            eprintln!("sdr-net: failed to spawn server {}: {e}", new_id.0);
        }
    }
    for m in out.msgs {
        send_message(deployment, &m);
    }
    // Deferred messages (orphan reinserts) go last; with clients
    // quiescing between operations this preserves the repair-before-
    // reinsert ordering the simulator guarantees exactly.
    for m in out.deferred {
        send_message(deployment, &m);
    }
    deployment.settle();
}

/// Dispatches one message: consults the fault plan (if any), then
/// transmits — and ticks the delay buffer so postponed messages make
/// progress with every send event.
pub(crate) fn send_message(deployment: &Deployment, msg: &Message) {
    let mut copies = 1u32;
    {
        let mut guard = deployment.faults.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(nf) = guard.as_mut() {
            use sdr_core::FaultDecision as D;
            match nf.injector.decide(msg, &mut nf.stats) {
                D::Deliver => {}
                D::Drop => {
                    // An injected loss is still a loss the deployment
                    // must own up to: count it so the client's next
                    // check reports Undeliverable instead of the
                    // operation silently half-happening.
                    drop(guard);
                    deployment.record_delivery_failure();
                    deployment.flush_delayed(false);
                    return;
                }
                D::Duplicate => copies = 2,
                D::Delay(n) => {
                    drop(guard);
                    deployment
                        .delayed
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((msg.clone(), n));
                    return;
                }
                // Over TCP "reorder" degenerates to delay-by-one: the
                // message goes out after the next send event.
                D::Reorder => {
                    drop(guard);
                    deployment
                        .delayed
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((msg.clone(), 1));
                    return;
                }
            }
        }
    }
    for _ in 0..copies {
        transmit(deployment, msg);
    }
    deployment.flush_delayed(false);
}

/// Delivers one message to its endpoint's port, retrying briefly (a
/// freshly spawned node may still be binding). A message that stays
/// undeliverable after every attempt is counted on the deployment —
/// never silently dropped — so clients report it as an explicit
/// [`crate::client::NetError::Undeliverable`].
fn transmit(deployment: &Deployment, msg: &Message) {
    let depth = deployment.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    deployment.with_metrics(|m| m.set_gauge("net/in_flight", depth));
    let frame = encode_message(msg);
    deployment.with_metrics(|m| {
        m.inc("frame/write");
        m.add("frame/bytes_out", frame.len() as u64);
    });
    for attempt in 0..u64::from(deployment.send_attempts) {
        // Resolve the port on every attempt: listeners register before
        // anything can address them, but a client may not have connected
        // yet when its first replies arrive.
        if let Some(port) = deployment.lookup(msg.to) {
            if let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) {
                if stream.write_all(&frame).is_ok() {
                    let _ = stream.shutdown(Shutdown::Write);
                    return;
                }
            }
        }
        // A stopped deployment has no listener left to wait for.
        if deployment.stop.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2 * (attempt + 1)));
    }
    deployment.record_delivery_failure();
    // Keep the quiescence accounting truthful.
    deployment.settle();
}

/// Reads one length-prefixed frame from a stream and decodes it.
/// Returns `None` on timeout, truncation, oversize, or decode error;
/// the caller owns the delivery accounting for that loss.
pub(crate) fn read_frame(mut stream: TcpStream) -> Option<Message> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > 64 * 1024 * 1024 {
        return None;
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    decode_message(&mut ReadBuf::new(&body)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_is_bounded_and_monotone() {
        let mut prev = Duration::ZERO;
        for n in 1..=64 {
            let d = accept_backoff(n);
            assert!(d >= prev, "backoff must not shrink");
            assert!(d <= ACCEPT_BACKOFF_CAP, "backoff must stay bounded");
            prev = d;
        }
    }

    #[test]
    fn accept_backoff_starts_small() {
        assert!(accept_backoff(1) <= Duration::from_millis(2));
    }
}
