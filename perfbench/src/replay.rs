//! Record and replay: how the traced run times layers it cannot call
//! in the middle of an operation.
//!
//! `Cluster::set_tap` records every server-bound message the simulator
//! delivers. After each operation (outside its timed span) the recorded
//! messages are replayed against the layers below `sdr-core`:
//!
//! * each query hop that searched a data node is re-run on that node's
//!   R-tree (`search_point`, `search_window`, `nearest`);
//! * each insert is re-run on a *shadow* copy of the storing server's
//!   R-tree, and each split is re-run on the shadow through
//!   `drain_all`, `sdr_rtree::partition` and two `RTree::bulk_load`s —
//!   the steps the server took — so the real trees are never touched;
//! * every message goes through `encode_message` and `decode_message`.
//!
//! The shadow is checked against the real trees after every operation; a
//! divergence is counted (and the shadow re-synchronized), so a protocol
//! change the replay does not model shows up instead of skewing shares.

use crate::trace::Spans;
use sdr_core::msg::{Payload, QueryKind, QueryMode};
use sdr_core::{Cluster, Endpoint, Message, NodeKind, Object, Oid, ServerId};
use sdr_net::buf::ReadBuf;
use sdr_net::{decode_message, encode_message};
use sdr_rtree::{RTree, RTreeConfig};
use std::cell::RefCell;
use std::hint::black_box;

thread_local! {
    static TAPPED: RefCell<Vec<Message>> = const { RefCell::new(Vec::new()) };
}

fn tap(msg: &Message) {
    TAPPED.with(|t| t.borrow_mut().push(msg.clone()));
}

/// Starts recording `cluster`'s delivered server-bound messages.
pub fn install_tap(cluster: &mut Cluster) {
    TAPPED.with(|t| t.borrow_mut().clear());
    cluster.set_tap(tap);
}

/// The messages recorded since the last call.
pub fn take_tapped() -> Vec<Message> {
    TAPPED.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// What one operation cost in the replayed layers.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpReplay {
    /// Local R-tree searches re-run, and their total time.
    pub searches: u64,
    /// Time of the searches.
    pub search_ns: u64,
    /// Objects the searches returned.
    pub hits: u64,
    /// Time of the local insert of the stored object.
    pub insert_ns: u64,
    /// Splits re-run.
    pub splits: u64,
    /// Time of `partition` in those splits.
    pub partition_ns: u64,
    /// Time of the whole split (drain, partition, two bulk loads).
    pub split_ns: u64,
    /// Messages encoded and decoded.
    pub msgs: u64,
    /// Their encoded size.
    pub bytes: u64,
    /// Encode time.
    pub encode_ns: u64,
    /// Decode time.
    pub decode_ns: u64,
    /// Shadow divergences and codec round-trip mismatches.
    pub mismatches: u64,
}

impl OpReplay {
    /// Time of every replayed `sdr-rtree` call.
    pub fn rtree_ns(&self) -> u64 {
        self.search_ns + self.insert_ns + self.split_ns
    }

    /// Time of every replayed codec call.
    pub fn codec_ns(&self) -> u64 {
        self.encode_ns + self.decode_ns
    }
}

/// Shadow copies of every server's data-node R-tree.
pub struct Shadow {
    trees: Vec<RTree<Oid>>,
    rtree: RTreeConfig,
    split: sdr_rtree::SplitPolicy,
}

fn data_tree(cluster: &Cluster, id: usize) -> Option<&RTree<Oid>> {
    cluster.servers().get(id)?.data.as_ref().map(|d| &d.tree)
}

fn data_len(cluster: &Cluster, id: usize) -> usize {
    data_tree(cluster, id).map_or(0, RTree::len)
}

impl Shadow {
    /// Copies the current trees of `cluster`.
    pub fn of(cluster: &Cluster) -> Shadow {
        let config = cluster.config();
        Shadow {
            trees: (0..cluster.num_servers())
                .map(|i| {
                    data_tree(cluster, i)
                        .cloned()
                        .unwrap_or_else(|| RTree::new(config.rtree))
                })
                .collect(),
            rtree: config.rtree,
            split: config.split,
        }
    }

    /// Replays one completed operation: `msgs` are the messages it
    /// delivered, `inserted` the object it stored (inserts only). Spans
    /// go under `op_span`.
    pub fn replay(
        &mut self,
        cluster: &Cluster,
        msgs: &[Message],
        inserted: Option<&Object>,
        spans: &mut Spans,
        op_span: u32,
    ) -> OpReplay {
        let mut r = OpReplay::default();
        for msg in msgs {
            replay_search(cluster, msg, spans, op_span, &mut r);
        }
        if let Some(obj) = inserted {
            self.replay_insert(cluster, msgs, obj, spans, op_span, &mut r);
        }
        replay_codec(msgs, spans, op_span, &mut r);
        r
    }

    fn replay_insert(
        &mut self,
        cluster: &Cluster,
        msgs: &[Message],
        obj: &Object,
        spans: &mut Spans,
        op_span: u32,
        r: &mut OpReplay,
    ) {
        // A split shows as a SplitCreate: the splitting server is the new
        // routing node's left child, the new server its right child.
        let split = msgs.iter().find_map(|m| match (&m.payload, m.to) {
            (Payload::SplitCreate { routing, .. }, Endpoint::Server(new)) => {
                Some((routing.left.node.server, new))
            }
            _ => None,
        });
        let stored = match split {
            Some((old, _)) => Some(old.0 as usize),
            None => (0..self.trees.len().min(cluster.num_servers()))
                .find(|&i| data_len(cluster, i) == self.trees[i].len() + 1),
        };
        let Some(s) = stored else {
            r.mismatches += 1;
            self.resync(cluster);
            return;
        };
        let tree = &mut self.trees[s];
        let t = spans.now_ns();
        tree.insert(obj.mbb, obj.oid);
        r.insert_ns += spans.close(op_span, "rtree.insert", t);

        if let Some((_, new)) = split {
            let t0 = spans.now_ns();
            let entries = tree.drain_all();
            spans.close(op_span, "rtree.drain_all", t0);
            // The server's partition setting: the whole overflowing node,
            // with each half at least 40 % of it.
            let config = RTreeConfig {
                max_entries: entries.len().max(2),
                min_entries: ((entries.len() * 2) / 5).max(1),
                split: self.split,
                reinsert: false,
            };
            let t = spans.now_ns();
            let (keep, give) = sdr_rtree::partition(entries, &config);
            r.partition_ns += spans.close(op_span, "rtree.partition", t);
            let t = spans.now_ns();
            *tree = RTree::bulk_load(self.rtree, keep);
            let new_tree = RTree::bulk_load(self.rtree, give);
            spans.close(op_span, "rtree.bulk_load", t);
            r.split_ns += spans.now_ns() - t0;
            r.splits += 1;
            let n = new.0 as usize;
            if self.trees.len() <= n {
                self.trees.resize_with(n + 1, || RTree::new(self.rtree));
            }
            self.trees[n] = new_tree;
        }
        let touched = [Some(s), split.map(|(_, new)| new.0 as usize)];
        if touched
            .into_iter()
            .flatten()
            .any(|i| !self.matches(cluster, i))
        {
            r.mismatches += 1;
            self.resync(cluster);
        }
    }

    fn matches(&self, cluster: &Cluster, i: usize) -> bool {
        let shadow = &self.trees[i];
        data_tree(cluster, i).is_some_and(|t| t.len() == shadow.len() && t.bbox() == shadow.bbox())
    }

    fn resync(&mut self, cluster: &Cluster) {
        *self = Shadow::of(cluster);
    }
}

/// Re-runs the local search a delivered message made, if any. The
/// cluster is quiescent after the operation, and queries change no
/// tree, so the node searched is in the state the hop saw.
fn replay_search(
    cluster: &Cluster,
    msg: &Message,
    spans: &mut Spans,
    op_span: u32,
    r: &mut OpReplay,
) {
    let Endpoint::Server(ServerId(id)) = msg.to else {
        return;
    };
    let Some(d) = cluster
        .servers()
        .get(id as usize)
        .and_then(|s| s.data.as_ref())
    else {
        return;
    };
    let t = spans.now_ns();
    let (name, hits) = match &msg.payload {
        Payload::Query(q) if q.target.kind == NodeKind::Data => {
            // The hop searches locally when it descends, or when the node
            // covers the region (or is the whole tree); else it climbs.
            let searched = q.mode == QueryMode::Descend
                || d.dr.is_some_and(|dr| dr.contains(&q.region))
                || d.parent.is_none();
            if !searched {
                return;
            }
            match q.query {
                QueryKind::Point(p) => (
                    "rtree.search_point",
                    black_box(d.tree.search_point(&p)).len(),
                ),
                QueryKind::Window(w) => (
                    "rtree.search_window",
                    black_box(d.tree.search_window(&w)).len(),
                ),
            }
        }
        Payload::KnnLocal { p, k, .. } => {
            ("rtree.nearest", black_box(d.tree.nearest(*p, *k)).len())
        }
        _ => return,
    };
    r.search_ns += spans.close(op_span, name, t);
    r.searches += 1;
    r.hits += hits as u64;
}

/// Encodes, then decodes, every message of one operation (one span each
/// for the batch) and checks the round trip.
fn replay_codec(msgs: &[Message], spans: &mut Spans, op_span: u32, r: &mut OpReplay) {
    if msgs.is_empty() {
        return;
    }
    let t = spans.now_ns();
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode_message).collect();
    r.encode_ns += spans.close(op_span, "wire.encode", t);
    let t = spans.now_ns();
    // The framing layer consumes the 4-byte length prefix before decoding.
    let decoded: Vec<_> = frames
        .iter()
        .map(|f| decode_message(&mut ReadBuf::new(&f[4..])))
        .collect();
    r.decode_ns += spans.close(op_span, "wire.decode", t);
    r.msgs += msgs.len() as u64;
    r.bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
    r.mismatches += msgs
        .iter()
        .zip(decoded)
        .filter(|(m, d)| d.as_ref().ok() != Some(*m))
        .count() as u64;
}
