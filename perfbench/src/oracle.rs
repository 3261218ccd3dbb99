//! The correctness oracle: one centralized R-tree over the same objects.
//!
//! Every query answer of a run is compared with the oracle's, outside the
//! timed region. Point and window answers must hold exactly the expected
//! oids; kNN answers must list the expected distances (oids may differ
//! only among objects at a tied distance).

use crate::workload::{Op, KNN_K};
use sdr_core::Object;
use sdr_geom::{Point, Rect};
use sdr_rtree::{Entry, RTree, RTreeConfig};

/// A centralized index of every object stored so far.
///
/// Inserts are queued and indexed only when the next query is checked,
/// so a run of inserts is not interleaved with the oracle's own work,
/// whose cache traffic would otherwise leak into the inserts' timings.
pub struct Oracle {
    tree: RTree<u64>,
    pending: Vec<Object>,
}

/// Largest difference between an answered and an expected kNN distance
/// (the space is the unit square).
const DIST_TOLERANCE: f64 = 1e-9;

impl Oracle {
    /// An oracle over `objects`.
    pub fn new(objects: &[Object]) -> Oracle {
        let entries = objects.iter().map(|o| Entry::new(o.mbb, o.oid.0)).collect();
        Oracle {
            tree: RTree::bulk_load(RTreeConfig::default(), entries),
            pending: Vec::new(),
        }
    }

    /// Records an inserted object.
    pub fn insert(&mut self, o: &Object) {
        self.pending.push(*o);
    }

    fn flush(&mut self) {
        for o in self.pending.drain(..) {
            self.tree.insert(o.mbb, o.oid.0);
        }
    }

    /// Number of objects the oracle holds.
    pub fn len(&self) -> usize {
        self.tree.len() + self.pending.len()
    }

    /// Whether the oracle holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `got` is exactly the set of objects containing `p`.
    pub fn point_ok(&mut self, p: &Point, got: &[Object]) -> bool {
        self.flush();
        same_oids(got, self.tree.search_point(p).into_iter().map(|e| e.item))
    }

    /// Whether `got` is exactly the set of objects intersecting `w`.
    pub fn window_ok(&mut self, w: &Rect, got: &[Object]) -> bool {
        self.flush();
        same_oids(got, self.tree.search_window(w).into_iter().map(|e| e.item))
    }

    /// Whether `got` (ascending distances) are the `k` nearest distances.
    pub fn knn_ok(&mut self, p: Point, k: usize, got: &[f64]) -> bool {
        self.flush();
        let want: Vec<f64> = self
            .tree
            .nearest(p, k)
            .into_iter()
            .map(|(e, _)| e.rect.min_dist(&p))
            .collect();
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(a, b)| (a - b).abs() <= DIST_TOLERANCE)
    }
}

fn same_oids(got: &[Object], want: impl Iterator<Item = u64>) -> bool {
    let mut want: Vec<u64> = want.collect();
    let mut got: Vec<u64> = got.iter().map(|o| o.oid.0).collect();
    want.sort_unstable();
    got.sort_unstable();
    want == got
}

/// What an operation returned.
#[derive(Clone, Debug)]
pub enum Answer {
    /// An insert completed.
    Stored,
    /// Point or window query results.
    Objects(Vec<Object>),
    /// kNN distances, nearest first.
    Dists(Vec<f64>),
}

/// Checks `answer` to `op` against the oracle, and books an insert in it.
pub fn check(oracle: &mut Oracle, op: &Op, answer: &Answer) -> bool {
    match (op, answer) {
        (Op::Insert(o), Answer::Stored) => {
            oracle.insert(o);
            true
        }
        (Op::Point(p), Answer::Objects(got)) => oracle.point_ok(p, got),
        (Op::Window(w), Answer::Objects(got)) => oracle.window_ok(w, got),
        (Op::Knn(p), Answer::Dists(got)) => oracle.knn_ok(*p, KNN_K, got),
        _ => false,
    }
}
