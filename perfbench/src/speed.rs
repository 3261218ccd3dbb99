//! The machine-speed reference of the simulator workloads.
//!
//! The benchmark machine shares its cores with other tenants, and its
//! speed for the simulator's kind of work — branchy code that walks
//! pointers through heap data — drifts by a quarter and more over
//! minutes, for tens of seconds at a time. Two runs of the same code a
//! few minutes apart then differ by more than any regression bound, and
//! no statistic over one run's samples can tell a slow machine from slow
//! code. So the simulator workloads time a fixed reference task,
//! [`Reference`], between their measured operations and before each
//! set-up (outside every timed interval) and report their times at the
//! reference speed: each time is multiplied by [`REFERENCE_NS`] over the
//! median time of the task in the same phase (see
//! [`crate::report::Tally::scale`]).
//!
//! The task is the benchmark's own std-only code, so a change to the
//! program cannot change it, and it allocates nothing while timed. It
//! sorts a copy of 50,000 fixed keys in a preallocated buffer (branchy
//! work in the core's caches) and looks up 4,096 fixed keys in a fixed
//! `BTreeMap` of 2^20 entries (pointer chasing through memory), the two
//! kinds of work a simulated operation consists of. `README.md` gives the
//! tasks tried and how well each followed the drift. `tcp-mixed` takes
//! no reference: its operations wait on the transport's sleeps and
//! polls, which do not slow with the machine.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference task's time at the reference speed: its median on the
/// reference machine (2 vCPU Intel Xeon at 2.0 GHz) in a quiet stretch.
pub const REFERENCE_NS: f64 = 4_000_000.0;

/// Operations between two timings of the reference task, so it samples
/// the machine throughout the measured phase at ~4 % of its time.
pub const OPS_PER_SAMPLE: usize = 2_000;

/// Entries of the lookup map.
const MAP_ENTRIES: u64 = 1 << 20;
/// Keys sorted per task.
const SORT_KEYS: usize = 50_000;
/// Lookups per task.
const LOOKUPS: usize = 4_096;

/// The reference task.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    buf: Vec<u64>,
}

/// A fixed stream of pseudo-random keys (xorshift64).
fn keys(n: usize, mut x: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Builds the task's data; nothing of this is timed.
    pub fn new() -> Reference {
        let spread = u64::MAX / MAP_ENTRIES;
        let keys = keys(SORT_KEYS.max(LOOKUPS), 0x2545_F491_4F6C_DD1D);
        Reference {
            map: (0..MAP_ENTRIES).map(|i| (i * spread, i)).collect(),
            buf: Vec::with_capacity(keys.len()),
            keys,
        }
    }

    /// Runs the task once; returns its duration in ns.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.buf.clear();
        self.buf.extend_from_slice(&self.keys[..SORT_KEYS]);
        self.buf.sort_unstable();
        let mut hits = self.buf[SORT_KEYS / 2];
        for k in &self.keys[..LOOKUPS] {
            if let Some((_, v)) = self.map.range(k..).next() {
                hits ^= v;
            }
        }
        black_box(hits);
        t.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_task_does_fixed_work() {
        let mut r = Reference::new();
        assert!(r.sample() > 0.0);
        let sorted = r.buf.clone();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        r.sample();
        assert_eq!(r.buf, sorted);
    }
}
