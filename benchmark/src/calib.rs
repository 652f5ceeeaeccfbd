//! The host-speed calibrator: a fixed kernel of benchmark-owned work that
//! the end-to-end run interleaves with the timed repeats.
//!
//! The reference host is a few virtual cores of a shared machine, and the
//! neighbours' load slows *all* user code by a factor that wanders between
//! 1.0 and 1.9 over seconds to minutes (the same 0.28 s scenario, 1 500
//! times in 14 minutes: median 1.35x its best, and whole 45 s stretches
//! with no sample under 1.19x). No statistic of the repeats alone — best,
//! median, quartile — survives that: a run cannot tell a slow program from
//! a slow minute. The kernel can: it is the same work on every commit, so
//! how long it took *during this run* is the host's speed during this run,
//! and `tasks_per_s` is rescaled by it (see [`Calibrator::slowdown`]).
//!
//! The kernel is three short pieces shaped like the simulator's own code —
//! a hash map churned, small vectors allocated and dropped, a B-tree
//! churned — because the slowdown is not the same for all code: a single
//! dependent register chain hardly notices it (1.03x when the workloads see
//! 1.3x), independent integer chains and a Dijkstra over a small graph see
//! two thirds of what the workloads see, allocator- and pointer-heavy code
//! sees what they see. Probed beside each workload for 5-9 minutes and
//! compared over 30 s windows, each workload's slowdown was this mix's to
//! the power 0.9-1.1 (a perfect stand-in gives 1.0), and the rate rescaled
//! by it scattered by 1-3 % (standard deviation) while the raw rate moved
//! by 10-52 %. Its working set is under 1 MiB so that `peak_rss_mib` stays
//! the workload's own.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// What one [`Calibrator::unit`] takes on the undisturbed reference host,
/// ns: over 80 runs (24 000 units) a run's fastest unit took 8.6-8.8 ms.
/// `tasks_per_s` is scaled to a host on which the kernel runs at this
/// speed.
pub const REFERENCE_UNIT_NS: f64 = 8_700_000.0;

/// A unit that took longer than this many times the run's median unit is a
/// stall (the virtual core was descheduled), not the host's speed; it counts
/// as this many medians. A stall falls on the timed repeats as often as on
/// the kernel, but the kernel's sample is a tenth of theirs, so one stall
/// in it would move the ratio by several per cent.
const STALL_CAP: f64 = 3.0;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fixed kernel and the times its units took.
pub struct Calibrator {
    /// Checksum of the first unit; every later unit must reproduce it.
    checksum: Option<u64>,
    /// Wall time of every unit run so far, ns.
    units_ns: Vec<f64>,
}

impl Calibrator {
    /// A calibrator that has run one unrecorded unit, so that the allocator
    /// and the caches have seen the kernel before a unit counts.
    pub fn new() -> Self {
        let mut calibrator = Calibrator {
            checksum: None,
            units_ns: Vec::with_capacity(4096),
        };
        calibrator.unit();
        calibrator.units_ns.clear();
        calibrator
    }

    /// Run one unit of the kernel, record and return its wall time in ns.
    ///
    /// # Panics
    /// Panics if the unit's checksum differs from the first unit's: the
    /// kernel must be the same work every time.
    pub fn unit(&mut self) -> f64 {
        let start = Instant::now();
        let sum = hash_churn() ^ vector_churn() ^ btree_churn();
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(
            *self.checksum.get_or_insert(sum),
            sum,
            "calibration kernel is not deterministic"
        );
        self.units_ns.push(ns);
        ns
    }

    /// Total wall time spent in the kernel so far, ns.
    pub fn total_ns(&self) -> f64 {
        self.units_ns.iter().sum()
    }

    /// Units run so far.
    pub fn units(&self) -> usize {
        self.units_ns.len()
    }

    /// Fastest unit so far, ns.
    pub fn fastest_ns(&self) -> f64 {
        self.units_ns.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median unit time, ns (`host.calib_ns`).
    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&self.units_ns)
    }

    /// Mean unit time with stalls capped at [`STALL_CAP`] medians, ns.
    pub fn mean_ns(&self) -> f64 {
        capped_mean(&self.units_ns)
    }

    /// How much slower than on the undisturbed reference host the kernel
    /// ran, on average, over this run: the factor the measured rate is
    /// multiplied by.
    pub fn slowdown(&self) -> f64 {
        self.mean_ns() / REFERENCE_UNIT_NS
    }
}

/// Mean of `values` with each value capped at [`STALL_CAP`] medians.
fn capped_mean(values: &[f64]) -> f64 {
    let cap = STALL_CAP * crate::stats::median(values);
    values.iter().map(|v| v.min(cap)).sum::<f64>() / values.len() as f64
}

/// A hash map filled, read and emptied (fixed hasher: same probes always).
fn hash_churn() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut sum = 0u64;
    for round in 0..16u64 {
        let key = |i: u64| i.wrapping_mul(GOLDEN) ^ round;
        for i in 0..4096 {
            map.insert(key(i), i);
        }
        for i in 0..4096 {
            sum = sum.wrapping_add(map[&key(i)]);
        }
        for i in 0..4096 {
            map.remove(&key(i));
        }
    }
    sum
}

/// Small vectors allocated and dropped, 512 alive at a time.
fn vector_churn() -> u64 {
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(512);
    let mut sum = 0u64;
    for i in 0..120_000u64 {
        let v = vec![i; 3 + (i % 13) as usize];
        sum = sum.wrapping_add(v[0]);
        if live.len() < 512 {
            live.push(v);
        } else {
            live[(i.wrapping_mul(2_654_435_761) % 512) as usize] = v;
        }
    }
    sum.wrapping_add(live.len() as u64)
}

/// A B-tree filled, scanned and emptied.
fn btree_churn() -> u64 {
    let mut map = BTreeMap::new();
    let mut sum = 0u64;
    for round in 0..5u64 {
        let key = |i: u64| i.wrapping_mul(GOLDEN) ^ round;
        for i in 0..4096 {
            map.insert(key(i), i);
        }
        for (k, v) in map.range(..u64::MAX / 2) {
            sum = sum.wrapping_add(k ^ v);
        }
        for i in 0..4096 {
            map.remove(&key(i));
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_repeat_the_same_work_and_are_recorded() {
        let mut c = Calibrator::new();
        let first = c.unit();
        c.unit();
        assert!(first > 0.0);
        assert_eq!(c.units(), 2);
        assert!((c.total_ns() - c.units_ns.iter().sum::<f64>()).abs() < 1e-9);
        // A second calibrator does the same work: same checksum.
        let mut d = Calibrator::new();
        d.unit();
        assert_eq!(c.checksum, d.checksum);
    }

    #[test]
    fn stalls_are_capped_at_three_medians() {
        assert_eq!(capped_mean(&[10.0, 10.0, 10.0, 10.0]), 10.0);
        // One 100x stall among five units counts as 3 medians.
        assert_eq!(capped_mean(&[10.0, 10.0, 1000.0, 10.0, 10.0]), 14.0);
        // Ordinary slowness is kept whole.
        assert_eq!(capped_mean(&[10.0, 20.0, 12.0]), 14.0);
    }
}
