//! Bounded, deadline-aware retry with deterministic jittered backoff.
//!
//! Every conflicted commit and failed repair in the control plane is a
//! *retry candidate*: the world moved under the decision and a fresh
//! attempt may win. Unbounded retries livelock under sustained overload —
//! the same task is re-proposed forever while new arrivals pile up — so
//! both retry loops in the repo budget their attempts through one
//! [`RetryPolicy`]: the drivers' `RetryDue` re-presentation of an arrival
//! that did not start (the admission gate's policy), and
//! [`crate::reschedule::consider`]'s shed of a running task whose
//! migrations keep losing their commit
//! ([`crate::ReschedulePolicy::retry`]).
//!
//! Backoff is *logical-time* exponential with deterministic jitter: the
//! jitter fraction is a hash of `(task, attempt)`, not a wall-clock RNG,
//! so one seed replays one schedule of retries bit-for-bit — the
//! admission-determinism proptests depend on this.

use flexsched_task::TaskId;

/// Bounded retry/backoff/deadline policy for conflicted decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts before the task is shed (1 = try once, never retry).
    pub max_attempts: u32,
    /// Backoff before retry `2` (the first retry), ns of logical time.
    pub base_backoff_ns: u64,
    /// Ceiling on any single backoff, ns.
    pub max_backoff_ns: u64,
    /// Per-task decision deadline, ns after arrival: once a task has been
    /// in the decision pipeline this long it is shed rather than retried,
    /// whatever its attempt budget says. `u64::MAX` disables the deadline.
    pub deadline_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ns: 1_000_000, // 1 ms
            max_backoff_ns: 64_000_000, // 64 ms
            deadline_ns: 500_000_000,   // 500 ms
        }
    }
}

impl RetryPolicy {
    /// Whether `attempts` tries have exhausted the budget.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts
    }

    /// Whether a decision for a task that arrived at `arrival_ns` has
    /// blown its deadline at logical time `now_ns`.
    pub fn past_deadline(&self, arrival_ns: u64, now_ns: u64) -> bool {
        now_ns.saturating_sub(arrival_ns) > self.deadline_ns
    }

    /// Backoff before attempt `attempt + 1`, given that attempt `attempt`
    /// (1-based) just failed: capped exponential
    /// `min(base · 2^(attempt−1), max)`, then *equal jitter* — half the
    /// span held, half drawn deterministically from `(task, attempt)` —
    /// so synchronised conflicters decorrelate without a wall-clock RNG.
    pub fn backoff_ns(&self, task: TaskId, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_backoff_ns
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ns)
            .max(1);
        let half = raw / 2;
        half + jitter_hash(task.0, attempt) % (raw - half + 1)
    }
}

/// SplitMix64 over `(task, attempt)` — a stateless, deterministic jitter
/// source (same pair, same jitter, on every replay of a seed).
fn jitter_hash(task: u64, attempt: u32) -> u64 {
    let mut z = task
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_is_exact() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(!p.exhausted(0));
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            base_backoff_ns: 1_000,
            max_backoff_ns: 16_000,
            ..RetryPolicy::default()
        };
        let t = TaskId(7);
        // Equal jitter keeps every draw within [raw/2, raw].
        for (attempt, raw) in [(1u32, 1_000u64), (2, 2_000), (3, 4_000), (10, 16_000)] {
            let b = p.backoff_ns(t, attempt);
            assert!(b >= raw / 2 && b <= raw, "attempt {attempt}: {b} vs {raw}");
        }
        // Huge attempt counts must not overflow the shift.
        assert!(p.backoff_ns(t, u32::MAX) <= 16_000);
    }

    #[test]
    fn jitter_is_deterministic_and_decorrelates_tasks() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(TaskId(1), 2), p.backoff_ns(TaskId(1), 2));
        // Two synchronised conflicters should (overwhelmingly) draw
        // different backoffs at the same attempt.
        let distinct: std::collections::BTreeSet<u64> =
            (0..16).map(|t| p.backoff_ns(TaskId(t), 1)).collect();
        assert!(
            distinct.len() > 8,
            "jitter barely decorrelates: {distinct:?}"
        );
    }

    #[test]
    fn deadline_is_relative_to_arrival() {
        let p = RetryPolicy {
            deadline_ns: 100,
            ..RetryPolicy::default()
        };
        assert!(!p.past_deadline(50, 150));
        assert!(p.past_deadline(50, 151));
        // Disabled deadline never trips.
        let off = RetryPolicy {
            deadline_ns: u64::MAX,
            ..RetryPolicy::default()
        };
        assert!(!off.past_deadline(0, u64::MAX));
    }
}
