//! Admission control: the single gate in front of the propose/commit
//! pipeline.
//!
//! Production overload is a *service-level* problem, not a throughput
//! problem: under a 2–10× arrival storm the control plane must keep
//! serving its [`Critical`](ServiceClass::Critical) tenants at baseline
//! quality while [`Standard`](ServiceClass::Standard) degrades gracefully
//! and [`BestEffort`](ServiceClass::BestEffort) absorbs the shedding.
//! Three mechanisms compose, all in logical time and fully deterministic:
//!
//! * **Per-class token buckets** meter each class's admission rate; a
//!   drained bucket sheds the arrival with a typed
//!   [`Verdict::Shed`]`{ retry_after_ns }` telling the caller when the
//!   next token lands.
//! * **Watermarks** trip the controller into *degraded mode* with
//!   hysteresis: queue depth rising past
//!   [`AdmissionConfig::queue_high`] (or the optional decision-latency
//!   EWMA past its high mark) enters degradation; it exits only when the
//!   queue drains below [`AdmissionConfig::queue_low`] (and latency below
//!   its low mark) — no flapping at the boundary.
//! * **The degradation ladder**: degraded mode keeps admitting Critical
//!   at full decision quality, downgrades Standard to the cheap
//!   fixed-tree scheduler via [`Verdict::Degrade`], and sheds BestEffort
//!   outright, to re-present after 10 ms.
//!
//! This module is the gate and nothing else: it never proposes or
//! commits. What happens to an arrival it turned away, or let in and that
//! then found nothing feasible, is the driver's business — the testbed
//! re-presents it as a `RetryDue` event under
//! [`AdmissionConfig::retry`]'s budget, backoff and decision deadline
//! (`ControlPlane::handle_arrival` in `event_testbed`).

use flexsched_sched::RetryPolicy;
use flexsched_task::ServiceClass;

/// Typed admission decision for one arriving task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admit at full decision quality (the configured scheduler).
    Admit,
    /// Admit, but route the decision through the cheap degraded path:
    /// fixed shortest-path trees, the only thing degraded mode changes.
    Degrade,
    /// Turn the task away. `retry_after_ns` is the earliest logical time
    /// offset at which re-presenting it can succeed (the next token, or
    /// a fixed 10 ms for watermark sheds).
    Shed {
        /// Suggested logical-time backoff before re-presenting, ns.
        retry_after_ns: u64,
    },
}

/// Token-bucket parameters for one service class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassBucket {
    /// Sustained admission rate, tasks per second of logical time.
    pub rate_per_sec: f64,
    /// Burst capacity, tasks (the bucket's depth; also its initial fill).
    pub burst: f64,
}

/// Admission-gate configuration. The default is permissive — no buckets,
/// a deep queue watermark, latency watermarks off — so wiring the gate in
/// changes nothing until a scenario opts into limits.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-class token buckets, indexed by [`ServiceClass::index`].
    /// `None` = unmetered. Critical defaults to unmetered: its protection
    /// is capacity planning, not the gate.
    pub buckets: [Option<ClassBucket>; 3],
    /// Queue depth (tasks waiting for a decision) at which the controller
    /// enters degraded mode.
    pub queue_high: usize,
    /// Queue depth at which a degraded controller recovers. Must be
    /// `≤ queue_high`; the gap is the hysteresis band.
    pub queue_low: usize,
    /// Optional decision-latency watermarks `(high_ns, low_ns)` over an
    /// EWMA of observed decision latencies. `None` (default) keeps the
    /// gate a pure function of logical queue depth — the deterministic
    /// mode the admission proptests pin. Enabling it trades determinism
    /// for wall-clock responsiveness.
    pub latency_marks_ns: Option<(u64, u64)>,
    /// Retry budget the driver applies to every arrival that does not
    /// start — shed here, blocked in propose or rejected at commit: it
    /// comes back as a `RetryDue` event after the verdict's
    /// `retry_after_ns` or [`RetryPolicy::backoff_ns`], until
    /// `max_attempts` or `deadline_ns` sheds it for good (pinned by
    /// `tests/driver_retry_proptests.rs`).
    pub retry: RetryPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            buckets: [None, None, None],
            queue_high: 64,
            queue_low: 16,
            latency_marks_ns: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl AdmissionConfig {
    /// Meter one class (replacing its current bucket).
    pub fn with_bucket(mut self, class: ServiceClass, bucket: ClassBucket) -> Self {
        self.buckets[class.index()] = Some(bucket);
        self
    }
}

/// Lifetime per-class verdict counters, indexed by
/// [`ServiceClass::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// `Admit` verdicts per class.
    pub admitted: [u64; 3],
    /// `Degrade` verdicts per class.
    pub degraded: [u64; 3],
    /// `Shed` verdicts per class.
    pub shed: [u64; 3],
}

/// The admission gate: token buckets + watermark hysteresis + the
/// degradation ladder. One controller fronts one decision pipeline; all
/// its state advances in the caller's logical clock, so one seed replays
/// one verdict sequence bit-for-bit (pinned by proptest).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Current fill per class bucket (capped at `burst`).
    tokens: [f64; 3],
    /// Logical time of the last refill per class, ns.
    refilled_at_ns: [u64; 3],
    degraded: bool,
    latency_ewma_ns: f64,
    stats: AdmissionStats,
}

/// `retry_after_ns` handed out for watermark (non-bucket) sheds: 10 ms.
const SHED_RETRY_AFTER_NS: u64 = 10_000_000;

/// EWMA smoothing factor for observed decision latencies.
const LATENCY_ALPHA: f64 = 0.2;

impl AdmissionController {
    /// A controller with full buckets at logical time zero.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(
            cfg.queue_low <= cfg.queue_high,
            "hysteresis inverted: queue_low {} > queue_high {}",
            cfg.queue_low,
            cfg.queue_high
        );
        let tokens = std::array::from_fn(|i| cfg.buckets[i].map_or(0.0, |b| b.burst));
        AdmissionController {
            cfg,
            tokens,
            refilled_at_ns: [0; 3],
            degraded: false,
            latency_ewma_ns: 0.0,
            stats: AdmissionStats::default(),
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Whether the controller is currently in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Lifetime verdict counters.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// Feed one observed decision latency into the EWMA behind the
    /// optional latency watermarks. A no-op signal when
    /// [`AdmissionConfig::latency_marks_ns`] is `None`.
    pub fn observe_decision_latency(&mut self, latency_ns: u64) {
        self.latency_ewma_ns = if self.latency_ewma_ns == 0.0 {
            latency_ns as f64
        } else {
            LATENCY_ALPHA * latency_ns as f64 + (1.0 - LATENCY_ALPHA) * self.latency_ewma_ns
        };
    }

    fn refill(&mut self, class: usize, now_ns: u64) {
        if let Some(bucket) = &self.cfg.buckets[class] {
            let dt_ns = now_ns.saturating_sub(self.refilled_at_ns[class]);
            self.tokens[class] =
                (self.tokens[class] + dt_ns as f64 * bucket.rate_per_sec / 1e9).min(bucket.burst);
            self.refilled_at_ns[class] = now_ns;
        }
    }

    fn update_degraded(&mut self, queue_depth: usize) {
        let (lat_high, lat_low) = match self.cfg.latency_marks_ns {
            Some((h, l)) => (h as f64, l as f64),
            None => (f64::INFINITY, f64::INFINITY),
        };
        if self.degraded {
            if queue_depth <= self.cfg.queue_low && self.latency_ewma_ns <= lat_low {
                self.degraded = false;
            }
        } else if queue_depth >= self.cfg.queue_high || self.latency_ewma_ns >= lat_high {
            self.degraded = true;
        }
    }

    /// Decide the fate of one arriving task of `class` at logical time
    /// `now_ns`, with `queue_depth` tasks currently waiting for a
    /// decision (the caller's pending count, *excluding* this arrival).
    pub fn decide(&mut self, class: ServiceClass, now_ns: u64, queue_depth: usize) -> Verdict {
        self.update_degraded(queue_depth);
        let i = class.index();
        // Ladder rung 1: a degraded controller sheds BestEffort before
        // spending any of its tokens.
        if self.degraded && class == ServiceClass::BestEffort {
            self.stats.shed[i] += 1;
            return Verdict::Shed {
                retry_after_ns: SHED_RETRY_AFTER_NS,
            };
        }
        // Rung 2: the class token bucket. Critical is unmetered by
        // default; a configured bucket meters any class.
        self.refill(i, now_ns);
        if let Some(bucket) = &self.cfg.buckets[i] {
            if self.tokens[i] < 1.0 {
                self.stats.shed[i] += 1;
                let deficit = 1.0 - self.tokens[i];
                let retry_after_ns = (deficit / bucket.rate_per_sec * 1e9).ceil() as u64;
                return Verdict::Shed {
                    retry_after_ns: retry_after_ns.max(1),
                };
            }
            self.tokens[i] -= 1.0;
        }
        // Rung 3: degraded mode downgrades everything non-critical that
        // survived the shed rungs; Critical always keeps full quality.
        if self.degraded && class != ServiceClass::Critical {
            self.stats.degraded[i] += 1;
            Verdict::Degrade
        } else {
            self.stats.admitted[i] += 1;
            Verdict::Admit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metered(rate_per_sec: f64, burst: f64) -> AdmissionConfig {
        AdmissionConfig::default()
            .with_bucket(
                ServiceClass::Standard,
                ClassBucket {
                    rate_per_sec,
                    burst,
                },
            )
            .with_bucket(
                ServiceClass::BestEffort,
                ClassBucket {
                    rate_per_sec,
                    burst,
                },
            )
    }

    #[test]
    fn unmetered_idle_gate_admits_everything() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        for class in ServiceClass::ALL {
            assert_eq!(c.decide(class, 0, 0), Verdict::Admit);
        }
        assert_eq!(c.stats().admitted, [1, 1, 1]);
        assert!(!c.is_degraded());
    }

    #[test]
    fn bucket_sheds_burst_overflow_and_refills() {
        let mut c = AdmissionController::new(metered(1000.0, 2.0));
        // Burst of 2 admits, third sheds with the token ETA.
        assert_eq!(c.decide(ServiceClass::Standard, 0, 0), Verdict::Admit);
        assert_eq!(c.decide(ServiceClass::Standard, 0, 0), Verdict::Admit);
        let v = c.decide(ServiceClass::Standard, 0, 0);
        let Verdict::Shed { retry_after_ns } = v else {
            panic!("drained bucket must shed, got {v:?}");
        };
        // 1000/s = 1 token per ms.
        assert_eq!(retry_after_ns, 1_000_000);
        // Waiting out the ETA admits again.
        assert_eq!(
            c.decide(ServiceClass::Standard, retry_after_ns, 0),
            Verdict::Admit
        );
    }

    #[test]
    fn critical_is_unmetered_by_default() {
        let mut c = AdmissionController::new(metered(0.001, 1.0));
        for t in 0..50 {
            assert_eq!(c.decide(ServiceClass::Critical, t, 0), Verdict::Admit);
        }
    }

    #[test]
    fn watermarks_trip_and_recover_with_hysteresis() {
        let cfg = AdmissionConfig {
            queue_high: 10,
            queue_low: 2,
            ..AdmissionConfig::default()
        };
        let mut c = AdmissionController::new(cfg);
        assert_eq!(c.decide(ServiceClass::Standard, 0, 9), Verdict::Admit);
        // Depth 10 trips degradation: Standard degrades, BestEffort sheds,
        // Critical keeps full quality.
        assert_eq!(c.decide(ServiceClass::Standard, 1, 10), Verdict::Degrade);
        assert_eq!(c.decide(ServiceClass::Critical, 2, 10), Verdict::Admit);
        assert!(matches!(
            c.decide(ServiceClass::BestEffort, 3, 10),
            Verdict::Shed { .. }
        ));
        // Inside the hysteresis band the gate stays degraded...
        assert_eq!(c.decide(ServiceClass::Standard, 4, 5), Verdict::Degrade);
        assert!(c.is_degraded());
        // ...and recovers only once the queue drains to the low mark.
        assert_eq!(c.decide(ServiceClass::Standard, 5, 2), Verdict::Admit);
        assert!(!c.is_degraded());
    }

    #[test]
    fn latency_watermarks_default_off() {
        let mut c = AdmissionController::new(AdmissionConfig {
            queue_high: 1_000,
            ..AdmissionConfig::default()
        });
        c.observe_decision_latency(u64::MAX / 2);
        assert_eq!(c.decide(ServiceClass::Standard, 0, 0), Verdict::Admit);
        assert!(!c.is_degraded());
    }

    #[test]
    fn latency_watermarks_trip_when_enabled() {
        let mut c = AdmissionController::new(AdmissionConfig {
            latency_marks_ns: Some((1_000, 100)),
            ..AdmissionConfig::default()
        });
        for _ in 0..20 {
            c.observe_decision_latency(10_000);
        }
        assert_eq!(c.decide(ServiceClass::Standard, 0, 0), Verdict::Degrade);
        for _ in 0..60 {
            c.observe_decision_latency(1);
        }
        assert_eq!(c.decide(ServiceClass::Standard, 1, 0), Verdict::Admit);
    }

    #[test]
    fn verdict_sequence_is_deterministic() {
        let run = || {
            let mut c = AdmissionController::new(metered(500.0, 3.0));
            let mut verdicts = Vec::new();
            for i in 0u64..200 {
                let class = ServiceClass::ALL[(i % 3) as usize];
                let depth = (i % 80) as usize;
                verdicts.push(c.decide(class, i * 700_000, depth));
            }
            (verdicts, c.stats().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_account_for_every_arrival() {
        let mut c = AdmissionController::new(metered(100.0, 1.0));
        for i in 0..30u64 {
            let _ = c.decide(ServiceClass::ALL[(i % 3) as usize], i * 1_000, i as usize);
        }
        let s = c.stats();
        let total: u64 = s.admitted.iter().chain(&s.degraded).chain(&s.shed).sum();
        assert_eq!(total, 30);
    }
}
