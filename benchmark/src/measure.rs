//! The two kinds of run: the end-to-end run (`--trace 0`, tracing off) and
//! the traced run (`--trace 1`, per-layer metrics).

use crate::calib::Calibrator;
use crate::harness::{build, build_timed, Digest};
use crate::layers::{closure_stats, reset_closure_stats};
use crate::replay::{DagReplay, MonoReplay, ReplayRun};
use crate::stats::{median, p50, tail_percentile};
use crate::trace::{self, Layer, Tracer};
use crate::workloads::{Scenario, Workload};
use std::time::Instant;

/// Scenario instances one run cycles through. A run at `--seed n` measures
/// the `SUBSEEDS` scenarios seeded `n * SUBSEEDS + k`: the host rate is
/// taken over every repeat, simulated metrics are the mean over the first
/// cycle. Pooling 32 instances cuts the seed-to-seed spread of the
/// simulated metrics (which on the small workloads is sampling noise of
/// 250 tasks or 10 jobs) by about 5.7x, and the first cycle is the same
/// whatever the host's speed, so they still repeat bit-exactly per seed.
pub const SUBSEEDS: u64 = 32;

/// Share of the timed repeats' wall that the calibration kernel is given,
/// spread between the repeats (see [`crate::calib`]).
const CALIB_SHARE: f64 = 0.10;

/// Kernel units run before the first repeat, so that the start of the run
/// is calibrated too.
const CALIB_LEAD_UNITS: usize = 8;

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Alternating repeats behind each best wall time in the traced run.
const TRACE_REPEATS: usize = 3;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    /// Arrivals offered over every measured repeat.
    pub attempted: u64,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The scenario seed of sub-seed `k` of run seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(k)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn mean_of(digests: &[Digest], f: impl Fn(&Digest) -> f64) -> f64 {
    digests.iter().map(f).sum::<f64>() / digests.len() as f64
}

/// The end-to-end run: set-up samples, then repeats of the real driver for
/// `seconds` (and at least one cycle of sub-seeds), tracing off.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let full = |k: u64| Scenario::full(workload, sub_seed(seed, k));

    // Set-up: topology, Database and driver construction for one repeat,
    // plus one warm-up run of two fifths of a repeat (caches, allocator
    // and lazy set-up settle before anything is timed).
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut ready = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let driver = build(full(0))?;
        build(Scenario::warmup(workload, sub_seed(seed, 0)))?.run()?;
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(driver);
    }

    // The kernel shares the measured time with the repeats: some units
    // ahead of the first repeat, then after every repeat as many as keep
    // its share of the wall at `CALIB_SHARE`.
    let mut calib = Calibrator::new();
    let measure = Instant::now();
    for _ in 0..CALIB_LEAD_UNITS {
        calib.unit();
    }
    let mut cycle: Vec<Digest> = Vec::with_capacity(SUBSEEDS as usize);
    let mut rates = Vec::new();
    let (mut attempted, mut units, mut wall_s) = (0u64, 0u64, 0.0f64);
    let mut repeat = 0u64;
    while repeat < SUBSEEDS || measure.elapsed().as_secs_f64() < seconds {
        let k = repeat % SUBSEEDS;
        let driver = match ready.take() {
            Some(d) => d,
            None => build(full(k))?,
        };
        let (digest, wall) = driver.run()?;
        rates.push(digest.units as f64 / wall);
        attempted += digest.offered;
        units += digest.units;
        wall_s += wall;
        while calib.total_ns() < CALIB_SHARE * wall_s * 1e9 {
            calib.unit();
        }
        match cycle.get(k as usize) {
            // Same seed, same trajectory: a later cycle must reproduce the
            // first one's fingerprint.
            Some(first) if first.fingerprint != digest.fingerprint => {
                return Err(format!(
                    "{}: repeat {repeat} (sub-seed {k}) fingerprint {:#018x} != first cycle's {:#018x}",
                    workload.name(),
                    digest.fingerprint,
                    first.fingerprint
                ));
            }
            Some(_) => {}
            None => cycle.push(digest),
        }
        repeat += 1;
    }
    let rss = peak_rss_mib()?;

    let offered: u64 = cycle.iter().map(|d| d.offered).sum();
    let completed: u64 = cycle.iter().map(|d| d.completed).sum();
    let events: u64 = cycle.iter().map(|d| d.events).sum();
    let samples: u64 = cycle.iter().map(|d| d.sojourn_samples).sum();
    // Units over wall, across every repeat, is what the simulator did on
    // this host in this half minute; multiplied by how much slower than on
    // the undisturbed reference host the calibration kernel ran meanwhile,
    // it is what the simulator does on that host. Over ten seeds in a
    // middling hour the raw rate spread by 3.6-5.3 % on the four workloads
    // and the calibrated rate by 1.5-2.4 %; replaying estimators over a
    // bad quarter of an hour of recorded repeat and kernel times, the raw
    // rate spread by 16 %, the best repeat by 10 %, the calibrated rate by
    // 2.7 %.
    let raw = units as f64 / wall_s;
    let slowdown = calib.slowdown();
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    let fingerprint = cycle
        .iter()
        .fold(crate::stats::Fnv::default(), |mut h, d| {
            h.fold(d.fingerprint);
            h
        })
        .finish();
    let notes = vec![
        format!(
            "{} seed {seed}: {repeat} repeats over {SUBSEEDS} sub-seeds in {:.1} s, fingerprint {fingerprint:#018x}",
            workload.name(),
            measure.elapsed().as_secs_f64()
        ),
        format!(
            "tasks_per_s = raw {raw:.1} ({units} units in {wall_s:.2} s of repeats) x host slowdown {slowdown:.4}"
        ),
        format!(
            "calibration: {} units, {:.2} s, capped mean {:.3} ms, median {:.3} ms, fastest {:.3} ms, reference {:.3} ms",
            calib.units(),
            calib.total_ns() / 1e9,
            calib.mean_ns() / 1e6,
            calib.median_ns() / 1e6,
            calib.fastest_ns() / 1e6,
            crate::calib::REFERENCE_UNIT_NS / 1e6
        ),
        format!(
            "per-repeat raw rates: best {hi:.1}, median {:.1}, worst {lo:.1}: {rates:.1?}",
            median(&rates)
        ),
        format!("setup_s samples {setup_s:.3?}"),
        format!(
            "first cycle: offered {offered}, completed {completed}, blocked {}, shed {}, events {events}, sojourn samples {samples}",
            cycle.iter().map(|d| d.blocked).sum::<u64>(),
            cycle.iter().map(|d| d.shed).sum::<u64>(),
        ),
    ];
    let metrics = vec![
        metric("tasks_per_s", raw * slowdown, "1/s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mib", rss, "MiB"),
        metric(
            "sojourn_p50_ms",
            mean_of(&cycle, |d| d.sojourn_p50_ns as f64 / 1e6),
            "ms",
        ),
        metric(
            "sojourn_p99_ms",
            mean_of(&cycle, |d| d.sojourn_p99_ns as f64 / 1e6),
            "ms",
        ),
        metric("completed_frac", completed as f64 / offered as f64, "ratio"),
        metric(
            "task_bw_gbps_mean",
            mean_of(&cycle, |d| d.task_bw_gbps_mean),
            "Gbit/s",
        ),
        metric(
            "iteration_ms_mean",
            mean_of(&cycle, |d| d.iteration_ms_mean),
            "ms",
        ),
    ];
    Ok(Report {
        attempted,
        notes,
        metrics,
    })
}

fn replay(scn: Scenario) -> Result<ReplayRun, String> {
    if scn.workload.is_dag() {
        DagReplay::run(scn)
    } else {
        MonoReplay::run(scn)
    }
}

/// The traced run: per-layer metrics from the pipeline replay (spans
/// around every layer call), the in-situ scheduler spans inside the real
/// driver, and the bookkeeping rows that say how far to trust them.
pub fn traced(workload: Workload, seed: u64) -> Result<Report, String> {
    let scn = Scenario::traced(workload, sub_seed(seed, 0));
    let mut calib = Calibrator::new();
    calib.unit();
    trace::with(|t| t.reset(false));

    build(Scenario::warmup(workload, scn.seed))?.run()?;

    // In situ: the real driver with the span-recording scheduler wrapper.
    reset_closure_stats();
    trace::with(|t| t.reset(true));
    let (insitu, _) = build_timed(scn)?.run()?;
    let (insitu_propose, insitu_repair, closure) = trace::with(|t| {
        (
            t.agg(Layer::SchedPropose),
            t.agg(Layer::SchedProposeRepair),
            closure_stats(),
        )
    });
    trace::with(|t| t.reset(false));
    calib.unit();

    // Alternate the untraced real driver (the wall the replay's layers
    // must add up to), the untraced replay and the traced replay, so that
    // a slow stretch of the host falls on all three, and keep the best
    // wall of each: host noise only ever adds time.
    let mut walls = [f64::MAX; 3];
    let mut last = None;
    for _ in 0..TRACE_REPEATS {
        let (real, driver_wall) = build(scn)?.run()?;
        walls[0] = walls[0].min(driver_wall);
        walls[1] = walls[1].min(replay(scn)?.wall_s);
        trace::with(|t| t.reset(true));
        let run = replay(scn)?;
        trace::with(Tracer::stop);
        walls[2] = walls[2].min(run.wall_s);
        last = Some((real, run));
        calib.unit();
    }
    let (real, run) = last.expect("TRACE_REPEATS > 0");
    let [driver_wall, replay_wall, traced_wall] = walls;
    if insitu.fingerprint != real.fingerprint {
        return Err(format!(
            "{}: the timed scheduler changed the real driver's trajectory",
            workload.name()
        ));
    }

    let mut notes = Vec::new();
    let mismatch = mismatch(&real, &run.digest);
    if let Some(what) = &mismatch {
        // The replay is a port of the driver; on the steady workload it
        // must follow it exactly. Elsewhere a divergence is reported, and
        // the layer rows then describe the replay's trajectory.
        if workload == Workload::MetroSteady {
            return Err(format!(
                "{}: replay diverged from the real driver: {what}",
                workload.name()
            ));
        }
        notes.push(format!(
            "WARNING: replay diverged from the real driver: {what}"
        ));
    } else {
        notes.push("replay digest equals the real driver's".to_string());
    }

    let out = std::path::Path::new("benchmark/out").join(format!("{}.trace.json", workload.name()));
    let mut metrics = Vec::new();
    trace::with(|t| -> Result<(), String> {
        t.write_json(&out)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        notes.push(format!(
            "{} spans written to {} (cap {})",
            t.spans().len(),
            out.display(),
            trace::SPAN_CAP
        ));
        layer_rows(t, run.wall_s, &mut notes, &mut metrics);
        let decisions = t.durations_sorted(Layer::Decision);
        let (label, tail_ns) = tail_percentile(&decisions);
        notes.push(format!(
            "pipeline.decision: p50 {:.2} us, {label} {:.2} us over {} attempts",
            p50(&decisions) as f64 / 1e3,
            tail_ns as f64 / 1e3,
            decisions.len()
        ));
        let covered = run.covered_s;
        metrics.extend([
            metric(
                "sched.propose.insitu_ms",
                insitu_propose.self_ns as f64 / 1e6,
                "ms",
            ),
            metric("topo.closure.hit", closure.hits as f64, "count"),
            metric("topo.closure.repair", closure.repairs as f64, "count"),
            metric("topo.closure.full", closure.full_solves as f64, "count"),
            metric("topo.closure.fallback", closure.fallbacks as f64, "count"),
            metric("optical.groom.reuse_hits", real.groom.0 as f64, "count"),
            metric("optical.groom.new_lights", real.groom.1 as f64, "count"),
            metric("orchestrator.driver.retries", real.retries as f64, "count"),
            metric(
                "orchestrator.driver.degraded",
                real.degraded as f64,
                "count",
            ),
            metric(
                "sched.reschedule.migrations",
                real.reschedules as f64,
                "count",
            ),
            metric("sched.repair.repairs", real.repairs as f64, "count"),
            metric("simcore.engine.events", real.events as f64, "count"),
            metric(
                "simcore.engine.peak_pending",
                run.peak_pending as f64,
                "count",
            ),
            metric(
                "pipeline.events_per_task",
                real.events as f64 / real.units as f64,
                "count",
            ),
            metric(
                "pipeline.decision_p50_us",
                p50(&decisions) as f64 / 1e3,
                "us",
            ),
            metric("pipeline.decision_p99_us", tail_ns as f64 / 1e3, "us"),
            metric(
                "dag.cp_inflation_p99",
                real.inflation_p99_milli as f64,
                "x1000",
            ),
            metric("dag.cp_inflation_mean", real.inflation_mean_milli, "x1000"),
            metric("trace.coverage", covered / run.wall_s, "ratio"),
            metric(
                "trace.overhead_frac",
                (traced_wall - replay_wall) / replay_wall,
                "ratio",
            ),
            metric(
                "trace.driver_gap_frac",
                (driver_wall - replay_wall) / driver_wall,
                "ratio",
            ),
        ]);
        notes.push(format!(
            "in situ (real driver): propose {} calls {:.3} ms ({} blocked), propose_repair {} calls {:.3} ms",
            insitu_propose.calls,
            insitu_propose.self_ns as f64 / 1e6,
            insitu_propose.fails,
            insitu_repair.calls,
            insitu_repair.self_ns as f64 / 1e6
        ));
        notes.push(format!(
            "walls (best of {TRACE_REPEATS}): real driver {driver_wall:.3} s, replay {replay_wall:.3} s untraced, {traced_wall:.3} s traced; layers cover {covered:.3} s of the last traced {:.3} s",
            run.wall_s
        ));
        Ok(())
    })?;
    trace::with(|t| t.reset(false));
    metrics.push(metric("host.calib_ns", calib.median_ns(), "ns"));
    metrics.push(metric(
        "host.cores",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        "count",
    ));
    Ok(Report {
        attempted: real.offered,
        notes,
        metrics,
    })
}

/// The `<layer>.calls / .self_ms / .p99_us / .fail` rows, and the printed
/// table with each layer's share of the traced replay's wall.
fn layer_rows(t: &Tracer, wall_s: f64, notes: &mut Vec<String>, metrics: &mut Vec<Metric>) {
    notes.push(format!(
        "{:<24}{:>10}{:>12}{:>12}  tail",
        "layer", "calls", "self_ms", "share"
    ));
    for &layer in &Layer::ALL[..Layer::REPORTED] {
        let agg = t.agg(layer);
        let durations = t.durations_sorted(layer);
        let (label, tail_ns) = tail_percentile(&durations);
        let name = layer.name();
        let self_ms = agg.self_ns as f64 / 1e6;
        metrics.push(metric(format!("{name}.calls"), agg.calls as f64, "count"));
        metrics.push(metric(format!("{name}.self_ms"), self_ms, "ms"));
        metrics.push(metric(format!("{name}.p99_us"), tail_ns as f64 / 1e3, "us"));
        if layer.can_fail() {
            metrics.push(metric(format!("{name}.fail"), agg.fails as f64, "count"));
        }
        if agg.calls > 0 {
            notes.push(format!(
                "{name:<24}{:>10}{self_ms:>12.3}{:>11.1}%  {label} {:.2} us over {} spans, {} failed",
                agg.calls,
                self_ms / (wall_s * 10.0),
                tail_ns as f64 / 1e3,
                durations.len(),
                agg.fails
            ));
        }
    }
}

/// First field in which the replay's digest differs from the real one.
fn mismatch(real: &Digest, replay: &Digest) -> Option<String> {
    if real == replay {
        return None;
    }
    let fields: [(&str, u64, u64); 8] = [
        ("completed", real.completed, replay.completed),
        ("blocked", real.blocked, replay.blocked),
        ("shed", real.shed, replay.shed),
        ("retries", real.retries, replay.retries),
        ("events", real.events, replay.events),
        ("sojourn p50", real.sojourn_p50_ns, replay.sojourn_p50_ns),
        ("sojourn p99", real.sojourn_p99_ns, replay.sojourn_p99_ns),
        ("units", real.units, replay.units),
    ];
    Some(
        fields
            .iter()
            .find(|(_, a, b)| a != b)
            .map_or("fingerprints differ".to_string(), |(name, a, b)| {
                format!("{name} {a} (real) vs {b} (replay)")
            }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed plumbing: the seed reaches the program's inputs — the same
    /// seed reproduces the run, the next seed is a different run.
    #[test]
    fn same_seed_same_fingerprint_next_seed_differs() {
        let run = |seed| {
            let scn = Scenario::warmup(Workload::MetroSteady, sub_seed(seed, 0));
            build(scn).unwrap().run().unwrap().0
        };
        let a = run(2024);
        assert_eq!(a, run(2024));
        assert_ne!(a.fingerprint, run(2025).fingerprint);
    }

    #[test]
    fn sub_seeds_of_neighbouring_seeds_do_not_overlap() {
        let seeds = |n| (0..SUBSEEDS).map(move |k| sub_seed(n, k));
        assert!(seeds(7).all(|s| !seeds(8).any(|t| t == s)));
        assert_eq!(sub_seed(u64::MAX, 3), u64::MAX.wrapping_mul(SUBSEEDS) + 3);
    }

    /// The replay is a port, not a re-interpretation: on every workload it
    /// reproduces the real driver's digest exactly.
    #[test]
    fn replay_matches_the_real_driver() {
        for workload in Workload::ALL {
            let scn = Scenario::warmup(workload, sub_seed(2024, 0));
            let real = build(scn).unwrap().run().unwrap().0;
            let replayed = replay(scn).unwrap().digest;
            assert_eq!(mismatch(&real, &replayed), None, "{}", workload.name());
        }
    }
}
