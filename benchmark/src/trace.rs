//! Span recorder for the traced run.
//!
//! One thread-local [`Tracer`] (the harness is single-threaded, and a
//! thread-local keeps the [`crate::layers::TimedScheduler`] wrapper
//! `Send + Sync` without a lock). A span is `{layer, start, end, parent,
//! task}`; spans are kept in a preallocated in-memory buffer and written
//! out when the run ends. Per-layer aggregates (calls, failures, self
//! time) are folded online, so they count every call even after the span
//! buffer is full. With recording off every entry point is one branch and
//! no clock read; end-to-end metrics are always taken that way.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Spans kept in memory per traced run; aggregates still count every call
/// beyond this.
pub const SPAN_CAP: usize = 2_000_000;

const NO_PARENT: u32 = u32::MAX;

/// A layer boundary the replay spans. The first [`Layer::REPORTED`]
/// variants carry the crate/module name of the code behind them; the last
/// two are the replay's own grouping spans (glue owned by no layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    TaskGenerator,
    ComputePlacement,
    SchedSelection,
    SimnetSnapshot,
    OpticalSnapshot,
    SchedPropose,
    SchedProposeRepair,
    SchedReschedule,
    SchedEvaluate,
    OrchAdmission,
    OrchCommit,
    OrchGang,
    OrchRelease,
    OrchDatabase,
    OrchFaults,
    SimcoreEngine,
    SimcoreMetrics,
    /// One snapshot -> propose -> commit attempt (`pipeline.decision_*`).
    Decision,
    /// The replay component's event handler; everything inside it that no
    /// layer span covers is replay glue.
    Handler,
}

impl Layer {
    /// Number of real layers (those reported as `<layer>.*` rows).
    pub const REPORTED: usize = 17;
    /// All variants, in discriminant order.
    pub const ALL: [Layer; 19] = [
        Layer::TaskGenerator,
        Layer::ComputePlacement,
        Layer::SchedSelection,
        Layer::SimnetSnapshot,
        Layer::OpticalSnapshot,
        Layer::SchedPropose,
        Layer::SchedProposeRepair,
        Layer::SchedReschedule,
        Layer::SchedEvaluate,
        Layer::OrchAdmission,
        Layer::OrchCommit,
        Layer::OrchGang,
        Layer::OrchRelease,
        Layer::OrchDatabase,
        Layer::OrchFaults,
        Layer::SimcoreEngine,
        Layer::SimcoreMetrics,
        Layer::Decision,
        Layer::Handler,
    ];

    /// The layer's reported name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::TaskGenerator => "task.generator",
            Layer::ComputePlacement => "compute.placement",
            Layer::SchedSelection => "sched.selection",
            Layer::SimnetSnapshot => "simnet.snapshot",
            Layer::OpticalSnapshot => "optical.snapshot",
            Layer::SchedPropose => "sched.propose",
            Layer::SchedProposeRepair => "sched.propose_repair",
            Layer::SchedReschedule => "sched.reschedule",
            Layer::SchedEvaluate => "sched.evaluate",
            Layer::OrchAdmission => "orchestrator.admission",
            Layer::OrchCommit => "orchestrator.commit",
            Layer::OrchGang => "orchestrator.gang",
            Layer::OrchRelease => "orchestrator.release",
            Layer::OrchDatabase => "orchestrator.database",
            Layer::OrchFaults => "orchestrator.faults",
            Layer::SimcoreEngine => "simcore.engine",
            Layer::SimcoreMetrics => "simcore.metrics",
            Layer::Decision => "pipeline.decision",
            Layer::Handler => "replay.handler",
        }
    }

    /// Whether calls into this layer can reject (a `<layer>.fail` row).
    pub fn can_fail(self) -> bool {
        matches!(
            self,
            Layer::ComputePlacement
                | Layer::SchedPropose
                | Layer::OrchAdmission
                | Layer::OrchCommit
                | Layer::OrchGang
        )
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Index of the enclosing span in the buffer (`u32::MAX` = none).
    pub parent: u32,
    /// The task (or job) the enclosing event concerned.
    pub task: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Online per-layer aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerAgg {
    /// Calls into the layer.
    pub calls: u64,
    /// Calls that rejected.
    pub fails: u64,
    /// Time inside the layer not covered by child spans, ns.
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    /// Time covered by direct children that already closed.
    child_ns: u64,
    /// Slot in the span buffer (`NO_PARENT` once the buffer is full).
    slot: u32,
}

/// The span recorder. See the module docs.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    task: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    agg: [LayerAgg; Layer::ALL.len()],
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            task: 0,
            open: Vec::with_capacity(16),
            spans: Vec::new(),
            agg: [LayerAgg::default(); Layer::ALL.len()],
        }
    }

    /// Drop everything recorded and start (or stop) recording. Starting
    /// preallocates the span buffer so the hot path never reallocates.
    pub fn reset(&mut self, recording: bool) {
        self.recording = recording;
        self.open.clear();
        self.spans.clear();
        self.agg = [LayerAgg::default(); Layer::ALL.len()];
        if recording && self.spans.capacity() < SPAN_CAP {
            self.spans.reserve_exact(SPAN_CAP);
        }
    }

    /// Stop recording but keep what was recorded.
    pub fn stop(&mut self) {
        self.recording = false;
    }

    /// Open a span at an explicit timestamp.
    pub fn enter_at(&mut self, layer: Layer, now_ns: u64) {
        let parent = self.open.last().map_or(NO_PARENT, |o| o.slot);
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                parent,
                task: self.task,
                start_ns: now_ns,
                end_ns: now_ns,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.open.push(Open {
            layer,
            start_ns: now_ns,
            child_ns: 0,
            slot,
        });
    }

    /// Close the innermost open span at an explicit timestamp. Its self
    /// time is its duration minus what its direct children covered.
    pub fn exit_at(&mut self, failed: bool, now_ns: u64) {
        let open = self.open.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        let agg = &mut self.agg[open.layer as usize];
        agg.calls += 1;
        agg.fails += u64::from(failed);
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.spans.get_mut(open.slot as usize) {
            span.end_ns = now_ns;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans (at most [`SPAN_CAP`]).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The aggregate for one layer.
    pub fn agg(&self, layer: Layer) -> LayerAgg {
        self.agg[layer as usize]
    }

    /// Sum of self time over the reported layers, ns.
    pub fn layers_self_ns(&self) -> u64 {
        self.agg[..Layer::REPORTED].iter().map(|a| a.self_ns).sum()
    }

    /// Inclusive durations of every recorded span of `layer`, sorted.
    pub fn durations_sorted(&self, layer: Layer) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Write the recorded spans as compact JSON: a `layers` name table and
    /// one `[layer, start_ns, end_ns, parent, task]` row per span (`parent`
    /// is a row index, -1 for none).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = Layer::ALL
            .iter()
            .map(|l| format!("\"{}\"", l.name()))
            .collect();
        writeln!(
            out,
            "{{\"columns\":[\"layer\",\"start_ns\",\"end_ns\",\"parent\",\"task\"],\"layers\":[{}],\"spans\":[",
            names.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{},{},{},{}]{}",
                s.layer as u8, s.start_ns, s.end_ns, parent, s.task, sep
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Run `f` with the thread's tracer.
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| f(&mut t.borrow_mut()))
}

/// Tag spans opened from now on with `task` (the event's task or job id).
pub fn set_task(task: u64) {
    with(|t| t.task = task);
}

/// Span `f` as one call into `layer`; `failed` classifies its result.
pub fn span_fail<R>(layer: Layer, failed: impl FnOnce(&R) -> bool, f: impl FnOnce() -> R) -> R {
    let recording = with(|t| {
        if t.recording {
            let now = t.now_ns();
            t.enter_at(layer, now);
        }
        t.recording
    });
    let out = f();
    if recording {
        let failed = failed(&out);
        with(|t| {
            let now = t.now_ns();
            t.exit_at(failed, now);
        });
    }
    out
}

/// Span `f` as one call into a `layer` that cannot reject.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_fail(layer, |_| false, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> Tracer {
        let mut t = Tracer::new();
        t.recording = true;
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = traced();
        // handler [0,100] { propose [10,40] { evaluate [20,25] }, commit [50,70] }
        t.enter_at(Layer::Handler, 0);
        t.enter_at(Layer::SchedPropose, 10);
        t.enter_at(Layer::SchedEvaluate, 20);
        t.exit_at(false, 25);
        t.exit_at(false, 40);
        t.enter_at(Layer::OrchCommit, 50);
        t.exit_at(true, 70);
        t.exit_at(false, 100);
        // Siblings both come off the handler; the grandchild only off its
        // own parent, never twice off the handler.
        assert_eq!(t.agg(Layer::Handler).self_ns, 100 - 30 - 20);
        assert_eq!(t.agg(Layer::SchedPropose).self_ns, 30 - 5);
        assert_eq!(t.agg(Layer::SchedEvaluate).self_ns, 5);
        assert_eq!(t.agg(Layer::OrchCommit).self_ns, 20);
        assert_eq!(t.agg(Layer::OrchCommit).fails, 1);
        assert_eq!(t.agg(Layer::SchedPropose).fails, 0);
        // Self times partition the root span.
        let total: u64 = Layer::ALL.iter().map(|&l| t.agg(l).self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn spans_link_to_their_parent_and_carry_the_task() {
        let mut t = traced();
        t.task = 7;
        t.enter_at(Layer::Handler, 0);
        t.enter_at(Layer::OrchDatabase, 1);
        t.exit_at(false, 2);
        t.enter_at(Layer::OrchDatabase, 3);
        t.exit_at(false, 5);
        t.exit_at(false, 9);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert!(s.iter().all(|s| s.task == 7));
        assert_eq!((s[0].start_ns, s[0].end_ns), (0, 9));
        assert_eq!(t.durations_sorted(Layer::OrchDatabase), vec![1, 2]);
        assert_eq!(t.agg(Layer::OrchDatabase).calls, 2);
    }

    #[test]
    fn recording_off_records_nothing() {
        with(|t| t.reset(false));
        let v = span(Layer::SchedPropose, || 41 + 1);
        assert_eq!(v, 42);
        with(|t| {
            assert!(t.spans().is_empty());
            assert_eq!(t.agg(Layer::SchedPropose), LayerAgg::default());
        });
    }

    #[test]
    fn span_fail_counts_rejections() {
        with(|t| t.reset(true));
        let r = span_fail(
            Layer::OrchCommit,
            |r: &Result<u32, ()>| r.is_err(),
            || Err(()),
        );
        assert!(r.is_err());
        span_fail(
            Layer::OrchCommit,
            |r: &Result<u32, ()>| r.is_err(),
            || Ok(1),
        )
        .unwrap();
        with(|t| {
            assert_eq!(t.agg(Layer::OrchCommit).calls, 2);
            assert_eq!(t.agg(Layer::OrchCommit).fails, 1);
            t.reset(false);
        });
    }
}
