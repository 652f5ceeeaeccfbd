//! The distributed AI task record.

use flexsched_compute::ModelProfile;
use flexsched_topo::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an AI task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Tenant service class of a task — the admission-control and degradation
/// tier it is scheduled under when the control plane is overloaded.
///
/// * [`Critical`](ServiceClass::Critical) tasks always get the full
///   flexible scheduling decision and are never shed by watermark trips.
/// * [`Standard`](ServiceClass::Standard) tasks degrade to the cheap
///   fixed-tree scheduler under overload and may be rate-limited.
/// * [`BestEffort`](ServiceClass::BestEffort) tasks absorb the shedding:
///   they are the first to be turned away when token buckets drain.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum ServiceClass {
    /// Latency/availability-sensitive tenant; never degraded or shed by
    /// watermark trips.
    Critical,
    /// Default tier: full service normally, degraded decision quality
    /// under overload.
    #[default]
    Standard,
    /// Scavenger tier: admitted only when capacity is spare.
    BestEffort,
}

impl ServiceClass {
    /// All classes, highest priority first. Stable order used for
    /// per-class metric arrays.
    pub const ALL: [ServiceClass; 3] = [
        ServiceClass::Critical,
        ServiceClass::Standard,
        ServiceClass::BestEffort,
    ];

    /// Dense index into per-class arrays (same order as [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        match self {
            ServiceClass::Critical => 0,
            ServiceClass::Standard => 1,
            ServiceClass::BestEffort => 2,
        }
    }

    /// Short lowercase label for metric names and logs.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ServiceClass::Critical => "critical",
            ServiceClass::Standard => "standard",
            ServiceClass::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A distributed AI task: one global model, `N` local models.
///
/// Sites are *server nodes* of the topology. The global site hosts the
/// aggregating model; local sites train on their private data. Each local
/// site carries a `data_utility` score in `(0, 1]` modelling how useful its
/// local data is to the global model — the signal behind open challenge #1
/// ("strategically select only those local models containing useful data").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AiTask {
    /// Identifier.
    pub id: TaskId,
    /// Model family trained by this task.
    pub model: ModelProfile,
    /// Server hosting the global model.
    pub global_site: NodeId,
    /// Servers hosting local models (distinct, never the global site).
    pub local_sites: Vec<NodeId>,
    /// Data utility per local site.
    pub data_utility: BTreeMap<NodeId, f64>,
    /// Synchronisation rounds to run.
    pub iterations: u32,
    /// Communication budget per procedure, milliseconds — determines the
    /// bandwidth demand the task requests from the network.
    pub comm_budget_ms: f64,
    /// Arrival time, nanoseconds since scenario start.
    pub arrival_ns: u64,
    /// Tenant service class — the admission/degradation tier.
    pub class: ServiceClass,
}

impl AiTask {
    /// Bandwidth demand per model-update flow, Gbit/s.
    pub fn demand_gbps(&self) -> f64 {
        self.model.demand_gbps(self.comm_budget_ms)
    }

    /// Number of local models.
    pub fn num_locals(&self) -> usize {
        self.local_sites.len()
    }

    /// Bytes of one model update.
    pub fn update_bytes(&self) -> u64 {
        self.model.update_bytes()
    }

    /// Utility of a site (0 if unknown).
    pub fn utility_of(&self, site: NodeId) -> f64 {
        self.data_utility.get(&site).copied().unwrap_or(0.0)
    }

    /// Local sites sorted by descending utility (ties by ascending id).
    pub fn sites_by_utility(&self) -> Vec<NodeId> {
        let mut v = self.local_sites.clone();
        v.sort_by(|a, b| {
            self.utility_of(*b)
                .partial_cmp(&self.utility_of(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        v
    }

    /// Structural sanity: distinct local sites, none equal to the global.
    pub fn validate(&self) -> Result<(), String> {
        if self.local_sites.is_empty() {
            return Err(format!("{}: no local sites", self.id));
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.local_sites {
            if *s == self.global_site {
                return Err(format!("{}: local site {s} equals global site", self.id));
            }
            if !seen.insert(*s) {
                return Err(format!("{}: duplicate local site {s}", self.id));
            }
        }
        if self.iterations == 0 {
            return Err(format!("{}: zero iterations", self.id));
        }
        if self.comm_budget_ms <= 0.0 {
            return Err(format!("{}: non-positive budget", self.id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> AiTask {
        let mut utility = BTreeMap::new();
        utility.insert(NodeId(1), 0.9);
        utility.insert(NodeId(2), 0.2);
        utility.insert(NodeId(3), 0.6);
        AiTask {
            id: TaskId(0),
            model: ModelProfile::resnet50(),
            global_site: NodeId(0),
            local_sites: vec![NodeId(1), NodeId(2), NodeId(3)],
            data_utility: utility,
            iterations: 5,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: ServiceClass::default(),
        }
    }

    #[test]
    fn demand_follows_model_and_budget() {
        let t = task();
        assert!((t.demand_gbps() - t.model.demand_gbps(10.0)).abs() < 1e-12);
        // ResNet50 fp32 ~102 MB in 10 ms ~ 82 Gbps.
        assert!(t.demand_gbps() > 50.0 && t.demand_gbps() < 120.0);
    }

    #[test]
    fn sites_by_utility_sorts_descending() {
        let t = task();
        assert_eq!(t.sites_by_utility(), vec![NodeId(1), NodeId(3), NodeId(2)]);
    }

    #[test]
    fn unknown_site_has_zero_utility() {
        assert_eq!(task().utility_of(NodeId(99)), 0.0);
    }

    #[test]
    fn validation_catches_duplicates() {
        let mut t = task();
        t.local_sites.push(NodeId(1));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_global_among_locals() {
        let mut t = task();
        t.local_sites.push(NodeId(0));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_degenerate_params() {
        let mut t = task();
        t.iterations = 0;
        assert!(t.validate().is_err());
        let mut t2 = task();
        t2.comm_budget_ms = 0.0;
        assert!(t2.validate().is_err());
        let mut t3 = task();
        t3.local_sites.clear();
        assert!(t3.validate().is_err());
    }

    #[test]
    fn valid_task_passes() {
        task().validate().unwrap();
    }

    #[test]
    fn service_class_defaults_to_standard() {
        assert_eq!(ServiceClass::default(), ServiceClass::Standard);
        assert_eq!(task().class, ServiceClass::Standard);
    }

    #[test]
    fn service_class_indices_match_all_order() {
        for (i, c) in ServiceClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        // Priority order: Critical outranks Standard outranks BestEffort.
        assert!(ServiceClass::Critical < ServiceClass::Standard);
        assert!(ServiceClass::Standard < ServiceClass::BestEffort);
    }

    #[test]
    fn service_class_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            ServiceClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(ServiceClass::BestEffort.to_string(), "best-effort");
    }
}
