//! Stage-DAG model for distributed-AI jobs.
//!
//! The poster schedules each AI task as one monolithic placement + tree
//! decision. Real training/inference jobs are DAGs of *stages* — data-
//! parallel epochs, pipeline stages, all-reduce / parameter-server phases
//! — whose inter-stage transfers ride the same optical/IP fabric. An
//! [`AiJob`] models that: every [`Stage`] wraps its own [`AiTask`] (so the
//! whole snapshot → propose → commit pipeline applies per stage,
//! unchanged), and [`DataEdge`]s carry the data items handed from one
//! stage to the next.
//!
//! The graph math lives here; frontier tracking against a running
//! simulation lives in `flexsched-sched`'s `dag` module.

use crate::task::{AiTask, ServiceClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identity of a stage-DAG job (distinct from the per-stage [`TaskId`](crate::TaskId)s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// What a stage does; kinds shape nothing in the commit pipeline (every
/// stage is an [`AiTask`] with its own tree) but label the workload for
/// metrics and generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// A (data-parallel) compute phase: locals train against the global.
    Compute,
    /// A synchronisation phase: all-reduce / parameter-server exchange.
    AllReduce,
    /// A pipeline hand-off moving activations/weights between site groups.
    PipelineTransfer,
}

/// One stage of a job: a typed wrapper around its own [`AiTask`]. The
/// task's id is globally unique, so the database ledger, footprints and
/// repair machinery all apply to stages without modification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Dense stage index within the job: `job.stages[i].id == i`.
    pub id: u32,
    /// What the stage does (labelling only).
    pub kind: StageKind,
    /// The schedulable unit: placement sites, model, demand, iterations.
    pub task: AiTask,
}

/// A data item produced by stage `from` and consumed by stage `to`:
/// `gbit` is its size. The successor cannot start until the item has
/// drained over the fabric, which takes `gbit / producer-demand` seconds
/// (the producer's committed tree is the pipe it leaves on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataEdge {
    /// Producing stage id.
    pub from: u32,
    /// Consuming stage id.
    pub to: u32,
    /// Data item size, Gbit.
    pub gbit: f64,
}

/// A distributed-AI job as a DAG of typed stages with data-item edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AiJob {
    /// Job identity.
    pub id: JobId,
    /// Stages, densely indexed: `stages[i].id == i`.
    pub stages: Vec<Stage>,
    /// Data-item edges; validated acyclic and duplicate-free.
    pub edges: Vec<DataEdge>,
    /// Arrival time of the job (its root frontier becomes ready here).
    pub arrival_ns: u64,
    /// Service class the whole job is admitted under.
    pub class: ServiceClass,
}

impl AiJob {
    /// Structural validation: stages densely indexed, every stage task
    /// valid, edges in range / self-loop-free / duplicate-free, and the
    /// graph acyclic.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("job has no stages".into());
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.id as usize != i {
                return Err(format!(
                    "stage ids must be dense: stage {i} has id {}",
                    s.id
                ));
            }
            s.task.validate()?;
        }
        let n = self.stages.len() as u32;
        let mut seen = BTreeSet::new();
        for e in &self.edges {
            if e.from >= n || e.to >= n {
                return Err(format!("edge {}->{} out of range", e.from, e.to));
            }
            if e.from == e.to {
                return Err(format!("self-loop on stage {}", e.from));
            }
            if !seen.insert((e.from, e.to)) {
                return Err(format!("duplicate edge {}->{}", e.from, e.to));
            }
            if e.gbit.is_nan() || e.gbit <= 0.0 {
                return Err(format!("edge {}->{} carries no data", e.from, e.to));
            }
        }
        if self.topo_order().is_none() {
            return Err("stage graph has a cycle".into());
        }
        Ok(())
    }

    /// The stage with id `sid`, if in range.
    pub fn stage(&self, sid: u32) -> Option<&Stage> {
        self.stages.get(sid as usize)
    }

    /// Ids of stages feeding data into `sid`.
    pub fn predecessors(&self, sid: u32) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.to == sid)
            .map(|e| e.from)
    }

    /// Ids of stages consuming `sid`'s output.
    pub fn successors(&self, sid: u32) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.from == sid)
            .map(|e| e.to)
    }

    /// Stages with no predecessors — the initial ready frontier.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.stages.len() as u32)
            .filter(|s| self.predecessors(*s).next().is_none())
            .collect()
    }

    /// Kahn topological order, or `None` if the edge set has a cycle.
    pub(crate) fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.stages.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if (e.to as usize) < n {
                indeg[e.to as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|s| indeg[*s as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let s = queue[head];
            head += 1;
            order.push(s);
            for t in self.successors(s) {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    queue.push(t);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Time for `e`'s data item to drain onto the fabric: size over the
    /// producer's committed per-tree demand (the pipe it leaves on).
    pub fn edge_transfer_ns(&self, e: &DataEdge) -> u64 {
        let rate = self.stages[e.from as usize].task.demand_gbps().max(1e-9);
        (e.gbit / rate * 1e9) as u64
    }

    /// Longest path through the DAG — the job's ideal makespan — with
    /// per-stage durations supplied by `duration_ns` and edge hand-off
    /// times from [`edge_transfer_ns`](AiJob::edge_transfer_ns). Returns 0
    /// on a cyclic graph (which [`validate`](AiJob::validate) rejects).
    pub fn critical_path_ns(&self, duration_ns: impl Fn(u32) -> u64) -> u64 {
        let Some(order) = self.topo_order() else {
            return 0;
        };
        // finish[s] = earliest finish of s with unlimited resources.
        let mut finish = vec![0u64; self.stages.len()];
        for s in order {
            let start = self
                .edges
                .iter()
                .filter(|e| e.to == s)
                .map(|e| finish[e.from as usize] + self.edge_transfer_ns(e))
                .max()
                .unwrap_or(0);
            finish[s as usize] = start + duration_ns(s);
        }
        finish.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskId;
    use flexsched_compute::ModelProfile;

    fn stage_task(id: u64) -> AiTask {
        AiTask {
            id: TaskId(id),
            model: ModelProfile::mobilenet(),
            global_site: flexsched_topo::NodeId(0),
            local_sites: vec![flexsched_topo::NodeId(1)],
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        }
    }

    /// Diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> AiJob {
        let kinds = [
            StageKind::Compute,
            StageKind::Compute,
            StageKind::PipelineTransfer,
            StageKind::AllReduce,
        ];
        AiJob {
            id: JobId(7),
            stages: (0..4)
                .map(|i| Stage {
                    id: i,
                    kind: kinds[i as usize],
                    task: stage_task(100 + i as u64),
                })
                .collect(),
            edges: vec![
                DataEdge {
                    from: 0,
                    to: 1,
                    gbit: 2.0,
                },
                DataEdge {
                    from: 0,
                    to: 2,
                    gbit: 1.0,
                },
                DataEdge {
                    from: 1,
                    to: 3,
                    gbit: 4.0,
                },
                DataEdge {
                    from: 2,
                    to: 3,
                    gbit: 4.0,
                },
            ],
            arrival_ns: 0,
            class: Default::default(),
        }
    }

    #[test]
    fn diamond_validates_and_orders() {
        let job = diamond();
        job.validate().unwrap();
        assert_eq!(job.roots(), vec![0]);
        let order = job.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(*order.last().unwrap(), 3);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut job = diamond();
        job.edges.push(DataEdge {
            from: 3,
            to: 0,
            gbit: 1.0,
        });
        assert!(job.validate().unwrap_err().contains("cycle"));
    }

    #[test]
    fn duplicate_and_self_edges_are_rejected() {
        let mut dup = diamond();
        dup.edges.push(DataEdge {
            from: 0,
            to: 1,
            gbit: 1.0,
        });
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        let mut selfy = diamond();
        selfy.edges.push(DataEdge {
            from: 2,
            to: 2,
            gbit: 1.0,
        });
        assert!(selfy.validate().unwrap_err().contains("self-loop"));
    }

    #[test]
    fn critical_path_takes_the_longest_branch() {
        let job = diamond();
        // Equal stage durations: the path through stage 1 (2 Gbit in) and
        // the path through stage 2 (1 Gbit in) differ only in edge time.
        let cp = job.critical_path_ns(|_| 1_000_000);
        let e01 = job.edge_transfer_ns(&job.edges[0]);
        let e13 = job.edge_transfer_ns(&job.edges[2]);
        assert_eq!(cp, 3_000_000 + e01 + e13);
        // A slower stage 2 flips the critical branch.
        let cp2 = job.critical_path_ns(|s| if s == 2 { 1_000_000_000 } else { 1_000_000 });
        let e02 = job.edge_transfer_ns(&job.edges[1]);
        let e23 = job.edge_transfer_ns(&job.edges[3]);
        assert_eq!(cp2, 1_000_000 + 1_000_000_000 + 1_000_000 + e02 + e23);
    }

    #[test]
    fn transfer_time_scales_with_item_size() {
        let job = diamond();
        let small = job.edge_transfer_ns(&job.edges[1]); // 1 Gbit
        let big = job.edge_transfer_ns(&job.edges[0]); // 2 Gbit
        assert!(big > small);
        assert!((big as f64 / small as f64 - 2.0).abs() < 1e-3);
    }
}
