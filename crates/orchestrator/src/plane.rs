//! The commit plane the testbed drivers hold: the one [`Committer`], plus
//! the handful of state reads and scenario writes a driver needs beside
//! it.
//!
//! There is exactly one plane. The [`Committer`] validates, stores (which
//! reserves) and grooms under the [`Database`]'s single write lock;
//! proposals and evaluations read that same authoritative state, and
//! scenario events (outages, repairs) mutate it directly.

use crate::commit::{CommitReceipt, Committer, Intent, Validation};
use crate::database::Database;
use crate::Result;
use flexsched_compute::ClusterManager;
use flexsched_optical::OpticalState;
use flexsched_sched::Proposal;
use flexsched_simnet::NetworkState;
use flexsched_task::TaskId;
use flexsched_topo::{LinkId, Topology};
use std::sync::Arc;

/// Which commit plane [`CommitPlane::new`] builds. Only the single-lock
/// plane exists; the enum and the constructor argument remain because the
/// benchmark adapter (`benchmark/src/layers.rs`) names them; both shrink
/// further — to an argument-free constructor — once that adapter may
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneConfig {
    /// The single-lock [`Committer`] over the [`Database`]'s own state.
    #[default]
    Single,
}

/// The live commit plane a driver holds: the single-lock [`Committer`]
/// over the [`Database`]'s own network and optical state.
#[derive(Debug)]
pub struct CommitPlane {
    pub(crate) committer: Committer,
}

impl CommitPlane {
    /// Build the plane. Neither argument selects anything (see
    /// [`PlaneConfig`]); the signature is the one the benchmark adapter
    /// calls.
    pub fn new(_cfg: PlaneConfig, _topo: &Arc<Topology>) -> Self {
        CommitPlane {
            committer: Committer::new(),
        }
    }

    /// Apply one intent through the committer.
    pub fn apply(&mut self, db: &Database, intent: Intent<'_>) -> Result<CommitReceipt> {
        self.committer.apply(db, intent)
    }

    /// Gang-admit a frontier, all-or-nothing.
    pub fn apply_gang(
        &mut self,
        db: &Database,
        gang: &[&Proposal],
        validation: Validation,
    ) -> Result<Vec<CommitReceipt>> {
        self.committer.apply_gang(db, gang, validation)
    }

    /// Free a committed task's groomed wavelengths; taking its schedule
    /// out of the database ([`Database::take_schedule`]) released its
    /// bandwidth. `_task` selects nothing: the signature is the one the
    /// benchmark adapter calls.
    pub fn release(&mut self, db: &Database, _task: TaskId, groomed: &[u64]) -> Result<()> {
        self.committer.release(db, groomed);
        Ok(())
    }

    /// Grooming statistics: (lightpath reuse hits, new wavelengths lit).
    pub fn groom_stats(&self) -> (u64, u64) {
        self.committer.groom_stats()
    }

    /// [`Database::read`], forwarded: `f` runs against the database's
    /// network, optical and cluster state under its read lock. The drivers
    /// call `Database::read` themselves; this forward remains because the
    /// benchmark adapter (`benchmark/src/layers.rs`) calls it.
    pub fn read_state<R>(
        &self,
        db: &Database,
        f: impl FnOnce(&NetworkState, &OpticalState, &ClusterManager) -> R,
    ) -> R {
        db.read(f)
    }

    /// Flip one link's down flag on the network state.
    pub fn set_link_down(&self, db: &Database, link: LinkId, down: bool) -> Result<()> {
        Ok(db.write(|net, _, _| net.set_down(link, down))?)
    }

    /// Total reserved bandwidth on the network state.
    pub fn total_reserved_gbps(&self, db: &Database) -> f64 {
        db.total_reserved_gbps()
    }
}
