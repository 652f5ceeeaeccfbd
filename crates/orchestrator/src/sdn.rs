//! The SDN controller: schedules in, flow rules out.
//!
//! Converts a [`Schedule`] into directed [`FlowRule`]s, installs them
//! onto the network state, and tracks installed rules per task so a
//! release or reschedule removes exactly what was added.

use crate::Result;
use flexsched_sched::Schedule;
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::TaskId;
use flexsched_topo::{Direction, LinkId};
use std::collections::BTreeMap;

/// A directed flow rule: reserve `rate_gbps` for `task` on `link`/`dir`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRule {
    /// Owning task.
    pub task: TaskId,
    /// Link to program.
    pub link: LinkId,
    /// Direction of travel.
    pub dir: Direction,
    /// Reserved rate, Gbit/s.
    pub rate_gbps: f64,
}

/// Tracks installed flow rules per task.
#[derive(Debug, Default)]
pub struct SdnController {
    installed: BTreeMap<TaskId, Vec<FlowRule>>,
}

impl SdnController {
    /// A controller with no rules installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile a schedule into flow rules (no side effects).
    pub fn compile(schedule: &Schedule, state: &NetworkState) -> Result<Vec<FlowRule>> {
        let reservations = schedule.reservations(state.topo())?;
        Ok(reservations
            .into_iter()
            .map(|(dl, rate)| FlowRule {
                task: schedule.task,
                link: dl.link,
                dir: dl.dir,
                rate_gbps: rate,
            })
            .collect())
    }

    /// Install a schedule: reserve each compiled rule's bandwidth, in rule
    /// order, and remember the rules. All-or-nothing
    /// ([`NetworkState::reserve_all`]): a failed install leaves the state
    /// bit-identical and the task ruleless.
    pub fn install(&mut self, schedule: &Schedule, state: &mut NetworkState) -> Result<()> {
        let rules = Self::compile(schedule, state)?;
        state.reserve_all(
            rules
                .iter()
                .map(|r| (DirLink::new(r.link, r.dir), r.rate_gbps)),
        )?;
        self.installed.insert(schedule.task, rules);
        Ok(())
    }

    /// Remove a task's rules, releasing its bandwidth.
    pub fn remove_task(&mut self, task: TaskId, state: &mut NetworkState) -> Result<()> {
        let rules = self
            .installed
            .remove(&task)
            .ok_or(crate::OrchError::UnknownTask(task))?;
        for r in &rules {
            state.release(DirLink::new(r.link, r.dir), r.rate_gbps)?;
        }
        Ok(())
    }

    /// Rules currently installed for a task.
    #[cfg(test)]
    pub(crate) fn rules_of(&self, task: TaskId) -> Option<&[FlowRule]> {
        self.installed.get(&task).map(Vec::as_slice)
    }

    /// The `rules` clause: one rule set per stored schedule, that schedule compiled.
    pub(crate) fn check_invariants(
        &self,
        net: &NetworkState,
        schedules: &BTreeMap<TaskId, Schedule>,
    ) -> std::result::Result<(), (&'static str, String)> {
        let compiled = |(task, s): (&TaskId, &Schedule)| {
            self.installed.get(task) == Self::compile(s, net).ok().as_ref()
        };
        if self.installed.len() != schedules.len() || !schedules.iter().all(compiled) {
            return Err((
                "rules",
                "rule sets ≠ the stored schedules compiled".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::ModelProfile;
    use flexsched_sched::{FlexibleMst, NetworkSnapshot, Scheduler};
    use flexsched_task::AiTask;
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn rig() -> (NetworkState, Schedule) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..6].to_vec(),
            data_utility: Default::default(),
            iterations: 3,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let s = {
            let snap = NetworkSnapshot::capture(&state);
            FlexibleMst::paper()
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
                .schedule
        };
        (state, s)
    }

    #[test]
    fn compile_covers_every_reservation() {
        let (state, s) = rig();
        let rules = SdnController::compile(&s, &state).unwrap();
        assert_eq!(rules.len(), s.reservations(state.topo()).unwrap().len());
        assert!(rules.iter().all(|r| r.task == s.task));
    }

    #[test]
    fn install_then_remove_round_trips() {
        let (mut state, s) = rig();
        let mut sdn = SdnController::new();
        sdn.install(&s, &mut state).unwrap();
        assert!(sdn.rules_of(s.task).is_some());
        assert!(state.total_reserved_gbps() > 0.0);
        sdn.remove_task(s.task, &mut state).unwrap();
        assert!(sdn.rules_of(s.task).is_none());
        assert!(state.total_reserved_gbps().abs() < 1e-9);
    }

    #[test]
    fn a_failed_install_leaves_state_and_rules_untouched() {
        let (mut state, s) = rig();
        let rules = SdnController::compile(&s, &state).unwrap();
        // Fill the last rule's directed link so only a later reservation fails.
        let last = rules.last().unwrap();
        let dl = DirLink::new(last.link, last.dir);
        let first = &rules[0];
        assert_ne!(DirLink::new(first.link, first.dir), dl);
        state
            .add_background(dl, state.residual_gbps(dl).unwrap())
            .unwrap();
        let before = format!("{state:?}");
        let mut sdn = SdnController::new();
        assert!(sdn.install(&s, &mut state).is_err());
        assert_eq!(format!("{state:?}"), before, "rollback must be exact");
        assert!(sdn.rules_of(s.task).is_none());
    }

    #[test]
    fn removing_unknown_task_errors() {
        let (mut state, _) = rig();
        let mut sdn = SdnController::new();
        assert!(sdn.remove_task(TaskId(42), &mut state).is_err());
    }

    #[test]
    fn rules_are_queryable_while_installed() {
        let (mut state, s) = rig();
        let mut sdn = SdnController::new();
        sdn.install(&s, &mut state).unwrap();
        let rules = sdn.rules_of(s.task).unwrap();
        assert!(!rules.is_empty());
        // Every rule's rate must be positive.
        assert!(rules.iter().all(|r| r.rate_gbps > 0.0));
    }
}
