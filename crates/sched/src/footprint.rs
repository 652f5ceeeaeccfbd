//! Footprints: the first-class currency of conflict detection.
//!
//! A scheduling decision interacts with shared state in two ways:
//!
//! * it **writes** the links it claims (rates, wavelengths, server slots —
//!   the [`crate::ResourceClaims`] manifest), and
//! * it **reads** the links whose weights or spectrum state steered it —
//!   every link the Steiner searches consulted, recorded as a side effect
//!   of search by [`flexsched_topo::algo::DijkstraScratch`] and
//!   accumulated in the caller's
//!   [`ReadLog`](flexsched_topo::algo::ReadLog).
//!
//! The read region closes the gap the PR 3 witness exposed: a commit that
//! touches only *non-claimed* links can steer a fresh decision differently,
//! so claim-stamp validation alone cannot prove a speculated proposal is
//! what sequential scheduling would have produced. With the read region
//! recorded, the proof is an induction over the search trace: if no
//! consulted value changed, a fresh run of the (deterministic) scheduler
//! replays bit-identically.
//!
//! [`Footprint`] is the commit pipeline's view of a decision: a sorted
//! write set and a sorted read set of physical links. Two footprints
//! *interfere* when either one's writes touch the other's writes
//! ([`Interference::WriteWrite`]) or reads
//! ([`Interference::ReadWrite`]); disjoint footprints can commit
//! back-to-back from the same snapshot with neither invalidating the
//! other.

use crate::proposal::{ClaimsDelta, Proposal};
use crate::snapshot::NetworkSnapshot;
use flexsched_topo::LinkId;

/// One read-region record: a link whose observable state (IP residual /
/// down flag, and — when an optical view was attached — spectrum
/// occupancy) the decision consulted without claiming it, stamped with the
/// versions it saw. The committer's strict modes reject the proposal when
/// either live stamp has moved on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadClaim {
    /// The consulted physical link.
    pub link: LinkId,
    /// The link's IP-layer mutation stamp in the decision's snapshot.
    pub seen_version: u64,
    /// The link's spectrum mutation stamp in the decision's snapshot
    /// (`None` when the decision ran without an optical view).
    pub seen_spectrum: Option<u64>,
}

/// Build the sorted read-claim list for a decision: `consulted` (any
/// order, duplicates allowed) minus the links in `exclude_writes`
/// (ascending) — claimed links are already stamp-guarded by the write
/// claims, so keeping the two sets disjoint avoids double validation.
pub(crate) fn read_claims(
    snap: &NetworkSnapshot,
    consulted: &[LinkId],
    exclude_writes: &[LinkId],
) -> Vec<ReadClaim> {
    let mut links: Vec<LinkId> = consulted.to_vec();
    links.sort_unstable();
    links.dedup();
    links
        .into_iter()
        .filter(|l| exclude_writes.binary_search(l).is_err())
        .map(|link| ReadClaim {
            link,
            seen_version: snap.net().link_version(link),
            seen_spectrum: snap.optical().map(|opt| opt.link_version(link)),
        })
        .collect()
}

/// How two footprints step on each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interference {
    /// The write sets intersect: both decisions claim the same link.
    WriteWrite,
    /// One decision writes a link the other only read: committing the
    /// writer invalidates the reader's speculation (the PR 3 witness
    /// scenario), even though their claims are disjoint.
    ReadWrite,
}

/// A decision's interference footprint: the distinct physical links it
/// writes (claims) and the distinct links it read without claiming. Both
/// lists are ascending and mutually disjoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Footprint {
    /// Links the decision claims (write set), ascending.
    pub writes: Vec<LinkId>,
    /// Links the decision consulted without claiming (read region),
    /// ascending.
    pub reads: Vec<LinkId>,
}

fn sorted_intersects(a: &[LinkId], b: &[LinkId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl Footprint {
    /// The footprint of a fresh admission: claimed links as the write set,
    /// the proposal's recorded read region as the read set.
    pub fn of_proposal(p: &Proposal) -> Footprint {
        let mut reads: Vec<LinkId> = p.claims.reads.iter().map(|r| r.link).collect();
        reads.sort_unstable();
        reads.dedup();
        Footprint {
            writes: p.claims.footprint(),
            reads,
        }
    }

    /// The footprint of an incremental repair: the [`ClaimsDelta`] — only
    /// the links whose rates actually change — as the write set, plus the
    /// repair's (frontier-local) read region. The unchanged bulk of the
    /// tree is the task's own standing reservation and interferes with
    /// nothing. This is the same delta ∪ reads scope the committer's
    /// repair intent stamps, packaged as a partitionable footprint.
    pub fn of_repair(p: &Proposal, delta: &ClaimsDelta) -> Footprint {
        let writes = delta.touched_links();
        let mut reads: Vec<LinkId> = p
            .claims
            .reads
            .iter()
            .map(|r| r.link)
            .filter(|l| writes.binary_search(l).is_err())
            .collect();
        reads.sort_unstable();
        reads.dedup();
        Footprint { writes, reads }
    }

    /// Classify the interference between two footprints (`None` =
    /// disjoint: the pair can commit back-to-back from one snapshot in
    /// either order without invalidating each other). Write/write
    /// dominates the classification when both kinds are present.
    pub fn interference(&self, other: &Footprint) -> Option<Interference> {
        if sorted_intersects(&self.writes, &other.writes) {
            return Some(Interference::WriteWrite);
        }
        if sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&self.reads, &other.writes)
        {
            return Some(Interference::ReadWrite);
        }
        None
    }

    /// Whether the two footprints are pairwise disjoint (write/write *and*
    /// write/read in both directions).
    pub fn is_disjoint(&self, other: &Footprint) -> bool {
        self.interference(other).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(writes: &[u32], reads: &[u32]) -> Footprint {
        Footprint {
            writes: writes.iter().map(|l| LinkId(*l)).collect(),
            reads: reads.iter().map(|l| LinkId(*l)).collect(),
        }
    }

    #[test]
    fn interference_classification() {
        let a = fp(&[1, 2], &[3, 4]);
        assert_eq!(
            a.interference(&fp(&[2, 9], &[])),
            Some(Interference::WriteWrite)
        );
        assert_eq!(
            a.interference(&fp(&[3], &[])),
            Some(Interference::ReadWrite),
            "their write hits our read"
        );
        assert_eq!(
            a.interference(&fp(&[9], &[1])),
            Some(Interference::ReadWrite),
            "our write hits their read"
        );
        assert_eq!(
            a.interference(&fp(&[9], &[4, 9])),
            None,
            "read/read is free"
        );
        assert!(a.is_disjoint(&fp(&[], &[])));
        // Write/write dominates when both overlap kinds are present.
        assert_eq!(
            a.interference(&fp(&[2], &[1])),
            Some(Interference::WriteWrite)
        );
    }

    #[test]
    fn repair_footprint_is_delta_scoped() {
        use crate::{FlexibleMst, NetworkSnapshot, Scheduler};
        use flexsched_compute::ModelProfile;
        use flexsched_simnet::NetworkState;
        use flexsched_task::{AiTask, TaskId};
        use flexsched_topo::builders;
        use std::sync::Arc;
        // A real repair: install a metro tree, cut a claimed ring span,
        // repair it, and check the repair footprint is the (small) delta
        // plus frontier reads — strictly smaller than the whole-tree
        // admission footprint, with writes and reads disjoint.
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let mut state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..=10].to_vec(),
            data_utility: Default::default(),
            iterations: 3,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let sched = FlexibleMst::paper();
        let p = sched
            .propose_once(&task, &task.local_sites, &NetworkSnapshot::capture(&state))
            .unwrap();
        p.schedule.apply(&mut state).unwrap();
        let victim = p
            .claims
            .links
            .iter()
            .map(|c| c.link.link)
            .find(|l| {
                let link = topo.link(*l).unwrap();
                topo.node(link.a).unwrap().kind == flexsched_topo::NodeKind::Roadm
                    && topo.node(link.b).unwrap().kind == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring");
        state.set_down(victim, true).unwrap();
        let rp = sched
            .propose_repair(
                &task,
                &p.schedule,
                &NetworkSnapshot::capture(&state),
                &mut flexsched_topo::algo::ScratchPool::new(),
            )
            .unwrap()
            .expect("cut tree link must repair");
        let repair_fp = Footprint::of_repair(&rp.proposal, &rp.delta);
        let admit_fp = rp.proposal.footprint();
        assert_eq!(repair_fp.writes, rp.delta.touched_links());
        assert!(
            repair_fp.writes.len() < admit_fp.writes.len(),
            "delta write set must be smaller than the whole-tree footprint"
        );
        for r in &repair_fp.reads {
            assert!(repair_fp.writes.binary_search(r).is_err());
        }
        // The frontier-local read region is a subset of the proposal's.
        assert!(repair_fp.reads.len() <= admit_fp.reads.len() + repair_fp.writes.len());
    }

    #[test]
    fn interference_is_symmetric() {
        let a = fp(&[1, 5], &[2]);
        let b = fp(&[2], &[7]);
        assert_eq!(a.interference(&b), b.interference(&a));
        let c = fp(&[9], &[5]);
        assert_eq!(a.interference(&c), c.interference(&a));
    }
}
