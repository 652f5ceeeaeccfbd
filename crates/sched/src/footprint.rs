//! Read regions: the half of a decision's footprint it does not claim.
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
//! What of that the committer reads lives here: [`ReadClaim`], the
//! stamped read-region record a proposal carries beside its write claims
//! ([`crate::ResourceClaims::footprint`] names the claimed links), and the
//! one constructor every scheduler builds its read region with.

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
