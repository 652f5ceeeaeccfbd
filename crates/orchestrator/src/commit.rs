//! The commit stage: typed intents in, stored schedules and groomed
//! wavelengths out — or a typed conflict.
//!
//! The [`Committer`] is the single gate through which decisions become
//! state: what it accepts it stores in the [`Database`], which reserves
//! the schedule's bandwidth ([`Database::store_schedule`]), and it grooms
//! the schedule's wavelengths. Admission has one routine, [`Committer::apply_gang`]: a DAG
//! frontier commits all-or-nothing through it, and a monolithic task is a
//! gang of one. [`Committer::apply`] is the typed entry point over it —
//!
//! * [`Intent::Admit`] — admit a fresh [`Proposal`] (a one-member gang,
//!   its conflict returned as a plain [`Conflict`]),
//! * [`Intent::Migrate`] — swap a running schedule for a replacement (a
//!   full re-solve or an incremental repair), the old reservations
//!   credited during validation. It keeps its own routine: a migration
//!   grooms nothing yet (ROADMAP item 6, hole (viii)).
//!
//! Validation is one *fit* check against the live database under one write
//! lock: a claim that no longer holds — the capacity is taken, the link is
//! down, the wavelength is lit — rejects the intent with a typed
//! [`Conflict`] and leaves the state bit-identical, so the caller can
//! propose against a fresh snapshot and retry. There is no stamp check:
//! the drivers snapshot, propose and commit inside one event handler
//! (`Pipeline::admit`), so a proposal is always computed from the state
//! it is committed to (`Pipeline` asserts that in debug builds;
//! README "Decided, with numbers").

use crate::database::{Database, DbInner};
use crate::Result;
use flexsched_optical::{GroomingManager, OpticalState};
use flexsched_sched::{ClaimsDelta, Proposal, Schedule};
use flexsched_simnet::DirLink;
use flexsched_task::TaskId;
use flexsched_topo::algo::ChainWalk;
use flexsched_topo::{LinkId, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// Why a proposal could not be committed. Each variant names the exact
/// resource whose live state no longer covers the proposal's claim.
#[derive(Debug, Clone, PartialEq)]
pub enum Conflict {
    /// A claimed link is down.
    LinkDown {
        /// The link that is now down.
        link: LinkId,
    },
    /// A claimed link's residual (plus any credit) no longer covers the
    /// claim.
    StaleLink {
        /// The stale link.
        link: LinkId,
        /// Aggregate rate the proposal claimed on it, Gbit/s.
        claimed_gbps: f64,
        /// Residual actually available now, Gbit/s.
        available_gbps: f64,
    },
    /// A claimed link is no longer wavelength-feasible: no free wavelength
    /// and no groomable lightpath with enough headroom crosses it.
    WavelengthTaken {
        /// The spectrally exhausted link.
        link: LinkId,
    },
    /// The proposal's weakest flow sits below the rate floor it declared —
    /// a malformed proposal, rejected before any resource check.
    RateFloorViolated {
        /// The weakest planned rate, Gbit/s.
        rate_gbps: f64,
        /// The declared floor, Gbit/s.
        floor_gbps: f64,
    },
    /// A claimed server slot does not exist in the cluster.
    MissingServer {
        /// The node that is not a known server.
        node: NodeId,
    },
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conflict::LinkDown { link } => write!(f, "claimed link {link} is down"),
            Conflict::StaleLink {
                link,
                claimed_gbps,
                available_gbps,
            } => write!(
                f,
                "stale claim on link {link}: {claimed_gbps:.3} Gbps claimed, \
                 {available_gbps:.3} available"
            ),
            Conflict::WavelengthTaken { link } => {
                write!(f, "no wavelength left on link {link}")
            }
            Conflict::RateFloorViolated {
                rate_gbps,
                floor_gbps,
            } => write!(
                f,
                "planned rate {rate_gbps:.3} Gbps below declared floor {floor_gbps:.3}"
            ),
            Conflict::MissingServer { node } => {
                write!(f, "claimed server slot on unknown server {node}")
            }
        }
    }
}

/// What a successful commit groomed, and the handles to release it.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// The committed task.
    pub task: TaskId,
    /// Grooming-manager demand ids holding the task's wavelengths.
    pub groomed: Vec<u64>,
}

/// Serial reconciler of intents onto live state.
///
/// Owns the grooming manager (wavelengths), so every mutation of the
/// shared database's optical state funnels through
/// [`apply`](Committer::apply) / [`release`](Committer::release). The
/// network's reservations are the stored schedules': a commit stores, and
/// [`Database::take_schedule`] releases.
#[derive(Debug, Default)]
pub struct Committer {
    groom: GroomingManager,
    /// Buffers a tree plan's chains are walked into on their way to the
    /// grooming manager.
    walk: ChainWalk,
    commits: u64,
    rejections: u64,
}

/// How an intent's claims are checked at commit time: they must *fit* live
/// state (capacity, wavelengths, servers). One variant — the type survives
/// as [`Committer::apply_gang`]'s third parameter only because the
/// benchmark adapter names it (ROADMAP item 1 step B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Validation {
    /// Claims must fit live state.
    #[default]
    Fit,
}

/// A typed commit intent: everything [`Committer::apply`] can do.
#[derive(Debug, Clone, Copy)]
pub enum Intent<'a> {
    /// Admit a fresh proposal for an unscheduled task.
    Admit {
        /// The proposal to admit.
        proposal: &'a Proposal,
    },
    /// Atomically replace a running schedule — with a full re-solve or an
    /// incremental repair. The old schedule's reservations are credited
    /// during validation, so a swap that only rearranges the task's own
    /// capacity validates cleanly.
    Migrate {
        /// The stored schedule being replaced.
        old: &'a Schedule,
        /// The replacement proposal.
        proposal: &'a Proposal,
    },
}

impl<'a> Intent<'a> {
    /// Admission of a fresh proposal.
    pub fn admit(proposal: &'a Proposal) -> Self {
        Intent::Admit { proposal }
    }

    /// Migration to a full re-solve.
    pub fn migrate(old: &'a Schedule, proposal: &'a Proposal) -> Self {
        Intent::Migrate { old, proposal }
    }

    /// Migration to an incremental repair: validated exactly like
    /// [`migrate`](Intent::migrate). `_delta` (the repair's record of
    /// what it changed) is not consulted; the three-argument form survives
    /// because the benchmark adapter calls it (ROADMAP item 1 step B).
    pub fn repair(old: &'a Schedule, proposal: &'a Proposal, _delta: &'a ClaimsDelta) -> Self {
        Intent::Migrate { old, proposal }
    }
}

/// Capacity on top of live residuals that a validation accounts for.
#[derive(Clone, Copy)]
enum Held<'a> {
    /// Capacity the proposal gets back when it is stored, ascending by
    /// directed link: the running schedule a migration replaces. Crediting
    /// lets the migration path validate *before* touching any state, so a
    /// rejected migration leaves the database bit-identical (version
    /// counters included).
    Credit(&'a [(DirLink, f64)]),
    /// Capacity the gang members before this one claim, per directed link.
    Debit(&'a BTreeMap<DirLink, f64>),
}

/// All-or-nothing rejection of a gang commit: the index of the first
/// member whose validation failed, plus its typed [`Conflict`]. The
/// database is left bit-identical — version counters, grooming and ledger
/// included — whenever this is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct GangConflict {
    /// Index into the submitted gang of the rejected member.
    pub member: usize,
    /// Why that member's claims no longer hold.
    pub conflict: Conflict,
}

impl fmt::Display for GangConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gang member {} rejected: {}", self.member, self.conflict)
    }
}

impl Committer {
    /// A committer with nothing groomed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate `p`'s claims against live state, adjusted by `held`;
    /// `Ok` means commit-able.
    fn validate(p: &Proposal, db: &DbInner, held: Held<'_>) -> std::result::Result<(), Conflict> {
        let DbInner {
            network: net,
            optical: opt,
            cluster,
            ..
        } = db;
        // Malformed-proposal guard first: the weakest planned flow must
        // clear the floor the proposal itself declared.
        let weakest = p
            .schedule
            .broadcast
            .min_rate_gbps()
            .min(p.schedule.upload.min_rate_gbps());
        if weakest + 1e-9 < p.claims.rate_floor_gbps {
            return Err(Conflict::RateFloorViolated {
                rate_gbps: weakest,
                floor_gbps: p.claims.rate_floor_gbps,
            });
        }
        for slot in &p.claims.server_slots {
            if cluster.server(*slot).is_err() {
                return Err(Conflict::MissingServer { node: *slot });
            }
        }
        for c in &p.claims.links {
            let link = c.link.link;
            if net.is_down(link) {
                return Err(Conflict::LinkDown { link });
            }
            let mut available = net.residual_gbps(c.link).map_err(|_| Conflict::StaleLink {
                link,
                claimed_gbps: c.gbps,
                available_gbps: 0.0,
            })?;
            match held {
                Held::Credit(credit) => {
                    if let Ok(i) = credit.binary_search_by(|(dl, _)| dl.cmp(&c.link)) {
                        available += credit[i].1;
                    }
                }
                Held::Debit(debit) => {
                    if let Some(gbps) = debit.get(&c.link) {
                        available -= gbps;
                    }
                }
            }
            if c.gbps > available + 1e-9 {
                return Err(Conflict::StaleLink {
                    link,
                    claimed_gbps: c.gbps,
                    available_gbps: available,
                });
            }
        }
        for w in &p.claims.wavelengths {
            if !opt.can_carry(w.link, w.demand_gbps) {
                return Err(Conflict::WavelengthTaken { link: w.link });
            }
        }
        Ok(())
    }

    /// The single typed entry point: validate and atomically apply an
    /// [`Intent`] — admission or migration. An admission commits as a gang
    /// of one ([`apply_gang`](Committer::apply_gang)); its member's
    /// conflict comes back as a plain rejection. A migration stores the
    /// replacement over the running schedule, which swaps their
    /// reservations.
    ///
    /// # Errors
    /// [`crate::OrchError::Rejected`] with the precise [`Conflict`] when
    /// the intent's claims no longer hold; the database is left
    /// bit-identical in that case (validation is read-only and runs before
    /// any mutation).
    pub fn apply(&mut self, db: &Database, intent: Intent<'_>) -> Result<CommitReceipt> {
        match intent {
            Intent::Admit { proposal } => match self.apply_gang(db, &[proposal], Validation::Fit) {
                Ok(mut receipts) => Ok(receipts.pop().expect("one receipt per member")),
                Err(crate::OrchError::GangRejected(GangConflict { conflict, .. })) => {
                    Err(crate::OrchError::Rejected(conflict))
                }
                Err(e) => Err(e),
            },
            Intent::Migrate { old, proposal } => self.migrate_inner(db, old, proposal),
        }
    }

    /// Gang-admit a ready stage frontier: validate **every** member, then
    /// store **every** member (reserving its bandwidth) and groom its
    /// wavelengths, under one write lock — all or nothing.
    ///
    /// Members validate in gang order against live state *debited* with
    /// the link claims of the members before them (the mirror image of the
    /// migration path's credit), so a gang cannot jointly oversubscribe a
    /// link that each member alone would fit. The first member that fails
    /// rejects the whole gang with [`OrchError::GangRejected`](crate::OrchError::GangRejected) carrying
    /// its index and typed [`Conflict`]; validation is read-only and runs
    /// before any mutation, so a rejected gang leaves the database
    /// bit-identical — version counters, grooming and ledger included.
    ///
    /// Wavelength pressure *within* a gang is deliberately not debited:
    /// grooming is best-effort at install time (a shortage never blocks an
    /// IP-layer schedule), so two members contending for the last free
    /// wavelength behave exactly like two back-to-back admissions — the
    /// later one falls back to grey spectrum.
    ///
    /// Counters advance by the gang size on success, one rejection on
    /// failure (the gang rejects as a unit).
    ///
    /// # Errors
    /// [`OrchError::GangRejected`](crate::OrchError::GangRejected) when a
    /// member's claims no longer hold; other [`OrchError`](crate::OrchError)
    /// variants only for malformed schedules (nothing stored either way —
    /// a failed store takes back the members stored before it).
    pub fn apply_gang(
        &mut self,
        db: &Database,
        gang: &[&Proposal],
        _validation: Validation,
    ) -> Result<Vec<CommitReceipt>> {
        let (groom, walk) = (&mut self.groom, &mut self.walk);
        let outcome = db.transact(|db| -> Result<Vec<CommitReceipt>> {
            // Phase 1 — read-only joint validation. `debit` accumulates
            // the earlier members' link claims.
            let mut debit = BTreeMap::new();
            for (member, p) in gang.iter().enumerate() {
                Self::validate(p, db, Held::Debit(&debit)).map_err(|conflict| {
                    crate::OrchError::GangRejected(GangConflict { member, conflict })
                })?;
                if member + 1 < gang.len() {
                    for c in &p.claims.links {
                        *debit.entry(c.link).or_insert(0.0) += c.gbps;
                    }
                }
            }
            // Phase 2 — all claims hold jointly: store every member.
            for (k, p) in gang.iter().enumerate() {
                if let Err(e) = db.store(p.schedule.clone()) {
                    // Unreachable when the debited validation was exact;
                    // kept so a floating-point edge cannot leave a partial
                    // gang stored.
                    for stored in &gang[..k] {
                        db.take(stored.schedule.task);
                    }
                    return Err(e);
                }
            }
            // Phase 3 — groom every member.
            Ok(gang
                .iter()
                .map(|p| CommitReceipt {
                    task: p.schedule.task,
                    groomed: groom_chains(groom, walk, &mut db.optical, &p.schedule),
                })
                .collect())
        });
        match &outcome {
            Ok(r) => self.commits += r.len() as u64,
            Err(_) => self.rejections += 1,
        }
        outcome
    }

    /// Free a committed task's groomed wavelengths (its bandwidth is
    /// released when its schedule is taken, [`Database::take_schedule`]).
    pub fn release(&mut self, db: &Database, groomed: &[u64]) {
        db.write(|_, opt, _| {
            for d in groomed {
                let _ = self.groom.release(opt, *d);
            }
        });
    }

    fn migrate_inner(
        &mut self,
        db: &Database,
        old: &Schedule,
        p: &Proposal,
    ) -> Result<CommitReceipt> {
        let outcome = db.transact(|db| -> Result<CommitReceipt> {
            // Validate first, crediting the old schedule's reservations —
            // the capacity the swap frees. Nothing has been touched yet, so
            // a rejection leaves the database bit-identical, version
            // counters included (`tests/migrate_conflicts.rs` pins this).
            let credit = old.aggregated_reservations(db.network.topo())?;
            Self::validate(p, db, Held::Credit(&credit)).map_err(crate::OrchError::Rejected)?;
            // Storing over the running schedule swaps the reservations,
            // or leaves the old ones in place when the new do not fit.
            db.store(p.schedule.clone())?;
            Ok(CommitReceipt {
                task: p.schedule.task,
                groomed: Vec::new(),
            })
        });
        match &outcome {
            Ok(_) => self.commits += 1,
            Err(_) => self.rejections += 1,
        }
        outcome
    }

    /// Lifetime (commits, rejections) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.commits, self.rejections)
    }

    /// Grooming statistics: (lightpath reuse hits, new wavelengths lit).
    pub fn groom_stats(&self) -> (u64, u64) {
        (self.groom.reuse_hits(), self.groom.new_lights())
    }

    /// The grooming manager's work counts.
    pub(crate) fn groom_work(&self) -> flexsched_optical::GroomWork {
        self.groom.work()
    }

    /// The state invariant as far as the committer sees it: `db`'s clauses,
    /// then its grooming manager's `grooming`.
    pub fn check_invariants(
        &self,
        db: &Database,
    ) -> std::result::Result<(), (&'static str, String)> {
        db.check_invariants()?;
        db.read(|_, opt, _| self.groom.check_invariants(opt))
    }
}

/// Groom a schedule's directed walks — per-local paths for path plans,
/// significant-node chains for tree plans — onto wavelengths, returning
/// the demand ids that hold them. Best-effort, per walk: a wavelength
/// shortage does not block the IP-layer schedule, mirroring a
/// grey-spectrum fallback.
fn groom_chains(
    groom: &mut GroomingManager,
    walk: &mut ChainWalk,
    opt: &mut OpticalState,
    schedule: &Schedule,
) -> Vec<u64> {
    let mut groomed = Vec::new();
    let mut place = |nodes: &[NodeId], links: &[LinkId]| {
        let demand = schedule.demand_gbps;
        if let Ok(d) = groom.groom_walk(opt, nodes, links, demand) {
            groomed.push(d);
        }
    };
    for plan in [&schedule.broadcast, &schedule.upload] {
        match plan {
            flexsched_sched::RoutingPlan::Paths(map) => {
                for rp in map.values() {
                    place(&rp.path.nodes, &rp.path.links);
                }
            }
            flexsched_sched::RoutingPlan::Tree { tree, .. } => {
                tree.for_each_chain(walk, &mut place);
            }
        }
    }
    groomed
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
    use flexsched_sched::{FlexibleMst, NetworkSnapshot, Scheduler};
    use flexsched_simnet::NetworkState;
    use flexsched_task::AiTask;
    use flexsched_topo::{builders, Path};
    use std::sync::Arc;

    fn rig(locals: usize) -> (Database, AiTask) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let servers = topo.servers();
        let task = AiTask {
            id: flexsched_task::TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..=locals].to_vec(),
            data_utility: Default::default(),
            iterations: 3,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        (db, task)
    }

    /// The live network and optical state, frozen.
    fn snapshot(db: &Database) -> NetworkSnapshot {
        db.read(|net, opt, _| NetworkSnapshot::capture(net).with_optical(opt))
    }

    fn propose(db: &Database, task: &AiTask) -> Proposal {
        let snap = snapshot(db);
        FlexibleMst::paper()
            .propose_once(task, &task.local_sites, &snap)
            .unwrap()
    }

    #[test]
    fn commit_installs_and_release_round_trips() {
        let (db, task) = rig(5);
        let p = propose(&db, &task);
        let mut committer = Committer::new();
        let receipt = committer.apply(&db, Intent::admit(&p)).unwrap();
        assert_eq!(receipt.task, task.id);
        assert!(db.schedule(task.id).is_some(), "a commit stores");
        assert!(db.total_reserved_gbps() > 0.0);
        db.take_schedule(receipt.task).unwrap();
        committer.release(&db, &receipt.groomed);
        assert!(db.total_reserved_gbps().abs() < 1e-9);
        assert_eq!(committer.counters(), (1, 0));
    }

    #[test]
    fn stale_capacity_is_rejected_without_mutation() {
        let (db, task) = rig(5);
        let p = propose(&db, &task);
        // Take the capacity out from under the proposal.
        let victim = p.claims.links[0].link;
        db.write(|net, _, _| {
            let res = net.residual_gbps(victim).unwrap();
            net.add_background(victim, res).unwrap();
        });
        let before = db.read(|net, _, _| format!("{net:?}"));
        let mut committer = Committer::new();
        let err = committer.apply(&db, Intent::admit(&p)).unwrap_err();
        assert!(
            matches!(err, crate::OrchError::Rejected(Conflict::StaleLink { .. })),
            "{err}"
        );
        let after = db.read(|net, _, _| format!("{net:?}"));
        assert_eq!(before, after, "rejected commit must not touch state");
        assert_eq!(committer.counters(), (0, 1));
    }

    #[test]
    fn down_link_is_a_typed_conflict() {
        let (db, task) = rig(4);
        let p = propose(&db, &task);
        let victim = p.claims.links[0].link.link;
        db.write(|net, _, _| net.set_down(victim, true).unwrap());
        let mut committer = Committer::new();
        assert!(matches!(
            committer.apply(&db, Intent::admit(&p)),
            Err(crate::OrchError::Rejected(Conflict::LinkDown { link })) if link == victim
        ));
    }

    #[test]
    fn rate_floor_violations_are_typed() {
        let (db, task) = rig(3);
        let mut p = propose(&db, &task);
        p.claims.rate_floor_gbps = f64::INFINITY;
        let mut committer = Committer::new();
        assert!(matches!(
            committer.apply(&db, Intent::admit(&p)),
            Err(crate::OrchError::Rejected(
                Conflict::RateFloorViolated { .. }
            ))
        ));
    }

    #[test]
    fn missing_server_slot_is_typed() {
        let (db, task) = rig(3);
        let mut p = propose(&db, &task);
        p.claims.server_slots.push(flexsched_topo::NodeId(0)); // a ROADM
        let mut committer = Committer::new();
        assert!(matches!(
            committer.apply(&db, Intent::admit(&p)),
            Err(crate::OrchError::Rejected(Conflict::MissingServer { .. }))
        ));
    }

    #[test]
    fn wavelength_exhaustion_is_typed_and_mutation_free() {
        let (db, task) = rig(8);
        // Propose WITH an optical view so the proposal carries wavelength
        // claims.
        let p = {
            let snap = snapshot(&db);
            FlexibleMst::paper()
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
        };
        assert!(!p.claims.wavelengths.is_empty());
        // Exhaust every wavelength on one claimed multi-wavelength link.
        let victim = p
            .claims
            .wavelengths
            .iter()
            .map(|w| w.link)
            .find(|l| db.read(|net, _, _| net.topo().link(*l).unwrap().wavelengths > 1))
            .expect("metro schedules cross WDM spans");
        db.write(|net, opt, _| {
            let link = net.topo().link(victim).unwrap().clone();
            let hop = Path::new(vec![link.a, link.b], vec![victim]).unwrap();
            // Light every wavelength AND fill each lightpath to capacity so
            // no groomable headroom is left across the victim.
            while let Ok(id) = opt.establish(hop.clone()) {
                let cap = opt.lightpath(id).unwrap().capacity_gbps;
                opt.add_groomed(id, cap).unwrap();
            }
        });
        let before = db.read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")));
        let mut committer = Committer::new();
        let err = committer.apply(&db, Intent::admit(&p)).unwrap_err();
        assert!(
            matches!(
                err,
                crate::OrchError::Rejected(Conflict::WavelengthTaken { link }) if link == victim
            ),
            "{err}"
        );
        let after = db.read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")));
        assert_eq!(before, after, "rejection must leave both layers intact");
    }

    #[test]
    fn migrate_swaps_schedules_atomically() {
        let (db, task) = rig(5);
        let p1 = propose(&db, &task);
        let mut committer = Committer::new();
        let r1 = committer.apply(&db, Intent::admit(&p1)).unwrap();
        let reserved_before = db.total_reserved_gbps();
        // Re-propose against the freed hypothetical and migrate.
        let p2 = {
            let without = db.read(|net, _, _| {
                let mut w = net.clone();
                p1.schedule.release(&mut w).unwrap();
                w
            });
            let snap = NetworkSnapshot::capture(&without);
            FlexibleMst::paper()
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
        };
        committer
            .apply(&db, Intent::migrate(&p1.schedule, &p2))
            .unwrap();
        assert_eq!(db.schedule(task.id), Some(p2.schedule));
        // Same task, same demand: the reserved totals match.
        assert!((db.total_reserved_gbps() - reserved_before).abs() < 1e-6);
        db.take_schedule(task.id).unwrap();
        committer.release(&db, &r1.groomed);
        assert!(db.total_reserved_gbps().abs() < 1e-9);
    }
}
