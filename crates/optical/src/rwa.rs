//! Routing and wavelength assignment (RWA) state.
//!
//! [`OpticalState`] tracks, for every fiber and wavelength, which lightpath
//! holds it. Establishing a lightpath enforces the *wavelength continuity
//! constraint*: the same wavelength index must be free on every hop of the
//! optical segment. Electrical nodes (IP routers, servers) regenerate the
//! signal, so paths crossing them are split into independently-assigned
//! segments — which is also how wavelength conversion happens in the
//! testbed (OEO at the routers).
//!
//! Every new lightpath takes the lowest wavelength index free on all of its
//! hops: the *first fit* of the paper's SPFF baseline, and the rule its
//! flexible scheduler lights wavelengths by too.
//!
//! The lightpath registry is an array in id order (see [`OpticalState`]).
//! Grooming's best fit probes an endpoint index once and looks up that
//! endpoint pair's lightpaths by id.

use crate::error::OpticalError;
use crate::groom::GroomWork;
use crate::lightpath::{Lightpath, LightpathId};
use crate::wavelength::WavelengthId;
use crate::Result;
use flexsched_topo::{LinkId, NodeId, Path, Topology};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Number of wavelengths per occupancy word.
pub(crate) const WORD_BITS: usize = 64;

/// Words needed to cover a grid of `grid` wavelengths.
#[inline]
pub(crate) fn words_for(grid: u16) -> usize {
    (grid as usize).div_ceil(WORD_BITS)
}

/// Mask of the valid bits of word `word` for a grid of `grid` wavelengths.
#[inline]
pub(crate) fn grid_word_mask(grid: u16, word: usize) -> u64 {
    let lo = word * WORD_BITS;
    let hi = (grid as usize).min(lo + WORD_BITS);
    if hi <= lo {
        0
    } else if hi - lo == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << (hi - lo)) - 1
    }
}

/// Grid size of `link`, or an error for unknown links.
pub(crate) fn grid_of(topo: &Topology, link: LinkId) -> Result<u16> {
    Ok(topo.link(link)?.wavelengths.max(1))
}

/// Whether any wavelength of a `grid`-wide link is free in its busy
/// (occupied ∪ impaired) words.
#[inline]
pub(crate) fn any_free(grid: u16, busy: impl IntoIterator<Item = u64>) -> bool {
    busy.into_iter()
        .enumerate()
        .any(|(i, busy)| !busy & grid_word_mask(grid, i) != 0)
}

/// Number of free wavelengths of a `grid`-wide link with busy words
/// `busy`: one popcount per word.
#[inline]
pub(crate) fn count_free(grid: u16, busy: impl IntoIterator<Item = u64>) -> u32 {
    busy.into_iter()
        .enumerate()
        .map(|(i, busy)| (!busy & grid_word_mask(grid, i)).count_ones())
        .sum()
}

/// The continuity intersection over `path`, given each link's busy words:
/// bit `w` of word `i` is set iff wavelength `64 * i + w` is free on every
/// hop. Truncated to the smallest grid among the path's links; empty for
/// trivial paths.
pub(crate) fn path_free_mask<W: IntoIterator<Item = u64>>(
    topo: &Topology,
    path: &Path,
    busy_words: impl Fn(LinkId) -> W,
) -> Result<Vec<u64>> {
    if path.links.is_empty() {
        return Ok(Vec::new());
    }
    let mut grid = u16::MAX;
    for l in &path.links {
        grid = grid.min(grid_of(topo, *l)?);
    }
    let mut mask: Vec<u64> = (0..words_for(grid))
        .map(|i| grid_word_mask(grid, i))
        .collect();
    for l in &path.links {
        for (m, busy) in mask.iter_mut().zip(busy_words(*l)) {
            *m &= !busy;
        }
    }
    Ok(mask)
}

/// Wavelength occupancy and lightpath registry.
///
/// Occupancy and impairment are tracked twice: as per-slot holder ids
/// (`occupancy`, the registry the invariants are audited against) and as
/// per-link `u64` bitmask words (bit set = occupied / impaired) that the
/// continuity intersection ANDs across hops — one word operation covers 64
/// wavelengths, so [`choose_wavelength`](OpticalState::choose_wavelength)
/// costs O(hops × grid/64). The words of all links lie back to back in one
/// array, so a snapshot freezes them in one pass (schedulers read the
/// frozen copy, [`OpticalSnapshot`](crate::snapshot::OpticalSnapshot)).
/// Commit validation and the reschedule triage ask the live state per
/// link through [`can_carry`](OpticalState::can_carry), which reads that
/// link's words and `occupancy` row: the row's holders are exactly the
/// live lightpaths crossing the link. An endpoint index answers
/// grooming's "which lightpath between these two nodes fits best" without
/// visiting the rest of the registry.
///
/// The registry is one array of the live lightpaths, ascending by id.
/// Ids are handed out in increasing order and never reused, so
/// establishing appends, a lookup by id is a binary search and a teardown
/// removes in place.
#[derive(Clone)]
pub struct OpticalState {
    topo: Arc<Topology>,
    /// `occupancy[link][w]` = holder of wavelength `w` on that fiber.
    /// Written by `establish_on` and `teardown` only, so a row's holders
    /// are the live lightpaths crossing that link (`check_invariants`).
    occupancy: Vec<Vec<Option<LightpathId>>>,
    /// Link `l`'s bitmask words are `word_offsets[l]..word_offsets[l + 1]`
    /// of `occupied` and `impaired`. Fixed by the topology; snapshots share
    /// the handle.
    word_offsets: Arc<[usize]>,
    /// Bit `w` of a link's words set iff `w` is occupied.
    occupied: Vec<u64>,
    /// Bit `w` of a link's words set iff `w` is degraded by a soft failure.
    impaired: Vec<u64>,
    /// The live lightpaths, strictly ascending by id.
    lightpaths: Vec<Lightpath>,
    /// `(source, destination)` → ids of the live lightpaths between them,
    /// ascending; no empty buckets. Maintained by `establish_on` and
    /// `teardown`, the only two places the registry changes.
    by_endpoints: BTreeMap<(NodeId, NodeId), Vec<LightpathId>>,
    next_id: u64,
    /// Global mutation stamp: increments whenever occupancy, impairment or
    /// grooming changes anywhere.
    version: u64,
}

/// The state as the golden fingerprints of the orchestrator's tests were
/// recorded from it: spectrum words listed per link, a `usage` row
/// (occupied slots per wavelength index, counted from `occupancy`), and no
/// endpoint index — that is derived from the registry, and audited against
/// it by `check_invariants`, not part of the state's identity. The
/// registry prints as an id → lightpath map, the layout those goldens
/// were recorded in.
impl fmt::Debug for OpticalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per_link = |words: &'_ [u64]| -> Vec<Vec<u64>> {
            self.word_offsets
                .windows(2)
                .map(|w| words[w[0]..w[1]].to_vec())
                .collect()
        };
        f.debug_struct("OpticalState")
            .field("topo", &self.topo)
            .field("occupancy", &self.occupancy)
            .field("occupied", &per_link(&self.occupied))
            .field("impaired", &per_link(&self.impaired))
            .field("usage", &self.usage_row())
            .field("lightpaths", &ById(&self.lightpaths))
            .field("next_id", &self.next_id)
            .field("version", &self.version)
            .finish()
    }
}

impl OpticalState {
    /// Fresh state over a topology: everything free, nothing impaired.
    pub fn new(topo: Arc<Topology>) -> Self {
        let occupancy = topo
            .links()
            .iter()
            .map(|l| vec![None; l.wavelengths.max(1) as usize])
            .collect();
        let mut word_offsets = Vec::with_capacity(topo.link_count() + 1);
        let mut words = 0;
        word_offsets.push(words);
        for l in topo.links() {
            words += words_for(l.wavelengths.max(1));
            word_offsets.push(words);
        }
        OpticalState {
            topo,
            occupancy,
            word_offsets: word_offsets.into(),
            occupied: vec![0; words],
            impaired: vec![0; words],
            lightpaths: Vec::new(),
            by_endpoints: BTreeMap::new(),
            next_id: 0,
            version: 0,
        }
    }

    /// Global mutation stamp: increments on every establish/teardown,
    /// impairment change and grooming change.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether some established lightpath crossing `link` still has at
    /// least `gbps` of groomable headroom; false for unknown links. The
    /// lightpaths crossing `link` are exactly the holders in its
    /// `occupancy` row (`check_invariants` audits that), so this reads that
    /// row only: O(grid + holders × log lightpaths).
    ///
    /// The groomable half of [`can_carry`](OpticalState::can_carry), which
    /// answers on live state for the committer's claim validation, the
    /// rescheduler's dead-link triage (`repair::crosses_dead_link`) and the
    /// event driver's per-check triage of every running task
    /// (`Database::schedule_crosses_dead_link`). Schedulers read the
    /// snapshot's copy, [`OpticalSnapshot::groomable_across`](crate::snapshot::OpticalSnapshot::groomable_across).
    pub fn groomable_across(&self, link: LinkId, gbps: f64) -> bool {
        self.occupancy
            .get(link.index())
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|id| self.get(*id))
            .any(|lp| lp.residual_gbps() + 1e-9 >= gbps)
    }

    /// Position of live lightpath `id` in the registry.
    #[inline]
    fn position(&self, id: LightpathId) -> Option<usize> {
        self.lightpaths.binary_search_by_key(&id, |lp| lp.id).ok()
    }

    /// Live lightpath `id`.
    #[inline]
    fn get(&self, id: LightpathId) -> Option<&Lightpath> {
        self.position(id).map(|at| &self.lightpaths[at])
    }

    /// Live lightpath `id`, mutably.
    fn get_mut(&mut self, id: LightpathId) -> Result<&mut Lightpath> {
        let at = self
            .position(id)
            .ok_or(OpticalError::UnknownLightpath(id))?;
        Ok(&mut self.lightpaths[at])
    }

    /// Live lightpaths from `src` to `dst`, ascending by id.
    fn between(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = &Lightpath> {
        self.by_endpoints
            .get(&(src, dst))
            .into_iter()
            .flatten()
            .map(|id| self.get(*id).expect("the endpoint index holds live ids"))
    }

    /// Whether some established lightpath from `src` to `dst` still has at
    /// least `gbps` of groomable headroom.
    pub fn groomable_between(&self, src: NodeId, dst: NodeId, gbps: f64) -> bool {
        self.between(src, dst)
            .any(|lp| lp.residual_gbps() + 1e-9 >= gbps)
    }

    /// The lightpath grooming packs `gbps` from `src` to `dst` onto: among
    /// the established ones with those endpoints and at least `gbps` of
    /// headroom, the one with the least residual (best fit), the lowest id
    /// on ties. Visits that endpoint pair's lightpaths only, and counts the
    /// index probe and each candidate's lookup in `work`.
    pub(crate) fn best_fit(
        &self,
        src: NodeId,
        dst: NodeId,
        gbps: f64,
        work: &mut GroomWork,
    ) -> Option<LightpathId> {
        work.endpoint_probes += 1;
        self.between(src, dst)
            .inspect(|_| work.registry_lookups += 1)
            .filter(|lp| lp.residual_gbps() + 1e-9 >= gbps)
            .min_by(|a, b| {
                a.residual_gbps()
                    .partial_cmp(&b.residual_gbps())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.id.cmp(&b.id))
            })
            .map(|lp| lp.id)
    }

    /// The `spectrum` clause of the state invariant: occupied bits ⇔ slot
    /// holders ⇔ live lightpaths on those links and wavelengths, and the
    /// endpoint index is the registry's.
    pub fn check_invariants(&self) -> std::result::Result<(), (&'static str, String)> {
        let broken = |what: String| Err(("spectrum", what));
        for (l, slots) in self.occupancy.iter().enumerate() {
            let words = &self.occupied[self.word_offsets[l]..];
            for (w, slot) in slots.iter().enumerate() {
                let bit = words[w / WORD_BITS] >> (w % WORD_BITS) & 1 == 1;
                let crosses = |lp: &Lightpath| {
                    lp.wavelength.index() == w && lp.path.links.iter().any(|x| x.index() == l)
                };
                let live = |id| self.get(id).is_some_and(crosses);
                if bit != slot.is_some() || slot.is_some_and(|id| !live(id)) {
                    return broken(format!("(l{l}, w{w}): bit {bit}, holder {slot:?}"));
                }
            }
        }
        if let Some(w) = self.lightpaths.windows(2).find(|w| w[0].id >= w[1].id) {
            return broken(format!("the registry lists {} before {}", w[0].id, w[1].id));
        }
        let mut index: BTreeMap<(NodeId, NodeId), Vec<LightpathId>> = BTreeMap::new();
        for lp in &self.lightpaths {
            let holds =
                |l: &LinkId| self.occupancy[l.index()][lp.wavelength.index()] == Some(lp.id);
            if !lp.path.links.iter().all(holds) {
                return broken(format!("{} misses a slot of its own", lp.id));
            }
            // Ascending ids, as `establish_on` pushes them.
            let ends = (lp.source(), lp.destination());
            index.entry(ends).or_default().push(lp.id);
        }
        if index != self.by_endpoints {
            return broken("the endpoint index is not the registry's".to_string());
        }
        Ok(())
    }

    /// Freeze the current occupancy into an immutable, `Send + Sync`
    /// [`OpticalSnapshot`](crate::snapshot::OpticalSnapshot) for the
    /// snapshot → propose → commit pipeline.
    pub fn snapshot(&self) -> crate::snapshot::OpticalSnapshot {
        crate::snapshot::OpticalSnapshot::capture(self)
    }

    /// Internal accessors for snapshot capture.
    pub(crate) fn raw_parts(&self) -> RawOpticalState<'_> {
        RawOpticalState {
            word_offsets: &self.word_offsets,
            occupied: &self.occupied,
            impaired: &self.impaired,
            lightpaths: &self.lightpaths,
        }
    }

    /// The underlying topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Shared handle to the topology.
    pub(crate) fn topo_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topo)
    }

    /// Busy (occupied ∪ impaired) words of a known `link`.
    #[inline]
    fn busy_words(&self, link: LinkId) -> impl Iterator<Item = u64> + '_ {
        let words = self.word_offsets[link.index()]..self.word_offsets[link.index() + 1];
        self.occupied[words.clone()]
            .iter()
            .zip(&self.impaired[words])
            .map(|(o, i)| o | i)
    }

    /// Whether `w` is free (unoccupied and unimpaired) on `link`.
    pub fn is_free(&self, link: LinkId, w: WavelengthId) -> Result<bool> {
        let slots = self
            .occupancy
            .get(link.index())
            .ok_or(flexsched_topo::TopoError::UnknownLink(link))?;
        if w.index() >= slots.len() {
            return Err(OpticalError::WavelengthOutOfRange {
                link,
                wavelength: w,
            });
        }
        let word = self.word_offsets[link.index()] + w.index() / WORD_BITS;
        let busy = (self.occupied[word] | self.impaired[word]) >> (w.index() % WORD_BITS) & 1;
        Ok(busy == 0)
    }

    /// Whether any wavelength is free on `link` — O(grid/64) words, used by
    /// the scheduler's per-link weight function.
    pub fn has_free_wavelength(&self, link: LinkId) -> Result<bool> {
        Ok(any_free(grid_of(&self.topo, link)?, self.busy_words(link)))
    }

    /// Whether `link` can still carry `gbps` optically: a free wavelength,
    /// or groomable headroom on a lightpath crossing it. False for unknown
    /// links. The one "still carries the demand" rule on live state: the
    /// committer's claim validation, the rescheduler's dead-link triage
    /// (`repair::crosses_dead_link`) and, through
    /// `Database::schedule_crosses_dead_link`, the event driver's triage
    /// of every running task at every periodic check all ask it. Costs
    /// O(grid/64) words plus the link's own wavelength holders
    /// ([`groomable_across`](OpticalState::groomable_across)).
    pub fn can_carry(&self, link: LinkId, gbps: f64) -> bool {
        self.has_free_wavelength(link).unwrap_or(false) || self.groomable_across(link, gbps)
    }

    /// Number of free (unoccupied, unimpaired) wavelengths on `link` —
    /// the continuity-set headroom the wavelength-aware tree weight folds
    /// into the auxiliary graph. O(grid/64) popcounts.
    pub fn free_wavelength_count(&self, link: LinkId) -> Result<u32> {
        Ok(count_free(
            grid_of(&self.topo, link)?,
            self.busy_words(link),
        ))
    }

    /// Free-wavelength bitmask words for `path` (continuity intersection):
    /// bit `w` of word `i` is set iff wavelength `64 * i + w` is free on
    /// every hop. Truncated to the smallest grid among the path's links;
    /// empty for trivial paths.
    pub fn free_mask_on_path(&self, path: &Path) -> Result<Vec<u64>> {
        path_free_mask(&self.topo, path, |l| self.busy_words(l))
    }

    /// Occupied (link, `w`) slots per wavelength index `w`, over the widest
    /// grid in the topology (one slot if it has no links).
    fn usage_row(&self) -> Vec<u32> {
        let grid = self.occupancy.iter().map(Vec::len).max().unwrap_or(1);
        let mut usage = vec![0; grid];
        for slots in &self.occupancy {
            for (count, slot) in usage.iter_mut().zip(slots) {
                *count += u32::from(slot.is_some());
            }
        }
        usage
    }

    /// First fit: the lowest wavelength free on every hop of `path`.
    ///
    /// # Errors
    /// [`OpticalError::NoFreeWavelength`] if the continuity set is empty.
    pub fn choose_wavelength(&self, path: &Path) -> Result<WavelengthId> {
        // The continuity intersection one word at a time, stopping at the
        // first word with a free bit.
        if path.links.is_empty() {
            return Err(OpticalError::NoFreeWavelength);
        }
        let mut grid = u16::MAX;
        for l in &path.links {
            grid = grid.min(grid_of(&self.topo, *l)?);
        }
        (0..words_for(grid))
            .find_map(|i| {
                let free = path.links.iter().fold(grid_word_mask(grid, i), |free, l| {
                    let word = self.word_offsets[l.index()] + i;
                    free & !(self.occupied[word] | self.impaired[word])
                });
                (free != 0)
                    .then(|| WavelengthId((i * WORD_BITS + free.trailing_zeros() as usize) as u16))
            })
            .ok_or(OpticalError::NoFreeWavelength)
    }

    /// Establish a lightpath on `path` with an explicit wavelength.
    pub fn establish_on(&mut self, path: Path, w: WavelengthId) -> Result<LightpathId> {
        // Validate first so we never partially mark occupancy.
        for l in &path.links {
            if !self.is_free(*l, w)? {
                return Err(OpticalError::WavelengthBusy {
                    link: *l,
                    wavelength: w,
                });
            }
        }
        let id = LightpathId(self.next_id);
        self.next_id += 1;
        self.version += 1;
        let mut capacity = f64::INFINITY;
        for l in &path.links {
            self.occupancy[l.index()][w.index()] = Some(id);
            self.occupied[self.word_offsets[l.index()] + w.index() / WORD_BITS] |=
                1 << (w.index() % WORD_BITS);
            capacity = capacity.min(self.topo.link(*l)?.channel_gbps());
        }
        if !capacity.is_finite() {
            capacity = 0.0;
        }
        // Ids only grow, so pushing keeps the bucket and the registry
        // ascending.
        self.by_endpoints
            .entry((path.source(), path.destination()))
            .or_default()
            .push(id);
        self.lightpaths.push(Lightpath {
            id,
            path,
            wavelength: w,
            capacity_gbps: capacity,
            groomed_gbps: 0.0,
        });
        Ok(id)
    }

    /// Establish a lightpath on `path` on the first-fit wavelength.
    pub fn establish(&mut self, path: Path) -> Result<LightpathId> {
        let w = self.choose_wavelength(&path)?;
        self.establish_on(path, w)
    }

    /// Establish lightpaths along a possibly electro-optical route, splitting
    /// at every electrical node (router/server) where the signal regenerates.
    /// Returns the per-segment lightpath ids, in path order. All-or-nothing.
    #[cfg(test)]
    pub(crate) fn establish_route(&mut self, path: &Path) -> Result<Vec<LightpathId>> {
        let segments = split_at_electrical(&self.topo, path)?;
        let mut ids = Vec::with_capacity(segments.len());
        for seg in segments {
            match self.establish(seg) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    for id in ids {
                        let _ = self.teardown(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(ids)
    }

    /// Tear a lightpath down, freeing its wavelength on every hop.
    pub fn teardown(&mut self, id: LightpathId) -> Result<Lightpath> {
        let at = self
            .position(id)
            .ok_or(OpticalError::UnknownLightpath(id))?;
        let lp = self.lightpaths.remove(at);
        let w = lp.wavelength.index();
        self.version += 1;
        for l in &lp.path.links {
            self.occupancy[l.index()][w] = None;
            self.occupied[self.word_offsets[l.index()] + w / WORD_BITS] &= !(1 << (w % WORD_BITS));
        }
        let ends = (lp.source(), lp.destination());
        let bucket = self
            .by_endpoints
            .get_mut(&ends)
            .expect("a live lightpath is indexed under its endpoints");
        let at = bucket
            .binary_search(&id)
            .expect("a live lightpath is indexed under its endpoints");
        bucket.remove(at);
        if bucket.is_empty() {
            self.by_endpoints.remove(&ends);
        }
        Ok(lp)
    }

    /// Access an established lightpath.
    pub fn lightpath(&self, id: LightpathId) -> Result<&Lightpath> {
        self.get(id).ok_or(OpticalError::UnknownLightpath(id))
    }

    /// All established lightpaths, in id order.
    pub fn lightpaths(&self) -> impl Iterator<Item = &Lightpath> {
        self.lightpaths.iter()
    }

    /// Number of established lightpaths.
    pub fn lightpath_count(&self) -> usize {
        self.lightpaths.len()
    }

    /// Add groomed bandwidth to a lightpath (used by the grooming manager).
    pub fn add_groomed(&mut self, id: LightpathId, gbps: f64) -> Result<()> {
        let lp = self.get_mut(id)?;
        if gbps > lp.residual_gbps() + 1e-9 {
            return Err(OpticalError::InsufficientLightpathCapacity {
                lightpath: id,
                requested_gbps: gbps,
                available_gbps: lp.residual_gbps(),
            });
        }
        lp.groomed_gbps += gbps;
        self.version += 1;
        Ok(())
    }

    /// Remove groomed bandwidth from a lightpath.
    pub fn remove_groomed(&mut self, id: LightpathId, gbps: f64) -> Result<()> {
        let lp = self.get_mut(id)?;
        lp.groomed_gbps = (lp.groomed_gbps - gbps).max(0.0);
        self.version += 1;
        Ok(())
    }

    /// Mark a wavelength on a link impaired (soft failure) or restored.
    /// Existing lightpaths keep their assignment; new ones avoid it.
    pub fn set_impaired(&mut self, link: LinkId, w: WavelengthId, impaired: bool) -> Result<()> {
        let grid = grid_of(&self.topo, link)?;
        if w.0 >= grid {
            return Err(OpticalError::WavelengthOutOfRange {
                link,
                wavelength: w,
            });
        }
        let bit = 1u64 << (w.index() % WORD_BITS);
        let word = &mut self.impaired[self.word_offsets[link.index()] + w.index() / WORD_BITS];
        if impaired {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        self.version += 1;
        Ok(())
    }

    /// Fraction of (link, wavelength) slots currently occupied.
    pub fn wavelength_utilization(&self) -> f64 {
        let total: usize = self.occupancy.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let used: usize = self
            .occupancy
            .iter()
            .flat_map(|s| s.iter())
            .filter(|s| s.is_some())
            .count();
        used as f64 / total as f64
    }
}

/// Borrowed internals, as handed to snapshot capture.
pub(crate) struct RawOpticalState<'a> {
    /// Per-link word ranges of `occupied` / `impaired`.
    pub word_offsets: &'a Arc<[usize]>,
    pub occupied: &'a [u64],
    pub impaired: &'a [u64],
    /// The registry, ascending by id.
    pub lightpaths: &'a [Lightpath],
}

/// A registry printed as the map from id to lightpath it is ordered by.
struct ById<'a>(&'a [Lightpath]);

impl fmt::Debug for ById<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|lp| (&lp.id, lp)))
            .finish()
    }
}

/// Where the maximal optical segments of the walk over `nodes` end: the
/// (exclusive) hop index of every cut, ascending, the last one the hop
/// count. A cut falls at every interior node that is electrical (router or
/// server), where OEO regeneration occurs; segment `k` spans hops
/// `ends[k - 1]..ends[k]`.
pub(crate) fn segment_ends(topo: &Topology, nodes: &[NodeId], ends: &mut Vec<usize>) -> Result<()> {
    ends.clear();
    let hops = nodes.len().saturating_sub(1);
    for (end, node) in nodes.iter().enumerate().skip(1) {
        if end == hops || !topo.node(*node)?.kind.is_optical() {
            ends.push(end);
        }
    }
    Ok(())
}

/// Hops `start..end` of the walk `nodes` / `links` as a path of their own.
pub(crate) fn sub_path(nodes: &[NodeId], links: &[LinkId], start: usize, end: usize) -> Path {
    Path::new(nodes[start..=end].to_vec(), links[start..end].to_vec())
        .expect("a slice of a walk alternates like the walk")
}

/// Split `path` into maximal optical segments: cuts at every interior node
/// that is electrical (router or server), where OEO regeneration occurs.
pub fn split_at_electrical(topo: &Topology, path: &Path) -> Result<Vec<Path>> {
    let mut ends = Vec::new();
    segment_ends(topo, &path.nodes, &mut ends)?;
    let mut start = 0;
    Ok(ends
        .into_iter()
        .map(|end| {
            let segment = sub_path(&path.nodes, &path.links, start, end);
            start = end;
            segment
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroomingManager;
    use flexsched_topo::{builders, NodeKind};

    fn wdm_line() -> (Arc<Topology>, Path) {
        // Three ROADMs in a line with 4-wavelength fibers.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Roadm, "a");
        let b = t.add_node(NodeKind::Roadm, "b");
        let c = t.add_node(NodeKind::Roadm, "c");
        t.add_wdm_link(a, b, 10.0, 400.0, 4).unwrap();
        t.add_wdm_link(b, c, 10.0, 400.0, 4).unwrap();
        let t = Arc::new(t);
        let p = flexsched_topo::algo::shortest_path(&t, a, c, flexsched_topo::algo::hop_weight)
            .unwrap();
        (t, p)
    }

    #[test]
    fn first_fit_picks_lowest_index() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone()).unwrap();
        assert_eq!(s.lightpath(id).unwrap().wavelength, WavelengthId(0));
        let id2 = s.establish(p).unwrap();
        assert_eq!(s.lightpath(id2).unwrap().wavelength, WavelengthId(1));
    }

    #[test]
    fn last_fit_picks_highest_index() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish_on(p.clone(), WavelengthId(3)).unwrap();
        assert_eq!(s.lightpath(id).unwrap().wavelength, WavelengthId(3));
        // First fit fills the gap below an explicitly placed lightpath.
        assert_eq!(s.choose_wavelength(&p).unwrap(), WavelengthId(0));
        assert!(matches!(
            s.establish_on(p, WavelengthId(3)),
            Err(OpticalError::WavelengthBusy { .. })
        ));
    }

    #[test]
    fn continuity_blocks_mismatched_hops() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(Arc::clone(&t));
        // Occupy w0 on the first hop only via a one-hop lightpath.
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        s.establish_on(hop1, WavelengthId(0)).unwrap();
        // w0 is free on hop 2 but not hop 1 -> continuity set starts at w1.
        assert_eq!(s.choose_wavelength(&p).unwrap(), WavelengthId(1));
    }

    #[test]
    fn exhaustion_yields_no_free_wavelength() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        for _ in 0..4 {
            s.establish(p.clone()).unwrap();
        }
        assert!(matches!(
            s.establish(p),
            Err(OpticalError::NoFreeWavelength)
        ));
    }

    #[test]
    fn teardown_frees_wavelength() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone()).unwrap();
        assert_eq!(s.lightpath_count(), 1);
        s.teardown(id).unwrap();
        assert_eq!(s.lightpath_count(), 0);
        assert!(s.is_free(p.links[0], WavelengthId(0)).unwrap());
    }

    #[test]
    fn capacity_is_bottleneck_channel_rate() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p).unwrap();
        assert!((s.lightpath(id).unwrap().capacity_gbps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn grooming_respects_capacity() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        assert!(matches!(
            s.add_groomed(id, 60.0),
            Err(OpticalError::InsufficientLightpathCapacity { .. })
        ));
        s.remove_groomed(id, 60.0).unwrap();
        s.add_groomed(id, 100.0).unwrap();
    }

    #[test]
    fn best_fit_is_least_residual_then_lowest_id_within_the_slack() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let ids: Vec<_> = (0..3).map(|_| s.establish(p.clone()).unwrap()).collect();
        let (src, dst) = (p.source(), p.destination());
        let fit = |s: &OpticalState, src, dst, gbps| {
            s.best_fit(src, dst, gbps, &mut GroomWork::default())
        };
        // All untouched: a tie on residual goes to the lowest id.
        assert_eq!(fit(&s, src, dst, 10.0), Some(ids[0]));
        s.add_groomed(ids[0], 30.0).unwrap();
        s.add_groomed(ids[2], 60.0).unwrap();
        // Residuals 70 / 100 / 40: the fullest that still fits.
        assert_eq!(fit(&s, src, dst, 10.0), Some(ids[2]));
        assert_eq!(fit(&s, src, dst, 50.0), Some(ids[0]));
        assert_eq!(fit(&s, src, dst, 80.0), Some(ids[1]));
        assert_eq!(fit(&s, src, dst, 100.5), None);
        // The same 1e-9 slack `add_groomed` grants.
        assert_eq!(fit(&s, src, dst, 40.0 + 5e-10), Some(ids[2]));
        assert_eq!(fit(&s, src, dst, 40.0 + 5e-9), Some(ids[0]));
        // Direction matters, and a torn-down lightpath leaves the index.
        assert_eq!(fit(&s, dst, src, 1.0), None);
        s.teardown(ids[2]).unwrap();
        assert_eq!(fit(&s, src, dst, 10.0), Some(ids[0]));
        assert!(s.groomable_between(src, dst, 100.0));
        s.teardown(ids[0]).unwrap();
        s.teardown(ids[1]).unwrap();
        assert_eq!(fit(&s, src, dst, 0.0), None);
        assert!(!s.groomable_between(src, dst, 0.0));
    }

    #[test]
    fn groomable_across_reads_the_holders_of_the_link() {
        let (t, p) = wdm_line();
        let (l0, l1) = (p.links[0], p.links[1]);
        let hop2 = Path::new(vec![p.nodes[1], p.nodes[2]], vec![l1]).unwrap();
        let mut s = OpticalState::new(t);
        // The live answer, checked against the frozen per-link maximum.
        let groomable = |s: &OpticalState, l: LinkId, gbps: f64| {
            let live = s.groomable_across(l, gbps);
            assert_eq!(
                live,
                s.snapshot().groomable_across(l, gbps),
                "{l} at {gbps}"
            );
            live
        };
        // No lightpath crosses either link; an unknown link is never groomable.
        assert!(!groomable(&s, l0, 0.0));
        assert!(!groomable(&s, l1, 0.0));
        assert!(!groomable(&s, LinkId(99), 0.0));
        let low = s.establish(p.clone()).unwrap(); // w0 on both hops
        let high = s.establish(hop2).unwrap(); // w1 on hop 2
        s.add_groomed(low, 100.0).unwrap();
        s.add_groomed(high, 40.0).unwrap();
        // Both cross l1 and only the higher id has headroom; l0's one
        // holder is full.
        assert!(groomable(&s, l1, 60.0));
        assert!(!groomable(&s, l1, 61.0));
        assert!(!groomable(&s, l0, 1.0));
        assert!(groomable(&s, l0, 0.0));
        // Exactly at the 1e-9 tolerance, and just past it.
        assert!(groomable(&s, l1, 60.0 + 1e-9));
        assert!(!groomable(&s, l1, 60.0 + 2e-9));
        // Impairing a holder's wavelength blocks new lightpaths, not
        // grooming onto the one that holds it.
        s.set_impaired(l1, WavelengthId(1), true).unwrap();
        assert!(groomable(&s, l1, 60.0));
        // A torn-down lightpath leaves the link's row.
        s.teardown(high).unwrap();
        assert!(!groomable(&s, l1, 1.0));
        assert!(groomable(&s, l1, 0.0));
        s.teardown(low).unwrap();
        assert!(!groomable(&s, l1, 0.0));
    }

    #[test]
    fn a_corrupted_spectrum_slot_breaks_the_spectrum_clause() {
        let (t, p) = wdm_line();
        let hop2 = Path::new(vec![p.nodes[1], p.nodes[2]], vec![p.links[1]]).unwrap();
        let mut s = OpticalState::new(t);
        s.establish(p).unwrap();
        s.establish(hop2).unwrap();
        assert_eq!(s.check_invariants(), Ok(()));
        // Forget the holder of (l1, w0) behind the registry's back.
        s.occupancy[1][0] = None;
        assert_eq!(s.check_invariants().unwrap_err().0, "spectrum");
    }

    /// The `Debug` text the orchestrator's golden database hashes fold,
    /// pinned byte for byte on the metro after a fixed mix of grooms (one
    /// failing on an access link's capacity), releases, a lightpath lit
    /// beside groomed ones, a teardown under a demand and impairments.
    #[test]
    fn debug_text_after_a_fixed_metro_mix_is_pinned() {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let route = |a: usize, b: usize| {
            flexsched_topo::algo::shortest_path(
                &topo,
                servers[a],
                servers[b],
                flexsched_topo::algo::latency_weight,
            )
            .unwrap()
        };
        let mut s = OpticalState::new(Arc::clone(&topo));
        let mut g = GroomingManager::new();
        let demands: Vec<Option<u64>> = [
            (0, 5, 10.0),
            (0, 5, 25.0),
            (1, 9, 40.0),
            (4, 13, 60.0),
            (0, 5, 70.0),
            (2, 17, 5.0),
            (6, 21, 30.0),
            (8, 14, 45.0),
        ]
        .into_iter()
        .map(|(a, b, gbps)| g.groom(&mut s, &route(a, b), gbps).ok())
        .collect();
        assert_eq!(demands[4], None, "server 0's access link is full");
        let core = split_at_electrical(&topo, &route(0, 5))
            .unwrap()
            .swap_remove(1);
        let span = core.links[0];
        s.establish(core).unwrap();
        g.release(&mut s, demands[1].unwrap()).unwrap();
        g.release(&mut s, demands[3].unwrap()).unwrap();
        let under = g.demand(demands[2].unwrap()).unwrap().lightpaths[1];
        assert!(!s.teardown(under).unwrap().is_idle());
        s.set_impaired(span, WavelengthId(0), true).unwrap();
        s.set_impaired(span, WavelengthId(3), true).unwrap();
        g.groom(&mut s, &route(3, 11), 20.0).unwrap();
        s.set_impaired(span, WavelengthId(0), false).unwrap();
        g.release(&mut s, demands[0].unwrap()).unwrap();
        // The golden hashes of `event_equivalence` and `dag_testbed` fold
        // this text; a diff here shows which field moved.
        let golden = include_str!("../tests/golden/optical_state_metro_mix.txt");
        assert_eq!(format!("{s:?}"), golden.trim_end());
    }

    #[test]
    fn impairment_blocks_new_assignments() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        s.set_impaired(p.links[0], WavelengthId(0), true).unwrap();
        let id = s.establish(p.clone()).unwrap();
        assert_eq!(s.lightpath(id).unwrap().wavelength, WavelengthId(1));
        s.set_impaired(p.links[0], WavelengthId(0), false).unwrap();
        let id2 = s.establish(p).unwrap();
        assert_eq!(s.lightpath(id2).unwrap().wavelength, WavelengthId(0));
    }

    #[test]
    fn split_at_electrical_cuts_at_routers() {
        // server - router - roadm - roadm - router - server
        let mut t = Topology::new();
        let s0 = t.add_node(NodeKind::Server, "s0");
        let r0 = t.add_node(NodeKind::IpRouter, "r0");
        let o0 = t.add_node(NodeKind::Roadm, "o0");
        let o1 = t.add_node(NodeKind::Roadm, "o1");
        let r1 = t.add_node(NodeKind::IpRouter, "r1");
        let s1 = t.add_node(NodeKind::Server, "s1");
        t.add_link(s0, r0, 0.1, 100.0).unwrap();
        t.add_link(r0, o0, 0.1, 100.0).unwrap();
        t.add_wdm_link(o0, o1, 20.0, 400.0, 4).unwrap();
        t.add_link(o1, r1, 0.1, 100.0).unwrap();
        t.add_link(r1, s1, 0.1, 100.0).unwrap();
        let t = Arc::new(t);
        let p = flexsched_topo::algo::shortest_path(&t, s0, s1, flexsched_topo::algo::hop_weight)
            .unwrap();
        let segs = split_at_electrical(&t, &p).unwrap();
        // Cuts at r0, r1 (electrical): s0-r0 | r0-o0-o1-r1 | r1-s1.
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].hop_count(), 1);
        assert_eq!(segs[1].hop_count(), 3);
        assert_eq!(segs[2].hop_count(), 1);
        assert_eq!(segs[1].source(), r0);
        assert_eq!(segs[1].destination(), r1);
    }

    #[test]
    fn establish_route_rolls_back_on_failure() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(Arc::clone(&t));
        // Exhaust the second hop so multi-segment establishment fails.
        let hop2 = Path::new(vec![p.nodes[1], p.nodes[2]], vec![p.links[1]]).unwrap();
        for _ in 0..4 {
            s.establish(hop2.clone()).unwrap();
        }
        let before = s.lightpath_count();
        // A route over both hops has no continuity wavelength (hop2 full).
        assert!(s.establish_route(&p).is_err());
        assert_eq!(
            s.lightpath_count(),
            before,
            "rollback must tear down partials"
        );
    }

    #[test]
    fn usage_row_matches_a_from_scratch_count() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        let hop2 = Path::new(vec![p.nodes[1], p.nodes[2]], vec![p.links[1]]).unwrap();
        // Each occupied (link, w) slot counted once, from the registry.
        let from_scratch = |s: &OpticalState| {
            let mut usage = vec![0u32; 4];
            for lp in s.lightpaths() {
                usage[lp.wavelength.index()] += lp.path.hop_count() as u32;
            }
            usage
        };
        let check = |s: &OpticalState| {
            let expected = from_scratch(s);
            assert_eq!(s.usage_row(), expected);
            assert!(format!("{s:?}").contains(&format!("usage: {expected:?}")));
        };
        check(&s);
        let a = s.establish(p.clone()).unwrap(); // w0 on both hops
        let b = s.establish_on(hop1.clone(), WavelengthId(2)).unwrap();
        let c = s.establish(hop2.clone()).unwrap(); // w1 on hop 2
        check(&s);
        s.teardown(a).unwrap();
        check(&s);
        let d = s.establish(p.clone()).unwrap(); // w0 again: w1 is busy on hop 2
        s.establish_on(hop2, WavelengthId(3)).unwrap();
        check(&s);
        for id in [b, c, d] {
            s.teardown(id).unwrap();
            check(&s);
        }
        assert_eq!(s.usage_row(), [0, 0, 0, 1]);
    }

    #[test]
    fn utilization_tracks_establishments() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        assert_eq!(s.wavelength_utilization(), 0.0);
        s.establish(p).unwrap();
        // 2 of 8 slots in use.
        assert!((s.wavelength_utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn metro_builder_paths_can_be_established() {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let p = flexsched_topo::algo::shortest_path(
            &topo,
            servers[0],
            servers[servers.len() - 1],
            flexsched_topo::algo::latency_weight,
        )
        .unwrap();
        let mut s = OpticalState::new(Arc::clone(&topo));
        let ids = s.establish_route(&p).unwrap();
        assert!(!ids.is_empty());
    }
}
