//! The grooming manager as it was before `OpticalState` kept an endpoint
//! index: every segment placement filters and ranks *all* established
//! lightpaths. Kept as the reference `groom_equivalence.rs` holds the
//! indexed manager to — same picks, same counters, same demand ids, same
//! state after every step. Only public `OpticalState` API is used, so the
//! reference cannot drift with the crate's internals.

use flexsched_optical::{split_at_electrical, LightpathId, OpticalError, OpticalState};
use flexsched_topo::Path;
use std::collections::BTreeMap;

/// Best fit by linear scan: least residual that fits, lowest id on ties.
pub fn best_fit_by_scan(optical: &OpticalState, seg: &Path, gbps: f64) -> Option<LightpathId> {
    optical
        .lightpaths()
        .filter(|lp| {
            lp.source() == seg.source()
                && lp.destination() == seg.destination()
                && lp.residual_gbps() + 1e-9 >= gbps
        })
        .min_by(|a, b| {
            a.residual_gbps()
                .partial_cmp(&b.residual_gbps())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        })
        .map(|lp| lp.id)
}

/// The scanning manager. A demand is `(rate, lightpaths in path order)`.
#[derive(Debug, Default)]
pub struct ScanGroomer {
    pub demands: BTreeMap<u64, (f64, Vec<LightpathId>)>,
    next_id: u64,
    pub reuse_hits: u64,
    pub new_lights: u64,
}

impl ScanGroomer {
    pub fn groom(
        &mut self,
        optical: &mut OpticalState,
        path: &Path,
        gbps: f64,
    ) -> Result<u64, OpticalError> {
        let segments = split_at_electrical(optical.topo(), path)?;
        let mut used: Vec<LightpathId> = Vec::with_capacity(segments.len());
        let mut established: Vec<LightpathId> = Vec::new();

        let rollback = |mgr: &mut Self,
                        optical: &mut OpticalState,
                        groomed: &[LightpathId],
                        established: &[LightpathId]| {
            for id in groomed {
                let _ = optical.remove_groomed(*id, gbps);
            }
            for id in established {
                let _ = optical.teardown(*id);
                mgr.new_lights = mgr.new_lights.saturating_sub(1);
            }
        };

        for seg in &segments {
            let id = match best_fit_by_scan(optical, seg, gbps) {
                Some(id) => {
                    self.reuse_hits += 1;
                    id
                }
                None => match optical.establish(seg.clone()) {
                    Ok(id) => {
                        self.new_lights += 1;
                        established.push(id);
                        id
                    }
                    Err(e) => {
                        rollback(self, optical, &used, &established);
                        return Err(e);
                    }
                },
            };
            if let Err(e) = optical.add_groomed(id, gbps) {
                rollback(self, optical, &used, &established);
                return Err(e);
            }
            used.push(id);
        }

        let id = self.next_id;
        self.next_id += 1;
        self.demands.insert(id, (gbps, used));
        Ok(id)
    }

    pub fn release(&mut self, optical: &mut OpticalState, demand: u64) -> Result<(), OpticalError> {
        let (gbps, lightpaths) = self
            .demands
            .remove(&demand)
            .ok_or(OpticalError::UnknownAllocation(demand))?;
        for id in &lightpaths {
            optical.remove_groomed(*id, gbps)?;
        }
        for id in &lightpaths {
            if optical.lightpath(*id).is_ok_and(|lp| lp.is_idle()) {
                optical.teardown(*id)?;
            }
        }
        Ok(())
    }
}
