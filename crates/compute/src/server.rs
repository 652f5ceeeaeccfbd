//! Server resource model.

use serde::{Deserialize, Serialize};

/// Hardware resources of one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// CPU cores.
    pub cpu_cores: f64,
    /// GPU count (fractional shares allowed for MIG-style slicing).
    pub gpus: f64,
    /// Peak per-GPU throughput, TFLOP/s.
    pub gpu_tflops: f64,
    /// Memory, GiB.
    pub mem_gib: f64,
}

impl Default for ServerSpec {
    /// A mid-range AI server: 32 cores, 2 GPUs of 60 TFLOP/s, 256 GiB.
    fn default() -> Self {
        ServerSpec {
            cpu_cores: 32.0,
            gpus: 2.0,
            gpu_tflops: 60.0,
            mem_gib: 256.0,
        }
    }
}

/// Resource request of one container.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceRequest {
    /// CPU cores.
    pub cpu_cores: f64,
    /// GPU share (1.0 = one full GPU).
    pub gpus: f64,
    /// Memory, GiB.
    pub mem_gib: f64,
}

impl ResourceRequest {
    /// Typical local-model trainer: 4 cores, 1 GPU, 32 GiB.
    pub fn local_model() -> Self {
        ResourceRequest {
            cpu_cores: 4.0,
            gpus: 1.0,
            mem_gib: 32.0,
        }
    }

    /// Typical global-model aggregator: CPU-heavy, no GPU needed.
    pub fn global_model() -> Self {
        ResourceRequest {
            cpu_cores: 8.0,
            gpus: 0.0,
            mem_gib: 64.0,
        }
    }
}

/// Occupancy state of one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerState {
    /// Hardware.
    pub spec: ServerSpec,
    /// Allocated cores.
    pub used_cpu: f64,
    /// Allocated GPU share.
    pub used_gpus: f64,
    /// Allocated memory, GiB.
    pub used_mem: f64,
    /// Containers resident (count only; the registry lives in the manager).
    pub containers: u32,
}

impl ServerState {
    /// Fresh idle server.
    pub(crate) fn new(spec: ServerSpec) -> Self {
        ServerState {
            spec,
            used_cpu: 0.0,
            used_gpus: 0.0,
            used_mem: 0.0,
            containers: 0,
        }
    }

    /// Whether `req` fits in the remaining resources.
    pub(crate) fn fits(&self, req: &ResourceRequest) -> bool {
        self.used_cpu + req.cpu_cores <= self.spec.cpu_cores + 1e-9
            && self.used_gpus + req.gpus <= self.spec.gpus + 1e-9
            && self.used_mem + req.mem_gib <= self.spec.mem_gib + 1e-9
    }

    /// Claim `req` (caller must have checked [`ServerState::fits`]).
    pub(crate) fn claim(&mut self, req: &ResourceRequest) {
        self.used_cpu += req.cpu_cores;
        self.used_gpus += req.gpus;
        self.used_mem += req.mem_gib;
        self.containers += 1;
    }

    /// Return `req`'s resources.
    pub(crate) fn release(&mut self, req: &ResourceRequest) {
        self.used_cpu = (self.used_cpu - req.cpu_cores).max(0.0);
        self.used_gpus = (self.used_gpus - req.gpus).max(0.0);
        self.used_mem = (self.used_mem - req.mem_gib).max(0.0);
        self.containers = self.containers.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_server_fits_reasonable_requests() {
        let s = ServerState::new(ServerSpec::default());
        assert!(s.fits(&ResourceRequest::local_model()));
        assert!(s.fits(&ResourceRequest::global_model()));
        assert_eq!(s, ServerState::new(ServerSpec::default()));
    }

    #[test]
    fn claim_then_release_round_trips() {
        let mut s = ServerState::new(ServerSpec::default());
        let req = ResourceRequest::local_model();
        s.claim(&req);
        assert_eq!(s.containers, 1);
        assert_eq!((s.used_cpu, s.used_gpus, s.used_mem), (4.0, 1.0, 32.0));
        s.release(&req);
        assert_eq!(s, ServerState::new(ServerSpec::default()));
    }

    #[test]
    fn gpu_exhaustion_blocks_further_local_models() {
        let mut s = ServerState::new(ServerSpec::default()); // 2 GPUs
        let req = ResourceRequest::local_model(); // 1 GPU each
        s.claim(&req);
        s.claim(&req);
        assert!(!s.fits(&req), "no third GPU available");
        // But a CPU-only global model still fits.
        assert!(s.fits(&ResourceRequest::global_model()));
    }

    #[test]
    fn release_never_goes_negative() {
        let mut s = ServerState::new(ServerSpec::default());
        s.release(&ResourceRequest::local_model());
        assert_eq!(s.used_cpu, 0.0);
        assert_eq!(s.containers, 0);
    }
}
