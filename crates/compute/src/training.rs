//! Training- and aggregation-latency models.
//!
//! Figure 3a's metric is "total latency (both model training and
//! communication)". Communication comes from `flexsched-simnet`; this module
//! supplies the compute half:
//!
//! * [`training_iteration_ns`] — one local training iteration: model FLOPs
//!   over the server's effective throughput, degraded by co-location
//!   interference,
//! * [`aggregation_ns`] — merging `n` model updates at an aggregation
//!   point (the multi-aggregation of the flexible scheduler): a streaming
//!   sum over the update bytes at memory bandwidth.

use crate::model::ModelProfile;
use crate::server::ServerSpec;

/// Fraction of peak GPU throughput sustained by real training loops.
const MFU: f64 = 0.35;

/// Throughput loss per co-located container beyond the first.
const INTERFERENCE_PER_NEIGHBOR: f64 = 0.08;

/// Aggregation streaming rate, bytes/ns (≈16 GB/s effective memory-bound
/// elementwise sum including framework overhead).
const AGG_BYTES_PER_NS: f64 = 16.0;

/// Fixed per-aggregation framework overhead, ns.
const AGG_FIXED_NS: f64 = 20_000.0;

/// Duration of one local training iteration, nanoseconds.
///
/// `colocated` is the total number of containers on the server (including
/// this one); co-location degrades effective throughput linearly, floored at
/// 25% of nominal.
pub fn training_iteration_ns(model: &ModelProfile, server: &ServerSpec, colocated: u32) -> u64 {
    let neighbors = colocated.saturating_sub(1) as f64;
    let degradation = (1.0 - INTERFERENCE_PER_NEIGHBOR * neighbors).max(0.25);
    // CPU-only servers fall back to a slow software path.
    let peak_tflops = if server.gpus > 0.0 {
        server.gpu_tflops * server.gpus.min(1.0)
    } else {
        0.5
    };
    let eff_flops_per_ns = peak_tflops * 1e12 * MFU * degradation / 1e9;
    (model.flops_per_iteration / eff_flops_per_ns.max(1e-9)).round() as u64
}

/// Duration of aggregating `inputs` model updates at one node, nanoseconds.
///
/// Aggregation is a streaming elementwise reduction: cost is linear in the
/// bytes reduced. With `inputs <= 1` there is nothing to merge (forwarding
/// only) and the cost is zero — this is what makes relay nodes free and
/// aggregation nodes cheap-but-not-free in the upload tree.
pub fn aggregation_ns(model: &ModelProfile, inputs: usize) -> u64 {
    if inputs <= 1 {
        return 0;
    }
    let bytes = model.update_bytes() as f64 * inputs as f64;
    (AGG_FIXED_NS + bytes / AGG_BYTES_PER_NS).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_models_train_slower() {
        let s = ServerSpec::default();
        assert!(
            training_iteration_ns(&ModelProfile::lenet(), &s, 1)
                < training_iteration_ns(&ModelProfile::resnet50(), &s, 1)
        );
        assert!(
            training_iteration_ns(&ModelProfile::resnet50(), &s, 1)
                < training_iteration_ns(&ModelProfile::gpt2_small(), &s, 1)
        );
    }

    #[test]
    fn resnet_iteration_is_sub_second_on_gpu() {
        let ns = training_iteration_ns(&ModelProfile::resnet50(), &ServerSpec::default(), 1);
        // 4.1 GFLOP * 3 * batch32 at ~21 TFLOP/s effective: ~20 ms.
        assert!(ns > 1_000_000 && ns < 100_000_000, "{ns}ns");
    }

    #[test]
    fn interference_slows_training() {
        let s = ServerSpec::default();
        let alone = training_iteration_ns(&ModelProfile::resnet50(), &s, 1);
        let crowded = training_iteration_ns(&ModelProfile::resnet50(), &s, 5);
        assert!(crowded > alone);
    }

    #[test]
    fn interference_floors_at_quarter_speed() {
        let s = ServerSpec::default();
        let crowded = training_iteration_ns(&ModelProfile::resnet50(), &s, 100);
        let alone = training_iteration_ns(&ModelProfile::resnet50(), &s, 1);
        assert!(crowded <= alone * 4 + 1);
    }

    #[test]
    fn cpu_only_servers_are_much_slower() {
        let gpu = ServerSpec::default();
        let cpu = ServerSpec {
            gpus: 0.0,
            ..ServerSpec::default()
        };
        let m = ModelProfile::mobilenet();
        assert!(training_iteration_ns(&m, &cpu, 1) > 20 * training_iteration_ns(&m, &gpu, 1));
    }

    #[test]
    fn aggregating_one_input_is_free() {
        assert_eq!(aggregation_ns(&ModelProfile::resnet50(), 0), 0);
        assert_eq!(aggregation_ns(&ModelProfile::resnet50(), 1), 0);
    }

    #[test]
    fn aggregation_scales_with_inputs_and_size() {
        let m = ModelProfile::resnet50();
        let two = aggregation_ns(&m, 2);
        let four = aggregation_ns(&m, 4);
        assert!(four > two);
        let small = aggregation_ns(&ModelProfile::lenet(), 4);
        assert!(small < four);
    }

    #[test]
    fn aggregation_is_fast_relative_to_transfer() {
        // Aggregating 4 ResNet updates (~400 MB) should take ~25 ms — the
        // same order as moving one update over 100G, not dominating it.
        let ns = aggregation_ns(&ModelProfile::resnet50(), 4);
        assert!(ns < 100_000_000, "{ns}ns");
    }
}
