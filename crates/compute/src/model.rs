//! AI model profiles.
//!
//! The poster notes that "AI tasks can be implemented using different
//! machine learning models that include different parameters" and that
//! generative-AI model growth drives communication overhead. A
//! [`ModelProfile`] captures exactly what scheduling needs: how many bytes
//! one weight/update exchange moves, and how much compute one local
//! training iteration costs.

use serde::{Deserialize, Serialize};

/// A family of AI models with the knobs the scheduler cares about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Family name, e.g. `"resnet50"`.
    pub name: String,
    /// Trainable parameter count.
    pub parameters: u64,
    /// Bytes per parameter on the wire (4 = fp32, 2 = fp16).
    pub bytes_per_param: u8,
    /// Multiplier `(0, 1]` applied to the raw update size (gradient
    /// compression / sparsification; 1.0 = uncompressed).
    pub compression: f64,
    /// Forward+backward FLOPs for one local iteration (one mini-batch).
    pub flops_per_iteration: f64,
}

impl ModelProfile {
    /// Bytes moved by one full weight broadcast or update upload. At least
    /// one byte for any non-empty model, however aggressive the compression.
    pub fn update_bytes(&self) -> u64 {
        if self.parameters == 0 {
            return 0;
        }
        let raw = self.parameters as f64 * f64::from(self.bytes_per_param);
        ((raw * self.compression.clamp(1e-6, 1.0)).round() as u64).max(1)
    }

    /// Sustained bandwidth demand to exchange one update within `budget_ms`
    /// milliseconds, in Gbit/s — how tasks express bandwidth requirements to
    /// the scheduler.
    pub fn demand_gbps(&self, budget_ms: f64) -> f64 {
        let bits = self.update_bytes() as f64 * 8.0;
        bits / (budget_ms * 1e6).max(1.0)
    }

    /// Classic LeNet-5-scale CNN: tiny edge model.
    pub fn lenet() -> Self {
        ModelProfile {
            name: "lenet".into(),
            parameters: 60_000,
            bytes_per_param: 4,
            compression: 1.0,
            flops_per_iteration: 2.0 * 60_000.0 * 3.0 * 32.0, // fwd+bwd, batch 32
        }
    }

    /// MobileNet-ish vision model for edge devices.
    pub fn mobilenet() -> Self {
        ModelProfile {
            name: "mobilenet".into(),
            parameters: 4_200_000,
            bytes_per_param: 4,
            compression: 1.0,
            flops_per_iteration: 0.6e9 * 2.0 * 32.0,
        }
    }

    /// ResNet-50: the CV workhorse the paper's references train.
    pub fn resnet50() -> Self {
        ModelProfile {
            name: "resnet50".into(),
            parameters: 25_600_000,
            bytes_per_param: 4,
            compression: 1.0,
            flops_per_iteration: 4.1e9 * 3.0 * 32.0,
        }
    }

    /// BERT-base: the NLP encoder referenced via "attention is all you need"
    /// lineage.
    pub(crate) fn bert_base() -> Self {
        ModelProfile {
            name: "bert-base".into(),
            parameters: 110_000_000,
            bytes_per_param: 2,
            compression: 1.0,
            flops_per_iteration: 22.0e9 * 3.0 * 16.0,
        }
    }

    /// A GPT-2-scale generative model: the "emergence of generative AI"
    /// driver for rapidly-growing model sizes.
    pub(crate) fn gpt2_small() -> Self {
        ModelProfile {
            name: "gpt2-small".into(),
            parameters: 124_000_000,
            bytes_per_param: 2,
            compression: 1.0,
            flops_per_iteration: 140.0e9 * 3.0 * 8.0,
        }
    }

    /// The five built-in profiles, small to large.
    pub fn catalog() -> Vec<ModelProfile> {
        vec![
            Self::lenet(),
            Self::mobilenet(),
            Self::resnet50(),
            Self::bert_base(),
            Self::gpt2_small(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_bytes_scale_with_parameters() {
        assert!(ModelProfile::lenet().update_bytes() < ModelProfile::mobilenet().update_bytes());
        assert!(
            ModelProfile::resnet50().update_bytes() < ModelProfile::gpt2_small().update_bytes()
        );
    }

    #[test]
    fn resnet_update_is_around_100mb() {
        let b = ModelProfile::resnet50().update_bytes();
        assert!(b > 90_000_000 && b < 110_000_000, "{b}");
    }

    #[test]
    fn compression_shrinks_updates() {
        let full = ModelProfile::resnet50();
        let tenth = ModelProfile {
            compression: 0.1,
            ..ModelProfile::resnet50()
        };
        assert_eq!(
            tenth.update_bytes(),
            (full.update_bytes() as f64 / 10.0).round() as u64
        );
    }

    #[test]
    fn demand_matches_hand_computation() {
        // 1 GB update in 100 ms => 80 Gbps.
        let m = ModelProfile {
            name: "x".into(),
            parameters: 250_000_000,
            bytes_per_param: 4,
            compression: 1.0,
            flops_per_iteration: 1.0,
        };
        assert!((m.demand_gbps(100.0) - 80.0).abs() < 0.1);
    }

    #[test]
    fn catalog_is_sorted_small_to_large() {
        let c = ModelProfile::catalog();
        for w in c.windows(2) {
            assert!(w[0].update_bytes() <= w[1].update_bytes());
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn compression_clamps_to_positive() {
        let m = ModelProfile {
            compression: 0.0,
            ..ModelProfile::lenet()
        };
        assert!(m.update_bytes() > 0 || m.parameters == 0);
    }
}
