//! Configuration for the BAClassifier pipeline.

use serde::{Deserialize, Serialize};

/// Parameters of the address-graph construction (paper §III-A).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConstructionConfig {
    /// Transactions per slice graph (paper: 100).
    pub slice_size: usize,
    /// Run node compression (Stages 2–3). Off only for ablations.
    pub compress: bool,
    /// Similarity threshold Ψ of multi-transaction compression (Eq. 5).
    pub psi: f64,
    /// Retention threshold σ of multi-transaction compression (Eq. 6).
    pub sigma: usize,
    /// Run centrality augmentation (Stage 4). Off only for ablations.
    pub augment: bool,
}

impl Default for ConstructionConfig {
    fn default() -> Self {
        Self {
            slice_size: 100,
            compress: true,
            psi: 0.5,
            sigma: 1,
            augment: true,
        }
    }
}

/// Parameters of graph representation learning (paper §III-B) and address
/// classification (paper §III-C).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Propagation depth k of GFN feature augmentation (Eq. 13).
    pub gfn_k: usize,
    /// Hidden width of the GFN node MLP.
    pub hidden_dim: usize,
    /// Graph embedding dimension.
    pub embed_dim: usize,
    /// LSTM hidden size of the address classification head.
    pub lstm_hidden: usize,
    /// Epochs of graph-model training.
    pub gnn_epochs: usize,
    /// Epochs of classification-head training.
    pub head_epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
    /// Cap on slices per address fed to the sequence head (memory guard;
    /// histories longer than `max_slices` keep the most recent slices).
    pub max_slices: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            gfn_k: 2,
            hidden_dim: 64,
            embed_dim: 32,
            lstm_hidden: 32,
            gnn_epochs: 20,
            head_epochs: 30,
            learning_rate: 0.01,
            seed: 7,
            max_slices: 16,
        }
    }
}

/// Complete BAClassifier configuration.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BacConfig {
    pub construction: ConstructionConfig,
    pub model: ModelConfig,
    /// Worker threads for graph construction, training, and embedding.
    /// `0` means auto (all available cores). Runtime knob only — not
    /// persisted in model artifacts.
    pub threads: usize,
}

/// Resolve a thread-count setting to a concrete worker count: `setting`
/// when positive, otherwise all available cores. Always returns ≥ 1.
pub fn resolve_threads(setting: usize) -> usize {
    if setting > 0 {
        return setting;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl BacConfig {
    /// A fast configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            construction: ConstructionConfig {
                slice_size: 50,
                ..Default::default()
            },
            model: ModelConfig {
                hidden_dim: 32,
                embed_dim: 16,
                lstm_hidden: 16,
                gnn_epochs: 8,
                head_epochs: 12,
                ..Default::default()
            },
            threads: 0,
        }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ConstructionConfig::default();
        assert_eq!(c.slice_size, 100);
        assert!(c.compress && c.augment);
    }

    #[test]
    fn explicit_thread_setting_wins_over_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(BacConfig::default().effective_threads() >= 1);
    }

    #[test]
    fn fast_config_is_smaller() {
        let f = BacConfig::fast();
        let d = BacConfig::default();
        assert!(f.model.gnn_epochs < d.model.gnn_epochs);
        assert!(f.construction.slice_size < d.construction.slice_size);
    }
}
