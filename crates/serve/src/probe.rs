//! The continuous quality probe: ANN recall measured on the live
//! serving state, without ever blocking the trainer.
//!
//! Each round samples a deterministic set of live nodes from the
//! *published* epoch `Arc`, runs both the exact scan and the ANN
//! search against that same frozen epoch, and reports mean recall@k.
//! Because the probe only clones the epoch handle's `Arc` — the same
//! read path every query takes — a probe mid-round holds its own
//! frozen epoch while the trainer keeps publishing; nothing in the
//! write path waits on it.
//!
//! [`probe_recall`] is the whole measurement; the background thread
//! (spawned by [`Server`](crate::Server) when telemetry and ANN are
//! both on) and offline verification call the *same* function, so the
//! exposed `glodyne_probe_recall_at_k` gauge is reproducible from a
//! pinned seed by construction.

use crate::epoch::EmbeddingEpoch;
use crate::protocol::NearestMode;
use crate::telemetry::ServeTelemetry;
use glodyne_embed::walks::splitmix64_next;
use glodyne_embed::ConfigError;
use std::sync::Arc;
use std::time::Instant;

/// Background quality-probe settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSettings {
    /// Milliseconds between probe rounds.
    pub period_ms: u64,
    /// Neighbours per query (`recall@k`).
    pub k: usize,
    /// Live nodes sampled per round.
    pub sample: usize,
    /// Sampling seed — pin it and the probed node set (hence the
    /// reported recall on a quiesced epoch) is reproducible.
    pub seed: u64,
}

impl Default for ProbeSettings {
    fn default() -> Self {
        ProbeSettings {
            period_ms: 1_000,
            k: 10,
            sample: 16,
            seed: 42,
        }
    }
}

impl ProbeSettings {
    /// Validate the settings (fallible-config convention).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.period_ms < 1 {
            return Err(ConfigError::new("period_ms", "must be >= 1"));
        }
        if self.k < 1 {
            return Err(ConfigError::new("k", "must be >= 1"));
        }
        if self.sample < 1 {
            return Err(ConfigError::new("sample", "must be >= 1"));
        }
        Ok(())
    }
}

/// Mean ANN recall@`k` over `sample` deterministically chosen live
/// nodes of `epoch`, probing `nprobe` IVF cells: for each sampled node
/// the index's answer is compared against the exact top-`k` scan on
/// the *same* embedding. `None` when the epoch carries no index or no
/// sampled node has a non-empty exact answer (e.g. the empty initial
/// epoch).
///
/// The same `(epoch, k, sample, seed, nprobe)` always measures the
/// same thing — this function is the shared definition behind the live
/// `glodyne_probe_recall_at_k` gauge and any offline check of it.
pub fn probe_recall(
    epoch: &EmbeddingEpoch,
    k: usize,
    sample: usize,
    seed: u64,
    nprobe: usize,
) -> Option<f64> {
    epoch.index.as_ref()?;
    let ids = epoch.embedding.ids();
    if ids.is_empty() || k == 0 || sample == 0 {
        return None;
    }
    let mut state = seed;
    let mut picked = Vec::with_capacity(sample.min(ids.len()));
    while picked.len() < sample.min(ids.len()) {
        let idx = (splitmix64_next(&mut state) % ids.len() as u64) as usize;
        if !picked.contains(&idx) {
            picked.push(idx);
        }
    }
    let mut total = 0.0f64;
    let mut measured = 0usize;
    for idx in picked {
        let node = ids[idx];
        let exact = epoch.embedding.top_k(node, k);
        if exact.is_empty() {
            continue;
        }
        let mode = NearestMode::Ann {
            nprobe: Some(nprobe),
        };
        let (_, approx, _) = epoch.nearest(node, k, mode).ok()?;
        let hits = approx
            .iter()
            .filter(|(id, _)| exact.iter().any(|(e, _)| e == id))
            .count();
        total += hits as f64 / exact.len() as f64;
        measured += 1;
    }
    (measured > 0).then(|| total / measured as f64)
}

/// One probe round over every published epoch (one on unsharded
/// servers, one per shard otherwise): measure, update the rolling
/// recall gauge, book the round's latency. Epochs that cannot be
/// measured yet (empty, no index) leave the gauge untouched.
pub(crate) fn run_probe_round(
    epochs: &[Arc<EmbeddingEpoch>],
    settings: &ProbeSettings,
    nprobe: usize,
    telemetry: &ServeTelemetry,
) {
    let start = Instant::now();
    let mut total = 0.0f64;
    let mut measured = 0usize;
    for epoch in epochs {
        if let Some(recall) =
            probe_recall(epoch, settings.k, settings.sample, settings.seed, nprobe)
        {
            total += recall;
            measured += 1;
        }
    }
    if measured > 0 {
        telemetry.probe_recall.set(total / measured as f64);
        telemetry.probe_latency.record_duration(start.elapsed());
        telemetry.probes_run.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glodyne_ann::{IvfConfig, IvfIndex};
    use glodyne_embed::Embedding;
    use glodyne_graph::NodeId;

    fn epoch_with_index(n: u32, dim: usize, cells: usize) -> EmbeddingEpoch {
        let mut emb = Embedding::new(dim);
        let mut state = 7u64;
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|_| (splitmix64_next(&mut state) % 1000) as f32 / 1000.0 - 0.5)
                .collect();
            emb.set(NodeId(i), &row);
        }
        let config = IvfConfig {
            cells,
            ..Default::default()
        };
        EmbeddingEpoch {
            epoch: 1,
            index: Some(Arc::new(IvfIndex::build(&emb, &config))),
            embedding: Arc::new(emb),
            report: None,
        }
    }

    #[test]
    fn full_probe_recall_is_perfect_and_deterministic() {
        let epoch = epoch_with_index(60, 8, 4);
        // Probing every cell makes ANN exhaustive: recall must be 1.
        let r = probe_recall(&epoch, 5, 10, 42, 4).expect("measurable");
        assert!((r - 1.0).abs() < 1e-9, "full probe recall {r} != 1.0");
        // Pinned seed => bit-identical repeat runs.
        let again = probe_recall(&epoch, 5, 10, 42, 4).unwrap();
        assert_eq!(r.to_bits(), again.to_bits());
        // A narrower probe can only lower recall, never exceed 1.
        let narrow = probe_recall(&epoch, 5, 10, 42, 1).unwrap();
        assert!((0.0..=1.0).contains(&narrow));
        assert!(narrow <= r + 1e-9);
    }

    #[test]
    fn unmeasurable_epochs_yield_none() {
        // No index at all.
        let bare = EmbeddingEpoch::initial(4);
        assert_eq!(probe_recall(&bare, 5, 4, 1, 8), None);
        // Indexed but empty embedding.
        let empty = epoch_with_index(0, 4, 2);
        assert_eq!(probe_recall(&empty, 5, 4, 1, 8), None);
    }

    #[test]
    fn probe_round_drives_the_gauge_and_counters() {
        let telemetry = ServeTelemetry::new(u64::MAX);
        let settings = ProbeSettings {
            k: 5,
            sample: 8,
            ..Default::default()
        };
        // Unmeasurable round: gauge and counter stay untouched.
        let bare = Arc::new(EmbeddingEpoch::initial(4));
        run_probe_round(&[bare], &settings, 4, &telemetry);
        assert_eq!(telemetry.probes_run.get(), 0);

        let epoch = Arc::new(epoch_with_index(40, 8, 4));
        run_probe_round(&[Arc::clone(&epoch)], &settings, 4, &telemetry);
        assert_eq!(telemetry.probes_run.get(), 1);
        assert_eq!(telemetry.probe_latency.count(), 1);
        // The acceptance contract: the live gauge equals the offline
        // computation from the same pinned seed on the same epoch.
        let offline = probe_recall(&epoch, settings.k, settings.sample, settings.seed, 4).unwrap();
        assert_eq!(telemetry.probe_recall.get().to_bits(), offline.to_bits());
    }

    #[test]
    fn probe_settings_validate() {
        assert!(ProbeSettings::default().validate().is_ok());
        let bad = ProbeSettings {
            k: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "k");
        let bad = ProbeSettings {
            sample: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "sample");
        let bad = ProbeSettings {
            period_ms: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err().param(), "period_ms");
    }
}
