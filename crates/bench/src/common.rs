//! Shared experiment plumbing.

use seaice::pipeline::{Pipeline, PipelineConfig};
use seaice::stages::StagedRun;

/// A finished experiment: the rendered report plus key scalars for
/// EXPERIMENTS.md and assertions.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id ("table2", "fig8", …).
    pub id: &'static str,
    /// Human-readable report (paper-style table or series).
    pub report: String,
    /// Named scalar results (speedups, accuracies, gaps…).
    pub metrics: Vec<(String, f64)>,
}

impl ExperimentOutput {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Workload scale for experiment runners: tests and `reproduce --quick`
/// use `Quick`, plain `reproduce` uses `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small workloads for tests and smoke runs.
    Quick,
    /// Paper-scale workloads for the reproduce binary.
    Full,
}

/// The configuration behind [`shared_run`] at each scale.
pub fn shared_config(scale: Scale, seed: u64) -> PipelineConfig {
    match scale {
        Scale::Quick => PipelineConfig::small(seed),
        Scale::Full => {
            let mut cfg = PipelineConfig::ross_sea(seed);
            // 20 km track keeps `reproduce all` under a minute in release
            // while staying far above the Quick scale; training uses the
            // paper's full 20 epochs (the LSTM's deep dense stack needs
            // them to pull ahead of the MLP, exactly as in the paper).
            cfg.track_length_m = 20_000.0;
            cfg.scene.half_extent_m = 11_000.0;
            cfg.train.epochs = 20;
            cfg
        }
    }
}

/// The shared staged workload used by the classification/freeboard
/// experiments: one realised scene plus all four stage artifacts
/// ([`StagedRun`]). Cached per `(scale, seed)` so the six figure/table
/// runners that share a workload curate, label, and train exactly once.
pub fn shared_run(scale: Scale, seed: u64) -> std::sync::Arc<(Pipeline, StagedRun)> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    type Cache = Mutex<HashMap<(bool, u64), Arc<(Pipeline, StagedRun)>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let key = (scale == Scale::Full, seed);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    let cfg = shared_config(scale, seed);
    let pipeline = Pipeline::new(cfg);
    // Stage against the pipeline's own scene: one realisation serves the
    // staged run and every runner that needs `pipeline.scene`.
    let run = pipeline.run_staged(icesat_atl03::Beam::Gt2l);
    let entry = Arc::new((pipeline, run));
    cache.lock().unwrap().insert(key, Arc::clone(&entry));
    entry
}

/// Renders a `paper vs measured` comparison line.
pub fn compare_line(label: &str, paper: f64, measured: f64) -> String {
    format!("  {label:<38} paper {paper:>8.2}   measured {measured:>8.2}\n")
}
