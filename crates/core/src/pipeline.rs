//! The workflow configuration and the truth-scene [`Pipeline`] the
//! staged API ([`crate::stages`]) runs on.
//!
//! Stage 1 — data curation: synthetic granule → preprocessing → 2 m
//! resampling → S2 coincident pair → drift correction → auto-labeling →
//! simulated manual clean-up.
//! Stage 2 — model training: the paper's LSTM and MLP on an 80/20 split.
//! Stage 3 — inference over every 2 m segment.
//! Stage 4 — local sea surface (four methods) and freeboard, with the
//! ATL07/ATL10 emulation as the comparison product.
//!
//! [`Pipeline::run_staged`] (or [`crate::stages::PipelineBuilder::run`])
//! runs all four stages; [`crate::fleet::FleetDriver`] runs them at
//! scale (the paper's Tables II and V).

use icesat_atl03::generator::standard_granule;
use icesat_atl03::{
    preprocess_beam, resample_2m, Beam, GeneratorConfig, Granule, GranuleMeta, PreprocessConfig,
    ResampleConfig, Segment,
};
use icesat_scene::{DriftModel, Scene, SceneConfig};
use icesat_sentinel2::{CoincidentPair, PairConfig, RenderConfig, SegmentationConfig};
use serde::{Deserialize, Serialize};

use crate::features::FeatureConfig;
use crate::labeling::{AutoLabelConfig, DriftEstimate, LabeledSegment};
use crate::models::TrainConfig;
use crate::seasurface::WindowConfig;

/// Everything the workflow needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Master seed.
    pub seed: u64,
    /// Truth scene configuration.
    pub scene: SceneConfig,
    /// Track length across the scene, metres.
    pub track_length_m: f64,
    /// Photon generator physics.
    pub generator: GeneratorConfig,
    /// Preprocessing gates.
    pub preprocess: PreprocessConfig,
    /// 2 m resampler settings.
    pub resample: ResampleConfig,
    /// S2 rendering/segmentation for the coincident pair.
    pub pair: PairConfig,
    /// Auto-labeling (drift search, manual pass) settings.
    pub autolabel: AutoLabelConfig,
    /// Classifier training hyper-parameters.
    pub train: TrainConfig,
    /// Sea-surface window geometry.
    pub window: WindowConfig,
    /// Feature extraction options.
    pub features: FeatureConfig,
}

impl PipelineConfig {
    /// Ross-Sea defaults: a 30 km track over a 40 km scene with moderate
    /// drift and a 35-minute S2 offset (a mid-table row of Table I).
    pub fn ross_sea(seed: u64) -> Self {
        let drift = DriftModel::from_displacement(380.0, -270.0, 35.0);
        let mut scene = SceneConfig::ross_sea_with_drift(seed, drift);
        scene.half_extent_m = 16_000.0;
        PipelineConfig {
            seed,
            scene,
            track_length_m: 30_000.0,
            generator: GeneratorConfig {
                seed: seed ^ 0x000A_7003,
                ..GeneratorConfig::default()
            },
            preprocess: PreprocessConfig::default(),
            resample: ResampleConfig::default(),
            pair: PairConfig {
                render: RenderConfig {
                    seed: seed ^ 0x52_02,
                    pixel_size_m: 20.0,
                    cloud_cover: 0.25,
                    acquisition_offset_min: 35.0,
                    ..RenderConfig::default()
                },
                segmentation: SegmentationConfig::default(),
            },
            autolabel: AutoLabelConfig::default(),
            train: TrainConfig {
                seed: seed ^ 0x77_17,
                ..TrainConfig::default()
            },
            window: WindowConfig::default(),
            features: FeatureConfig::default(),
        }
    }

    /// A small, fast variant for tests: 8 km track, 8 km scene, clear
    /// sky, few epochs.
    pub fn small(seed: u64) -> Self {
        let mut cfg = PipelineConfig::ross_sea(seed);
        cfg.scene.half_extent_m = 4_500.0;
        cfg.track_length_m = 8_000.0;
        cfg.pair.render.cloud_cover = 0.0;
        cfg.pair.render.pixel_size_m = 30.0;
        cfg.train.epochs = 6;
        // Short tracks need proportionally shorter sea-surface windows to
        // retain the sliding-window structure.
        cfg.window = WindowConfig {
            window_m: 3_000.0,
            step_m: 1_500.0,
            ..WindowConfig::default()
        };
        cfg
    }
}

/// The assembled workflow.
pub struct Pipeline {
    /// Configuration (public for tweaking between stages).
    pub cfg: PipelineConfig,
    /// The truth scene (shared by the generator and the S2 renderer).
    pub scene: Scene,
}

impl Pipeline {
    /// Builds the pipeline, realising the truth scene.
    pub fn new(cfg: PipelineConfig) -> Self {
        let scene = Scene::generate(cfg.scene.clone());
        Pipeline { cfg, scene }
    }

    /// Granule metadata at the IS2 epoch.
    pub fn meta(&self) -> GranuleMeta {
        GranuleMeta {
            acquisition: "20191104195311".into(),
            rgt: 594,
            cycle: 5,
            release: 6,
            epoch_offset_min: 0.0,
        }
    }

    /// Generates the standard three-strong-beam granule.
    pub fn generate_granule(&self) -> Granule {
        standard_granule(
            &self.scene,
            self.cfg.generator,
            self.meta(),
            self.cfg.track_length_m,
        )
    }

    /// Preprocesses and 2 m-resamples one beam of a granule.
    pub fn segments_for_beam(&self, granule: &Granule, beam: Beam) -> Vec<Segment> {
        let data = granule
            .beam(beam)
            .unwrap_or_else(|| panic!("beam {beam} missing from granule"));
        let pre = preprocess_beam(data, &self.cfg.preprocess);
        resample_2m(&pre, &self.cfg.resample)
    }

    /// Renders and segments the coincident S2 scene.
    pub fn coincident_pair(&self) -> CoincidentPair {
        CoincidentPair::build(&self.scene, &self.cfg.pair)
    }

    /// Stage 1 for one beam: auto-labels segments against the pair with
    /// drift correction and the simulated manual pass.
    pub fn autolabel(
        &self,
        segments: &[Segment],
        pair: &CoincidentPair,
    ) -> (Vec<LabeledSegment>, DriftEstimate) {
        crate::labeling::autolabel_with_drift(
            segments,
            &pair.labels,
            &self.scene,
            &self.cfg.autolabel,
        )
    }

    /// Runs all four stages against this pipeline's already-realised
    /// truth scene, keeping every intermediate artifact.
    pub fn run_staged(&self, beam: Beam) -> crate::stages::StagedRun {
        let track = crate::stages::CuratedTrack::curate_with(self, beam);
        let labeled = crate::stages::LabeledDataset::label_with_scene(&track, &self.scene);
        let mut models = labeled.train(&track);
        let products =
            crate::stages::SeaIceProducts::derive_with_scene(&track, &mut models, &self.scene);
        crate::stages::StagedRun {
            track,
            labeled,
            models,
            products,
        }
    }
}
