//! The staged pipeline API: typed, serializable artifacts per workflow
//! stage.
//!
//! The paper's workflow is four stages — curation, training, inference,
//! sea-surface/freeboard — but a monolithic `run()` hides the boundaries,
//! so nothing can be reused: a trained classifier cannot be applied to a
//! second granule, a freeboard re-run recomputes training. This module
//! makes every boundary a value:
//!
//! ```text
//! PipelineConfig
//!   └─ CuratedTrack      granule + 2 m segments + segmented S2 pair
//!        └─ LabeledDataset   drift-corrected auto-labels (+ estimate)
//!             └─ TrainedModels   LSTM + MLP, reusable across granules
//!                  └─ SeaIceProducts  classes, sea surface, freeboard,
//!                                     ATL07/ATL10 baseline
//! ```
//!
//! Every artifact implements [`Artifact`]: it
//! can be saved, shipped, and loaded independently — which is exactly what
//! [`crate::fleet::FleetDriver`] does to fan one [`TrainedModels`] out
//! across a fleet of granules. [`PipelineBuilder`] composes the stages.

use icesat_atl03::{preprocess_beam, Beam, BeamData, GranuleMeta, Segment};
use icesat_scene::{Scene, SurfaceClass};
use icesat_sentinel2::{LabelRaster, SegmentationReport};
use neurite::{ClassificationReport, ConfusionMatrix};

use crate::artifact::{codec_struct, Artifact};
use crate::atl07::{atl07_segments, classify_atl07, Atl10Freeboard, DecisionTreeConfig};
use crate::eval;
use crate::features::{sequence_dataset, sequence_features, FeatureConfig};
use crate::freeboard::FreeboardProduct;
use crate::labeling::{autolabel_with_drift, label_accuracy, DriftEstimate, LabeledSegment};
use crate::models::{train_classifier, ModelKind, TrainConfig, TrainedClassifier};
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::seasurface::{SeaSurface, SeaSurfaceMethod};

// ---------------------------------------------------------------------------
// Stage 1 — CuratedTrack.
// ---------------------------------------------------------------------------

/// Stage-1 artifact: one curated beam of one granule.
///
/// Everything later stages need, and nothing tied to in-memory state: the
/// full configuration (so the truth [`Scene`] can be re-realised
/// deterministically for truth-referenced scoring), the raw photons of the
/// chosen beam (the ATL07/ATL10 baseline re-aggregates them), the 2 m
/// segments, and the segmented coincident Sentinel-2 raster.
#[derive(Debug, Clone)]
pub struct CuratedTrack {
    /// The configuration that produced this track.
    pub config: PipelineConfig,
    /// Granule metadata.
    pub meta: GranuleMeta,
    /// Which beam was curated.
    pub beam: Beam,
    /// Raw (pre-preprocessing) photons of the beam.
    pub beam_data: BeamData,
    /// Preprocessed, 2 m-resampled segments.
    pub segments: Vec<Segment>,
    /// Segmented coincident S2 labels (what a real pipeline would have —
    /// *not* truth).
    pub labels: LabelRaster,
    /// S2 segmentation statistics.
    pub s2_report: SegmentationReport,
    /// True ice displacement between the acquisitions (diagnostic).
    pub true_shift_m: (f64, f64),
}

codec_struct!(CuratedTrack {
    config,
    meta,
    beam,
    beam_data,
    segments,
    labels,
    s2_report,
    true_shift_m,
});

impl Artifact for CuratedTrack {
    const TAG: [u8; 4] = *b"SIC1";
    const VERSION: u16 = 1;
}

impl CuratedTrack {
    /// Runs stage 1 on the central strong beam.
    pub fn curate(config: PipelineConfig) -> CuratedTrack {
        CuratedTrack::curate_beam(config, Beam::Gt2l)
    }

    /// Runs stage 1 on a chosen beam.
    pub fn curate_beam(config: PipelineConfig, beam: Beam) -> CuratedTrack {
        let pipeline = Pipeline::new(config);
        CuratedTrack::curate_with(&pipeline, beam)
    }

    /// Runs stage 1 against an already-realised [`Pipeline`] (avoids
    /// regenerating the truth scene).
    pub fn curate_with(pipeline: &Pipeline, beam: Beam) -> CuratedTrack {
        let granule = pipeline.generate_granule();
        let segments = pipeline.segments_for_beam(&granule, beam);
        let pair = pipeline.coincident_pair();
        let beam_data = granule
            .beam(beam)
            .unwrap_or_else(|| panic!("beam {beam} missing from granule"))
            .clone();
        CuratedTrack {
            config: pipeline.cfg.clone(),
            meta: granule.meta.clone(),
            beam,
            beam_data,
            segments,
            labels: pair.labels,
            s2_report: pair.report,
            true_shift_m: pair.true_shift_m,
        }
    }

    /// Re-realises the deterministic truth scene behind this track.
    pub fn scene(&self) -> Scene {
        Scene::generate(self.config.scene.clone())
    }

    /// Runs stage 2 (auto-labeling) over this track.
    pub fn label(&self) -> LabeledDataset {
        LabeledDataset::label(self)
    }
}

// ---------------------------------------------------------------------------
// Stage 2 — LabeledDataset.
// ---------------------------------------------------------------------------

/// Stage-2 artifact: drift-corrected auto-labels for one curated track.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// One label per 2 m segment, in segment order, after drift
    /// correction and the simulated manual clean-up (all `Some`).
    pub labels: Vec<LabeledSegment>,
    /// Estimated S2 shift (the paper's Table I column).
    pub drift: DriftEstimate,
    /// Auto-label accuracy against the truth scene.
    pub autolabel_accuracy: f64,
}

// Hand-written (vs `codec_struct!`) to enforce the all-`Some` invariant
// the struct documents: a loaded dataset must never panic later in
// `label_indices()`.
impl crate::artifact::Codec for LabeledDataset {
    fn encode(&self, w: &mut crate::artifact::Writer) {
        crate::artifact::Codec::encode(&self.labels, w);
        crate::artifact::Codec::encode(&self.drift, w);
        crate::artifact::Codec::encode(&self.autolabel_accuracy, w);
    }
    fn decode(r: &mut crate::artifact::Reader<'_>) -> Result<Self, crate::artifact::ArtifactError> {
        let labels: Vec<LabeledSegment> = crate::artifact::Codec::decode(r)?;
        if labels.iter().any(|l| l.label.is_none()) {
            return Err(crate::artifact::ArtifactError::Invalid(
                "labeled dataset with unfilled labels",
            ));
        }
        Ok(LabeledDataset {
            labels,
            drift: crate::artifact::Codec::decode(r)?,
            autolabel_accuracy: crate::artifact::Codec::decode(r)?,
        })
    }
}

impl Artifact for LabeledDataset {
    const TAG: [u8; 4] = *b"SIC2";
    const VERSION: u16 = 1;
}

impl LabeledDataset {
    /// Runs stage 2: drift estimation, label transfer, manual clean-up,
    /// truth-referenced scoring. Re-realises the truth scene from the
    /// track's config; when a [`Scene`] is already in hand, use
    /// [`LabeledDataset::label_with_scene`].
    pub fn label(track: &CuratedTrack) -> LabeledDataset {
        LabeledDataset::label_with_scene(track, &track.scene())
    }

    /// Stage 2 against an already-realised truth scene (must match the
    /// track's `config.scene`).
    pub fn label_with_scene(track: &CuratedTrack, scene: &Scene) -> LabeledDataset {
        let (labels, drift) = autolabel_with_drift(
            &track.segments,
            &track.labels,
            scene,
            &track.config.autolabel,
        );
        let (autolabel_accuracy, _) = label_accuracy(&labels, scene, 0.0);
        LabeledDataset {
            labels,
            drift,
            autolabel_accuracy,
        }
    }

    /// The label indices, parallel to the track's segments.
    pub fn label_indices(&self) -> Vec<usize> {
        self.labels
            .iter()
            .map(|l| l.label.expect("manual pass fills all labels").index())
            .collect()
    }

    /// Runs stage 3 (training) against the track this dataset labels.
    pub fn train(&self, track: &CuratedTrack) -> TrainedModels {
        TrainedModels::fit(track, self)
    }
}

// ---------------------------------------------------------------------------
// Stage 3 — TrainedModels.
// ---------------------------------------------------------------------------

/// Stage-3 artifact: the paper's two classifiers plus their held-out
/// evaluation. Independent of any particular granule — apply it to as
/// many curated tracks as you like (see [`crate::fleet::FleetDriver`]).
pub struct TrainedModels {
    /// The paper's sequence LSTM (the winner).
    pub lstm: TrainedClassifier,
    /// The paper's pointwise MLP.
    pub mlp: TrainedClassifier,
    /// Held-out weighted report for the LSTM (Table III row).
    pub lstm_report: ClassificationReport,
    /// Held-out weighted report for the MLP (Table III row).
    pub mlp_report: ClassificationReport,
    /// Held-out LSTM confusion matrix (Figure 4).
    pub lstm_confusion: ConfusionMatrix,
    /// Training hyper-parameters used.
    pub train: TrainConfig,
    /// Feature extraction the models expect at inference.
    pub features: FeatureConfig,
}

codec_struct!(TrainedModels {
    lstm,
    mlp,
    lstm_report,
    mlp_report,
    lstm_confusion,
    train,
    features,
});

impl Artifact for TrainedModels {
    const TAG: [u8; 4] = *b"SIC3";
    const VERSION: u16 = 1;
}

impl TrainedModels {
    /// Runs stage 3: 80/20 split, trains both architectures, evaluates on
    /// the held-out split.
    pub fn fit(track: &CuratedTrack, labeled: &LabeledDataset) -> TrainedModels {
        let train_cfg = &track.config.train;
        let features = &track.config.features;
        let labels_idx = labeled.label_indices();
        let seq_data = sequence_dataset(&track.segments, &labels_idx, true, features);
        let pt_data = sequence_dataset(&track.segments, &labels_idx, false, features);
        let (seq_train, seq_test) = seq_data.split(0.8, train_cfg.seed);
        let (pt_train, pt_test) = pt_data.split(0.8, train_cfg.seed);
        let mut lstm = train_classifier(ModelKind::PaperLstm, &seq_train, train_cfg);
        let mut mlp = train_classifier(ModelKind::PaperMlp, &pt_train, train_cfg);
        let (lstm_report, lstm_confusion) = lstm.evaluate(&seq_test);
        let (mlp_report, _) = mlp.evaluate(&pt_test);
        TrainedModels {
            lstm,
            mlp,
            lstm_report,
            mlp_report,
            lstm_confusion,
            train: *train_cfg,
            features: *features,
        }
    }

    /// Stage-4 inference with the winning (LSTM) model: one class per 2 m
    /// segment. Works on **any** segments, not just the training track —
    /// this is the cross-granule reuse the staged API exists for.
    ///
    /// Inference streams through the model's workspace in row chunks
    /// (see `neurite::Sequential::predict`), so repeated calls on one
    /// `TrainedModels` — the fleet-worker pattern — reuse one long-lived
    /// scratch set instead of materialising per-call intermediates.
    pub fn classify(&mut self, segments: &[Segment]) -> Vec<SurfaceClass> {
        let x = sequence_features(segments, &self.features);
        self.lstm
            .predict(&x)
            .into_iter()
            .map(|i| SurfaceClass::from_index(i).expect("3-way softmax"))
            .collect()
    }

    /// Runs stage 4 over a curated track.
    pub fn products(&mut self, track: &CuratedTrack) -> SeaIceProducts {
        SeaIceProducts::derive(track, self)
    }
}

// ---------------------------------------------------------------------------
// Stage 4 — SeaIceProducts.
// ---------------------------------------------------------------------------

/// Stage-4 artifact: the science products for one track — classes, local
/// sea surfaces, the 2 m freeboard, and the emulated ATL07/ATL10 baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SeaIceProducts {
    /// LSTM-inferred class per 2 m segment.
    pub classes: Vec<SurfaceClass>,
    /// Classification accuracy against the truth scene.
    pub classification_accuracy_vs_truth: f64,
    /// Local sea surface per candidate method (paper order).
    pub sea_surfaces: Vec<SeaSurface>,
    /// The 2 m freeboard product.
    pub freeboard_atl03: FreeboardProduct,
    /// Emulated ATL07 classes over 150-photon aggregates.
    pub atl07_classes: Vec<SurfaceClass>,
    /// Emulated ATL10 freeboard.
    pub atl10: Atl10Freeboard,
    /// Mean |ATL03 − ATL07| sea-surface gap, metres.
    pub surface_gap_m: f64,
}

codec_struct!(SeaIceProducts {
    classes,
    classification_accuracy_vs_truth,
    sea_surfaces,
    freeboard_atl03,
    atl07_classes,
    atl10,
    surface_gap_m,
});

impl Artifact for SeaIceProducts {
    const TAG: [u8; 4] = *b"SIC4";
    const VERSION: u16 = 1;
}

impl SeaIceProducts {
    /// Runs stage 4: inference, the four sea-surface candidates, 2 m
    /// freeboard, and the ATL07/ATL10 comparison product.
    pub fn derive(track: &CuratedTrack, models: &mut TrainedModels) -> SeaIceProducts {
        SeaIceProducts::derive_with_scene(track, models, &track.scene())
    }

    /// Stage 4 against an already-realised truth scene (must match the
    /// track's `config.scene`).
    pub fn derive_with_scene(
        track: &CuratedTrack,
        models: &mut TrainedModels,
        scene: &Scene,
    ) -> SeaIceProducts {
        let classes = models.classify(&track.segments);
        let classification_accuracy_vs_truth =
            eval::classification_accuracy_vs_truth(scene, &track.segments, &classes, 0.0);

        let sea_surfaces: Vec<SeaSurface> = SeaSurfaceMethod::ALL
            .iter()
            .map(|&method| {
                SeaSurface::compute_with_floor_fallback(
                    &track.segments,
                    &classes,
                    method,
                    &track.config.window,
                )
            })
            .collect();
        let nasa = sea_surfaces
            .iter()
            .find(|s| s.method == SeaSurfaceMethod::NasaEquation)
            .expect("nasa surface in ALL")
            .clone();
        let freeboard_atl03 =
            FreeboardProduct::from_segments("ATL03 2m", &track.segments, &classes, &nasa);

        let pre = preprocess_beam(&track.beam_data, &track.config.preprocess);
        let a07 = atl07_segments(&pre);
        let atl07_classes = classify_atl07(&a07, &DecisionTreeConfig::default());
        let atl10 = Atl10Freeboard::build(a07, atl07_classes.clone());
        let surface_gap_m = eval::mean_surface_gap(&nasa, &atl10.surface, &track.segments);

        SeaIceProducts {
            classes,
            classification_accuracy_vs_truth,
            sea_surfaces,
            freeboard_atl03,
            atl07_classes,
            atl10,
            surface_gap_m,
        }
    }

    /// The surface computed by `method`, if present.
    pub fn surface(&self, method: SeaSurfaceMethod) -> Option<&SeaSurface> {
        self.sea_surfaces.iter().find(|s| s.method == method)
    }
}

// ---------------------------------------------------------------------------
// Composition.
// ---------------------------------------------------------------------------

/// All four stage artifacts of one composed run.
pub struct StagedRun {
    /// Stage 1.
    pub track: CuratedTrack,
    /// Stage 2.
    pub labeled: LabeledDataset,
    /// Stage 3.
    pub models: TrainedModels,
    /// Stage 4.
    pub products: SeaIceProducts,
}

/// Builder composing the four stages with optional per-stage overrides.
///
/// ```no_run
/// use seaice::pipeline::PipelineConfig;
/// use seaice::stages::PipelineBuilder;
///
/// let run = PipelineBuilder::new(PipelineConfig::small(42)).run();
/// println!("auto-label accuracy {}", run.labeled.autolabel_accuracy);
/// ```
pub struct PipelineBuilder {
    config: PipelineConfig,
    beam: Beam,
}

impl PipelineBuilder {
    /// Starts a build from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        PipelineBuilder {
            config,
            beam: Beam::Gt2l,
        }
    }

    /// Selects the beam to curate (default: the central strong beam).
    pub fn beam(mut self, beam: Beam) -> Self {
        self.beam = beam;
        self
    }

    /// Runs stage 1 only.
    pub fn curate(self) -> CuratedTrack {
        CuratedTrack::curate_beam(self.config, self.beam)
    }

    /// Runs all four stages, keeping every intermediate artifact. The
    /// truth scene is realised once and shared by every stage.
    pub fn run(self) -> StagedRun {
        Pipeline::new(self.config).run_staged(self.beam)
    }

    /// Runs stages 1–2 and 4 against an already-trained model set —
    /// the "reuse one classifier across granules" path.
    pub fn run_with_models(self, models: &mut TrainedModels) -> (CuratedTrack, SeaIceProducts) {
        let track = self.curate();
        let products = models.products(&track);
        (track, products)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;

    #[test]
    fn staged_run_artifacts_roundtrip_through_bytes() {
        let run = PipelineBuilder::new(PipelineConfig::small(7)).run();

        let track2 = CuratedTrack::from_bytes(&run.track.to_bytes()).expect("track");
        assert_eq!(track2.segments, run.track.segments);
        assert_eq!(track2.beam, run.track.beam);
        assert_eq!(track2.meta, run.track.meta);

        let labeled2 = LabeledDataset::from_bytes(&run.labeled.to_bytes()).expect("labeled");
        assert_eq!(labeled2.labels, run.labeled.labels);
        assert_eq!(labeled2.drift, run.labeled.drift);

        let mut models2 = TrainedModels::from_bytes(&run.models.to_bytes()).expect("models");
        assert_eq!(models2.lstm_report, run.models.lstm_report);
        // The deserialized model must predict identically.
        let classes2 = models2.classify(&run.track.segments);
        assert_eq!(classes2, run.products.classes);

        let products2 = SeaIceProducts::from_bytes(&run.products.to_bytes()).expect("products");
        assert_eq!(products2.classes, run.products.classes);
        assert_eq!(
            products2.freeboard_atl03.points,
            run.products.freeboard_atl03.points
        );
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let run = PipelineBuilder::new(PipelineConfig::small(8)).curate();
        let bytes = run.to_bytes();
        assert!(LabeledDataset::from_bytes(&bytes).is_err());
    }

    #[test]
    fn curate_is_deterministic() {
        let a = CuratedTrack::curate(PipelineConfig::small(5));
        let b = CuratedTrack::curate(PipelineConfig::small(5));
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.true_shift_m, b.true_shift_m);
    }
}
