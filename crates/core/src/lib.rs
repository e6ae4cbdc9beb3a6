//! `seaice` — the paper's primary contribution, end to end.
//!
//! Higher-resolution (2 m) polar sea-ice classification and freeboard
//! retrieval from ICESat-2 ATL03 data (Iqrah et al., IPDPS 2025),
//! assembled from the workspace substrates:
//!
//! - [`features`] — the six per-segment classifier features (elevation,
//!   height σ, high-confidence photon count, photon-rate change,
//!   background count, background-rate change) and the ±2-segment
//!   sequence windows the LSTM consumes;
//! - [`labeling`] — IS2 auto-labeling from segmented Sentinel-2 rasters:
//!   label transfer in EPSG-3976, drift (shift) estimation/correction
//!   (paper Table I), and the simulated manual clean-up of transition and
//!   cloud regions;
//! - [`models`] — the paper's exact LSTM and MLP architectures plus
//!   training/evaluation wrappers (Table III, Figure 4);
//! - [`atl07`] — the 150-photon-aggregate ATL07 baseline with a
//!   NASA-style decision-tree surface classifier, and the ATL10-style
//!   freeboard derived from it (the comparison product in Figures 6–11);
//! - [`seasurface`] — local sea level over 10 km windows with 5 km
//!   overlap via the four candidate methods (minimum / average /
//!   nearest-minimum / NASA's variance-weighted lead equations) and
//!   linear interpolation across waterless windows (Figures 8, 9);
//! - [`freeboard`] — `hf = hs − href` per 2 m segment, distributions and
//!   density comparisons (Figures 10, 11);
//! - [`stages`] — **the staged pipeline API**: typed, serializable
//!   artifacts per workflow stage ([`stages::CuratedTrack`] →
//!   [`stages::LabeledDataset`] → [`stages::TrainedModels`] →
//!   [`stages::SeaIceProducts`]) composed by [`stages::PipelineBuilder`];
//! - [`artifact`] — the versioned binary persistence layer behind the
//!   stage artifacts (serde-free; the workspace builds offline);
//! - [`fleet`] — [`fleet::FleetDriver`], which broadcasts one
//!   [`stages::TrainedModels`] across a `sparklite` cluster and processes
//!   whole granule fleets beam-parallel;
//! - [`pipeline`] — the workflow configuration and the truth-scene
//!   [`pipeline::Pipeline`] the stages run on;
//! - [`eval`] — truth-referenced scoring (the luxury a synthetic scene
//!   buys us): classification accuracy, sea-surface RMSE, freeboard RMSE,
//!   and product-density ratios.

pub mod artifact;
pub mod atl07;
pub mod eval;
pub mod features;
pub mod fleet;
pub mod freeboard;
pub mod heuristic;
pub mod labeling;
pub mod models;
pub mod pipeline;
pub mod seasurface;
pub mod stages;
pub mod stats;
pub mod thickness;

pub use artifact::{Artifact, ArtifactError};
pub use atl07::{atl07_segments, classify_atl07, Atl07Segment, Atl10Freeboard};
pub use features::{segment_features, sequence_dataset, FeatureConfig, N_FEATURES, SEQ_LEN};
pub use fleet::{BeamProducts, FleetDriver, FreeboardSummary};
pub use freeboard::{FreeboardPoint, FreeboardProduct};
pub use heuristic::{heuristic_classes, HeuristicConfig};
pub use labeling::{autolabel_segments, estimate_drift, AutoLabelConfig, LabeledSegment};
pub use models::{paper_lstm, paper_mlp, train_classifier, ModelKind, TrainedClassifier};
pub use pipeline::{Pipeline, PipelineConfig};
pub use seasurface::{SeaSurface, SeaSurfaceMethod};
pub use stages::{
    CuratedTrack, LabeledDataset, PipelineBuilder, SeaIceProducts, StagedRun, TrainedModels,
};
pub use stats::{percentile_nearest_rank, summary_stats};
pub use thickness::{thickness_from_freeboard, Densities, SnowModel};
