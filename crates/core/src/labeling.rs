//! IS2 auto-labeling from segmented Sentinel-2 rasters.
//!
//! Paper Section III-A-3/4: project both products to EPSG 3976, estimate
//! the drift-induced misalignment between the S2 scene and the IS2 track
//! (Table I's "shift of S2 images"), shift the label raster, transfer
//! labels onto the 2 m segments, and finally clean up the residual errors
//! at class transitions and under clouds — the step the paper performs
//! manually and we simulate with a truth oracle confined to exactly those
//! regions.

use icesat_atl03::Segment;
use icesat_geo::{GeoPoint, MapPoint, EPSG_3976};
use icesat_scene::{Scene, SurfaceClass};
use icesat_sentinel2::{Label, LabelRaster};
use serde::{Deserialize, Serialize};

/// Auto-labeling configuration.
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct AutoLabelConfig {
    /// Drift-search half-extent, metres.
    pub shift_search_radius_m: f64,
    /// Drift-search grid step, metres (Table I reports shifts rounded to
    /// 50 m).
    pub shift_search_step_m: f64,
    /// Half-width of the "transition region" around label changes that
    /// the manual pass re-examines, metres along-track.
    pub transition_halfwidth_m: f64,
}

impl Default for AutoLabelConfig {
    fn default() -> Self {
        AutoLabelConfig {
            shift_search_radius_m: 700.0,
            shift_search_step_m: 50.0,
            transition_halfwidth_m: 8.0,
        }
    }
}

/// A 2 m segment with its transferred label.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LabeledSegment {
    /// The underlying segment statistics.
    pub segment: Segment,
    /// Transferred surface class; `None` under thick cloud or off-raster.
    pub label: Option<SurfaceClass>,
}

/// Projects a segment's mean photon position into the EPSG-3976 plane.
pub fn segment_map_point(segment: &Segment) -> MapPoint {
    EPSG_3976.forward(GeoPoint::new(segment.lat, segment.lon))
}

/// Transfers labels from `raster` (already drift-shifted by the caller)
/// onto segments.
pub fn autolabel_segments(segments: &[Segment], raster: &LabelRaster) -> Vec<LabeledSegment> {
    segments
        .iter()
        .map(|s| {
            let label = raster.sample(segment_map_point(s)).and_then(|l| l.class());
            LabeledSegment { segment: *s, label }
        })
        .collect()
}

/// Alignment score for one candidate shift: the negative count-weighted
/// within-class variance of segment elevation. When labels line up with
/// the track, water segments cluster at sea level and ice segments at
/// their freeboards, collapsing the per-class spread; a misaligned raster
/// mixes the populations and inflates it.
fn alignment_score(segments: &[Segment], raster: &LabelRaster, dx: f64, dy: f64) -> f64 {
    let shifted = raster.shifted(dx, dy);
    let mut sums = [0.0f64; 3];
    let mut sq = [0.0f64; 3];
    let mut counts = [0usize; 3];
    for s in segments {
        if let Some(Label::Class(c)) = shifted.sample(segment_map_point(s)) {
            let i = c.index();
            sums[i] += s.mean_h_m;
            sq[i] += s.mean_h_m * s.mean_h_m;
            counts[i] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return f64::NEG_INFINITY;
    }
    let mut weighted_var = 0.0;
    for i in 0..3 {
        if counts[i] > 1 {
            let n = counts[i] as f64;
            let mean = sums[i] / n;
            weighted_var += sq[i] - n * mean * mean; // n·var
        }
    }
    -(weighted_var / total as f64)
}

/// The full stage-2 labeling chain: drift estimation, shifted label
/// transfer, and the simulated manual pass against the truth scene.
/// Shared by [`crate::pipeline::Pipeline::autolabel`] and the
/// staged [`crate::stages::LabeledDataset`] so the algorithm exists once.
pub fn autolabel_with_drift(
    segments: &[Segment],
    raster: &LabelRaster,
    scene: &Scene,
    cfg: &AutoLabelConfig,
) -> (Vec<LabeledSegment>, DriftEstimate) {
    let est = estimate_drift(segments, raster, cfg);
    let shifted = raster.shifted(est.dx_m, est.dy_m);
    let mut labeled = autolabel_segments(segments, &shifted);
    manual_correction(&mut labeled, scene, 0.0, cfg);
    (labeled, est)
}

/// Estimated drift shift with its score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftEstimate {
    /// Estimated raster shift that re-aligns S2 with the IS2 track,
    /// metres (apply with `raster.shifted(dx, dy)`).
    pub dx_m: f64,
    /// Shift y-component, metres.
    pub dy_m: f64,
    /// Alignment score at the optimum.
    pub score: f64,
}

/// Grid-searches the raster shift that best aligns S2 labels with the IS2
/// elevation profile. The returned shift is the *correction* to apply to
/// the raster (≈ minus the true ice displacement accumulated between the
/// two acquisitions).
pub fn estimate_drift(
    segments: &[Segment],
    raster: &LabelRaster,
    cfg: &AutoLabelConfig,
) -> DriftEstimate {
    assert!(!segments.is_empty(), "no segments to align");
    let r = cfg.shift_search_radius_m;
    let step = cfg.shift_search_step_m;
    assert!(step > 0.0 && r >= 0.0, "bad search grid");
    let n = (r / step).floor() as i64;
    let mut best = DriftEstimate {
        dx_m: 0.0,
        dy_m: 0.0,
        score: f64::NEG_INFINITY,
    };
    for ix in -n..=n {
        for iy in -n..=n {
            let dx = ix as f64 * step;
            let dy = iy as f64 * step;
            let score = alignment_score(segments, raster, dx, dy);
            // Deterministic tie-break: prefer the smaller shift.
            let better = score > best.score + 1e-12
                || (score > best.score - 1e-12 && dx.hypot(dy) < best.dx_m.hypot(best.dy_m) - 1e-9);
            if better {
                best = DriftEstimate {
                    dx_m: dx,
                    dy_m: dy,
                    score,
                };
            }
        }
    }
    best
}

/// Report of the simulated manual correction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManualCorrectionReport {
    /// Segments corrected because they sat in a label-transition zone.
    pub corrected_transition: usize,
    /// Segments filled in because the S2 label was cloud-masked/missing.
    pub corrected_cloud: usize,
}

/// Simulates the paper's manual clean-up: re-label segments within
/// `transition_halfwidth_m` of a label change, and fill cloud/off-raster
/// gaps, using the truth scene *only in those regions* (the "human
/// inspecting the photon cloud" oracle). `t_minutes` is the IS2
/// acquisition offset used for truth queries.
pub fn manual_correction(
    labeled: &mut [LabeledSegment],
    scene: &Scene,
    t_minutes: f64,
    cfg: &AutoLabelConfig,
) -> ManualCorrectionReport {
    let mut report = ManualCorrectionReport {
        corrected_transition: 0,
        corrected_cloud: 0,
    };
    // Mark transition zones on the auto-labels.
    let n = labeled.len();
    let mut in_transition = vec![false; n];
    for i in 1..n {
        let (a, b) = (labeled[i - 1].label, labeled[i].label);
        if let (Some(ca), Some(cb)) = (a, b) {
            if ca != cb {
                let boundary =
                    0.5 * (labeled[i - 1].segment.along_track_m + labeled[i].segment.along_track_m);
                for (j, seg) in labeled.iter().enumerate() {
                    if (seg.segment.along_track_m - boundary).abs() <= cfg.transition_halfwidth_m {
                        in_transition[j] = true;
                    }
                }
            }
        }
    }
    for (i, ls) in labeled.iter_mut().enumerate() {
        let truth = || scene.class_at(segment_map_point(&ls.segment), t_minutes);
        match ls.label {
            None => {
                ls.label = Some(truth());
                report.corrected_cloud += 1;
            }
            Some(current) if in_transition[i] => {
                let t = truth();
                if t != current {
                    ls.label = Some(t);
                    report.corrected_transition += 1;
                }
            }
            _ => {}
        }
    }
    report
}

/// Scores labels against the truth scene: `(accuracy, labelled_count)`.
pub fn label_accuracy(labeled: &[LabeledSegment], scene: &Scene, t_minutes: f64) -> (f64, usize) {
    let mut correct = 0usize;
    let mut n = 0usize;
    for ls in labeled {
        if let Some(label) = ls.label {
            n += 1;
            if label == scene.class_at(segment_map_point(&ls.segment), t_minutes) {
                correct += 1;
            }
        }
    }
    if n == 0 {
        (0.0, 0)
    } else {
        (correct as f64 / n as f64, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icesat_atl03::generator::test_meta;
    use icesat_atl03::{
        preprocess_beam, resample_2m, Atl03Generator, Beam, GeneratorConfig, PreprocessConfig,
        ResampleConfig, TrackConfig,
    };
    use icesat_scene::{DriftModel, SceneConfig};
    use icesat_sentinel2::{render_scene, segment_image, RenderConfig, SegmentationConfig};

    /// Builds scene + 2 m segments + coincident S2 label raster with the
    /// given drift and S2 acquisition offset.
    fn setup(
        seed: u64,
        drift: DriftModel,
        s2_offset_min: f64,
        cloud: f64,
    ) -> (Scene, Vec<Segment>, LabelRaster) {
        let mut sc = SceneConfig::ross_sea_with_drift(seed, drift);
        sc.half_extent_m = 3_500.0;
        let scene = Scene::generate(sc);
        let track = TrackConfig::crossing(scene.config().center, 6_000.0);
        let gen = Atl03Generator::new(
            &scene,
            GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            },
        );
        let granule = gen.generate(test_meta(0.0), &track, &[Beam::Gt2l]);
        let pre = preprocess_beam(
            granule.beam(Beam::Gt2l).unwrap(),
            &PreprocessConfig::default(),
        );
        let segments = resample_2m(&pre, &ResampleConfig::default());
        let img = render_scene(
            &scene,
            &RenderConfig {
                seed: seed ^ 0xFACE,
                pixel_size_m: 25.0,
                cloud_cover: cloud,
                acquisition_offset_min: s2_offset_min,
                ..RenderConfig::default()
            },
        );
        let (labels, _) = segment_image(&img, &SegmentationConfig::default());
        (scene, segments, labels)
    }

    #[test]
    fn autolabel_clear_sky_no_drift_is_accurate() {
        let (scene, segments, raster) = setup(3, DriftModel::STILL, 0.0, 0.0);
        let labeled = autolabel_segments(&segments, &raster);
        let (acc, n) = label_accuracy(&labeled, &scene, 0.0);
        assert!(n > 2000, "labelled {n}");
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn drift_estimation_recovers_true_shift() {
        let drift = DriftModel::from_displacement(300.0, -200.0, 40.0);
        let (_, segments, raster) = setup(5, drift, 40.0, 0.0);
        let cfg = AutoLabelConfig::default();
        let est = estimate_drift(&segments, &raster, &cfg);
        // Correction shift ≈ minus the true displacement (300, −200).
        assert!(
            (est.dx_m + 300.0).abs() <= 100.0,
            "dx {} (want ≈ −300)",
            est.dx_m
        );
        assert!(
            (est.dy_m - 200.0).abs() <= 100.0,
            "dy {} (want ≈ +200)",
            est.dy_m
        );
    }

    #[test]
    fn drift_correction_improves_label_accuracy() {
        let drift = DriftModel::from_displacement(350.0, 250.0, 45.0);
        let (scene, segments, raster) = setup(7, drift, 45.0, 0.0);
        let cfg = AutoLabelConfig::default();
        let raw = autolabel_segments(&segments, &raster);
        let (raw_acc, _) = label_accuracy(&raw, &scene, 0.0);
        let est = estimate_drift(&segments, &raster, &cfg);
        let corrected = autolabel_segments(&segments, &raster.shifted(est.dx_m, est.dy_m));
        let (cor_acc, _) = label_accuracy(&corrected, &scene, 0.0);
        assert!(
            cor_acc >= raw_acc,
            "correction hurt: {raw_acc:.3} -> {cor_acc:.3}"
        );
        assert!(cor_acc > 0.85, "corrected accuracy {cor_acc:.3}");
    }

    #[test]
    fn zero_drift_estimates_near_zero_shift() {
        let (_, segments, raster) = setup(9, DriftModel::STILL, 10.0, 0.0);
        let est = estimate_drift(&segments, &raster, &AutoLabelConfig::default());
        assert!(
            est.dx_m.abs() <= 100.0 && est.dy_m.abs() <= 100.0,
            "{est:?}"
        );
    }

    #[test]
    fn manual_correction_fills_cloud_gaps_and_fixes_transitions() {
        let (scene, segments, raster) = setup(11, DriftModel::STILL, 0.0, 0.5);
        let mut labeled = autolabel_segments(&segments, &raster);
        let missing_before = labeled.iter().filter(|l| l.label.is_none()).count();
        let (acc_before, _) = label_accuracy(&labeled, &scene, 0.0);
        let report = manual_correction(&mut labeled, &scene, 0.0, &AutoLabelConfig::default());
        assert_eq!(report.corrected_cloud, missing_before);
        assert!(labeled.iter().all(|l| l.label.is_some()));
        let (acc_after, n_after) = label_accuracy(&labeled, &scene, 0.0);
        assert_eq!(n_after, labeled.len());
        assert!(acc_after >= acc_before, "{acc_before:.3} -> {acc_after:.3}");
        assert!(acc_after > 0.9, "final accuracy {acc_after:.3}");
    }

    #[test]
    fn manual_correction_leaves_interior_labels_alone() {
        let (scene, segments, raster) = setup(13, DriftModel::STILL, 0.0, 0.0);
        let mut labeled = autolabel_segments(&segments, &raster);
        // Flip one far-from-transition label to a wrong class and verify
        // the manual pass does NOT touch it (fix is confined to
        // transition/cloud zones, like the paper's).
        let mut in_transition = vec![false; labeled.len()];
        for i in 1..labeled.len() {
            if labeled[i - 1].label != labeled[i].label {
                let (lo, hi) = (i.saturating_sub(6), (i + 6).min(labeled.len()));
                in_transition[lo..hi].iter_mut().for_each(|t| *t = true);
            }
        }
        let victim = (0..labeled.len())
            .find(|&i| !in_transition[i] && labeled[i].label == Some(SurfaceClass::ThickIce))
            .expect("an interior thick-ice segment");
        labeled[victim].label = Some(SurfaceClass::OpenWater);
        // Flipping creates new transitions around the victim, so the
        // manual pass may now fix it; run on a copy with the original
        // transitions only by checking a control index far from victim.
        let control = (0..labeled.len())
            .rfind(|&i| {
                !in_transition[i]
                    && labeled[i].label == Some(SurfaceClass::ThickIce)
                    && (i as i64 - victim as i64).unsigned_abs() as usize > 20
            })
            .expect("control segment");
        let control_label = labeled[control].label;
        let _ = manual_correction(&mut labeled, &scene, 0.0, &AutoLabelConfig::default());
        assert_eq!(
            labeled[control].label, control_label,
            "interior label touched"
        );
    }

    #[test]
    #[should_panic(expected = "no segments")]
    fn drift_estimation_needs_segments() {
        let (_, _, raster) = setup(15, DriftModel::STILL, 0.0, 0.0);
        let _ = estimate_drift(&[], &raster, &AutoLabelConfig::default());
    }
}
