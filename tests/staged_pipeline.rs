//! The staged-artifact API: artifact persistence, cross-granule model
//! reuse, and the fleet driver.

use icesat2_seaice::seaice::heuristic::{heuristic_classes, HeuristicConfig};
use icesat2_seaice::seaice::pipeline::{Pipeline, PipelineConfig};
use icesat2_seaice::seaice::stages::{PipelineBuilder, TrainedModels};
use icesat2_seaice::seaice::{eval, Artifact, FleetDriver};
use icesat2_seaice::sparklite::Cluster;

/// Every stage artifact must survive a disk roundtrip, and a reloaded
/// `TrainedModels` must predict identically.
#[test]
fn artifacts_roundtrip_on_disk() {
    let run = PipelineBuilder::new(PipelineConfig::small(43)).run();
    let dir = std::env::temp_dir().join("staged_artifact_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();

    let track_path = dir.join("track.sic1");
    run.track.save(&track_path).unwrap();
    let track = icesat2_seaice::seaice::CuratedTrack::load(&track_path).unwrap();
    assert_eq!(track.segments, run.track.segments);
    assert_eq!(track.config, run.track.config);

    let labeled_path = dir.join("labels.sic2");
    run.labeled.save(&labeled_path).unwrap();
    let labeled = icesat2_seaice::seaice::LabeledDataset::load(&labeled_path).unwrap();
    assert_eq!(labeled.labels, run.labeled.labels);

    let models_path = dir.join("models.sic3");
    run.models.save(&models_path).unwrap();
    let mut models = TrainedModels::load(&models_path).unwrap();
    assert_eq!(models.classify(&track.segments), run.products.classes);

    let products_path = dir.join("products.sic4");
    run.products.save(&products_path).unwrap();
    let products = icesat2_seaice::seaice::SeaIceProducts::load(&products_path).unwrap();
    assert_eq!(products.classes, run.products.classes);
    assert_eq!(products.surface_gap_m, run.products.surface_gap_m);

    let _ = std::fs::remove_dir_all(&dir);
}

/// One `TrainedModels` reused across granules from a *different* seed
/// (different truth scene, different photons) must still classify well —
/// at or above the physics-threshold heuristic baseline. This is the
/// cross-granule reuse the staged API exists for.
#[test]
fn trained_models_transfer_across_granule_seeds() {
    // Train on scene 44.
    let train_run = PipelineBuilder::new(PipelineConfig::small(44)).run();
    let mut models = train_run.models;

    // Apply to a freshly curated scene 45 — different truth scene,
    // different photons — without retraining.
    let other = PipelineBuilder::new(PipelineConfig::small(45)).curate();
    let scene = other.scene();
    let dl_classes = models.classify(&other.segments);
    let dl_acc = eval::classification_accuracy_vs_truth(&scene, &other.segments, &dl_classes, 0.0);

    let heur_classes = heuristic_classes(&other.segments, &HeuristicConfig::default());
    let heur_acc =
        eval::classification_accuracy_vs_truth(&scene, &other.segments, &heur_classes, 0.0);

    assert!(dl_acc > 0.9, "transferred LSTM accuracy {dl_acc}");
    assert!(
        dl_acc > heur_acc,
        "transferred LSTM ({dl_acc:.3}) fell behind the heuristic baseline ({heur_acc:.3})"
    );
}

/// `FleetDriver` must process a ≥4-granule fleet with one shared
/// `TrainedModels`, produce one product per beam partition, and be
/// invariant to cluster topology.
#[test]
fn fleet_driver_reuses_one_model_across_four_granules() {
    let cfg = PipelineConfig::small(44);
    let run = PipelineBuilder::new(cfg.clone()).run();

    let pipeline = Pipeline::new(cfg.clone());
    let dir = std::env::temp_dir().join("staged_fleet_four_granules");
    let n_granules = 4;
    let sources = FleetDriver::write_fleet(&pipeline, &dir, n_granules).expect("fleet");
    assert_eq!(sources.len(), n_granules * 3, "three strong beams each");

    let (products_1, _) =
        FleetDriver::new(Cluster::new(1, 1), &cfg).classify_run(&sources, &run.models);
    let (products_4, report) =
        FleetDriver::new(Cluster::new(2, 2), &cfg).classify_run(&sources, &run.models);

    assert_eq!(products_1.len(), sources.len());
    assert_eq!(products_4.len(), sources.len());
    for (a, b) in products_1.iter().zip(&products_4) {
        assert_eq!(a.granule_id, b.granule_id);
        assert_eq!(a.beam, b.beam);
        assert_eq!(a.class_counts, b.class_counts);
        assert_eq!(a.freeboard.points, b.freeboard.points);
    }

    // Each beam produced a meaningful product.
    let granules: std::collections::BTreeSet<_> =
        products_1.iter().map(|p| p.granule_id.clone()).collect();
    assert_eq!(granules.len(), n_granules);
    for p in &products_1 {
        assert!(p.n_segments > 1_000, "{}/{}", p.granule_id, p.beam);
        assert_eq!(p.class_counts.iter().sum::<usize>(), p.n_segments);
        assert!(!p.freeboard.is_empty());
    }
    assert!(report.times.reduce_s >= 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}
