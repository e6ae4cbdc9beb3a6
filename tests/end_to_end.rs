//! End-to-end integration: the four-stage pipeline across all crates,
//! run through `PipelineBuilder::run` (see `tests/staged_pipeline.rs`
//! for the stage-level coverage).

use icesat2_seaice::scene::SurfaceClass;
use icesat2_seaice::seaice::pipeline::PipelineConfig;
use icesat2_seaice::seaice::stages::PipelineBuilder;

#[test]
fn full_pipeline_products_are_coherent() {
    let run = PipelineBuilder::new(PipelineConfig::small(1002)).run();
    let segments = &run.track.segments;
    let products = &run.products;

    // --- Stage 1: curation + auto-labeling.
    assert!(segments.len() > 2_000, "too few 2 m segments");
    assert_eq!(run.labeled.labels.len(), segments.len());
    assert!(run.labeled.labels.iter().all(|l| l.label.is_some()));
    assert!(
        run.labeled.autolabel_accuracy > 0.85,
        "auto-label accuracy {}",
        run.labeled.autolabel_accuracy
    );
    // Segments are along-track ordered with 2 m indexing.
    assert!(segments
        .windows(2)
        .all(|w| w[0].index < w[1].index && w[0].along_track_m < w[1].along_track_m));

    // --- Stage 2: the paper's model ranking (LSTM wins).
    let lstm = run.models.lstm_report;
    let mlp = run.models.mlp_report;
    assert!(lstm.accuracy > 0.85, "LSTM accuracy {}", lstm.accuracy);
    assert!(
        lstm.accuracy >= mlp.accuracy,
        "LSTM {} should beat MLP {}",
        lstm.accuracy,
        mlp.accuracy
    );
    // Figure 4 ordering: majority class has the best recall.
    let m = &run.models.lstm_confusion;
    assert!(m.recall(0) >= m.recall(1));
    assert!(m.recall(0) >= m.recall(2));

    // --- Stage 3: inference covers every segment.
    assert_eq!(products.classes.len(), segments.len());
    assert!(
        products.classification_accuracy_vs_truth > 0.85,
        "truth accuracy {}",
        products.classification_accuracy_vs_truth
    );
    // Thick ice dominates the Ross Sea.
    let thick = products
        .classes
        .iter()
        .filter(|c| **c == SurfaceClass::ThickIce)
        .count();
    assert!(thick * 2 > products.classes.len(), "thick not dominant");

    // --- Stage 4: surfaces and freeboard.
    assert_eq!(products.sea_surfaces.len(), 4);
    for ss in &products.sea_surfaces {
        let name = ss.method.name();
        assert!(!ss.centers_m.is_empty(), "{name} produced no windows");
        assert!(
            ss.href_m.iter().all(|h| h.abs() < 1.0),
            "{name} produced implausible sea levels"
        );
    }
    // The headline: 2 m product is dramatically denser than ATL10.
    let ratio = products.freeboard_atl03.density_per_km()
        / products.atl10.product.density_per_km().max(1e-9);
    assert!(ratio > 5.0, "density ratio {ratio}");
    // Mean ice freeboard is physically plausible for the Ross Sea.
    let (mean, _, _) = products.freeboard_atl03.stats();
    assert!((0.05..0.8).contains(&mean), "mean freeboard {mean}");
    // ATL03-vs-ATL07 sea-surface gap is decimetre-scale, like the paper
    // (ours is a little larger because the ATL07 emulation classifies
    // with a noisy decision tree).
    assert!(
        products.surface_gap_m < 0.3,
        "gap {}",
        products.surface_gap_m
    );
}

#[test]
fn pipeline_is_deterministic() {
    let a = PipelineBuilder::new(PipelineConfig::small(1003)).run();
    let b = PipelineBuilder::new(PipelineConfig::small(1003)).run();
    assert_eq!(a.track.segments.len(), b.track.segments.len());
    assert_eq!(a.products.classes, b.products.classes);
    assert_eq!(a.labeled.drift.dx_m, b.labeled.drift.dx_m);
    let (a, b) = (&a.products.freeboard_atl03, &b.products.freeboard_atl03);
    assert_eq!(a.points.len(), b.points.len());
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.freeboard_m, y.freeboard_m);
    }
}

#[test]
fn different_seeds_give_different_scenes_same_quality() {
    let a = PipelineBuilder::new(PipelineConfig::small(1005)).run();
    let b = PipelineBuilder::new(PipelineConfig::small(1006)).run();
    // Different truth, both pipelines still work.
    assert!(a.labeled.autolabel_accuracy > 0.85);
    assert!(b.labeled.autolabel_accuracy > 0.85);
    assert_ne!(
        a.track.segments.len(),
        b.track.segments.len(),
        "different scenes should photon-count differently"
    );
}
