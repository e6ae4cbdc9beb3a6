//! Runners for the paper's figures (2, 4, 5, 6/7, 8/9, 10/11).
//!
//! Figures are emitted as data series / summary statistics rather than
//! raster plots: each runner prints the series a plotting script would
//! consume and asserts the figure's qualitative claim (density contrast,
//! smoothest method, matching distribution peaks, …). All runners consume
//! the staged artifacts ([`seaice::stages`]) of one shared workload.

use seaice::eval;
use seaice::seasurface::SeaSurfaceMethod;

use crate::common::{compare_line, shared_run, ExperimentOutput, Scale};

/// Figure 2: auto-labeling of the IS2 track from the segmented S2 scene —
/// prints a windowed sample of the labelled elevation series and the
/// overall auto-label accuracy.
pub fn fig2(scale: Scale) -> ExperimentOutput {
    let sp = shared_run(scale, 33);
    let labeled = &sp.1.labeled;
    let mut report = String::from(
        "FIGURE 2 — IS2 auto-labels over the S2-classified scene\n\
         along(m)  elevation(m)  auto-label\n",
    );
    let n = labeled.labels.len();
    for ls in labeled.labels.iter().step_by((n / 40).max(1)) {
        report.push_str(&format!(
            "{:>8.0}  {:>12.3}  {}\n",
            ls.segment.along_track_m,
            ls.segment.mean_h_m,
            ls.label.map(|c| c.name()).unwrap_or("cloud")
        ));
    }
    report.push_str(&format!(
        "\nauto-label accuracy vs truth: {:.2}% over {} segments\n",
        100.0 * labeled.autolabel_accuracy,
        n
    ));
    let metrics = vec![("autolabel_accuracy".into(), labeled.autolabel_accuracy)];
    ExperimentOutput {
        id: "fig2",
        report,
        metrics,
    }
}

/// Figure 4: the LSTM confusion matrix with per-class recall.
pub fn fig4(scale: Scale) -> ExperimentOutput {
    let sp = shared_run(scale, 33);
    let m = &sp.1.models.lstm_confusion;
    let mut report = String::from("FIGURE 4 — sea-ice classification confusion matrix (LSTM)\n");
    report.push_str(&m.render(&["thick ice", "thin ice", "open water"]));
    report.push('\n');
    report.push_str(&compare_line(
        "thick-ice recall % (paper 98.39)",
        98.39,
        100.0 * m.recall(0),
    ));
    report.push_str(&compare_line(
        "thin-ice recall % (paper 73.80)",
        73.80,
        100.0 * m.recall(1),
    ));
    report.push_str(&compare_line(
        "open-water recall % (paper 60.25)",
        60.25,
        100.0 * m.recall(2),
    ));
    report.push_str(&format!(
        "  majority-class recall ordering holds (thick highest): {}\n",
        m.recall(0) >= m.recall(1) && m.recall(0) >= m.recall(2)
    ));
    let metrics = vec![
        ("thick_recall".into(), m.recall(0)),
        ("thin_recall".into(), m.recall(1)),
        ("water_recall".into(), m.recall(2)),
    ];
    ExperimentOutput {
        id: "fig4",
        report,
        metrics,
    }
}

/// Figures 6 & 7: ATL03 (2 m, LSTM) vs ATL07 (decision tree) surface
/// classification along the track — the density/resolution contrast.
pub fn fig6(scale: Scale) -> ExperimentOutput {
    let sp = shared_run(scale, 33);
    let (pipeline, run) = (&sp.0, &sp.1);
    let track_km = pipeline.cfg.track_length_m / 1000.0;
    let atl03_density = run.track.segments.len() as f64 / track_km;
    let atl07_density = run.products.atl07_classes.len() as f64 / track_km;

    let mut counts03 = [0usize; 3];
    for c in &run.products.classes {
        counts03[c.index()] += 1;
    }
    let mut counts07 = [0usize; 3];
    for c in &run.products.atl07_classes {
        counts07[c.index()] += 1;
    }

    let mut report = String::from("FIGURES 6/7 — classification: ATL03 2 m vs ATL07 emulation\n");
    report.push_str(&format!(
        "ATL03 2 m : {:>8} segments ({:>7.1} per km)  thick/thin/water = {:?}\n",
        run.track.segments.len(),
        atl03_density,
        counts03
    ));
    report.push_str(&format!(
        "ATL07     : {:>8} segments ({:>7.1} per km)  thick/thin/water = {:?}\n",
        run.products.atl07_classes.len(),
        atl07_density,
        counts07
    ));
    report.push_str(&format!(
        "density ratio ATL03/ATL07: {:.1}x  (paper: 2 m vs 10–200 m segments)\n",
        atl03_density / atl07_density
    ));
    report.push_str(&format!(
        "ATL03 classification accuracy vs truth: {:.2}%\n",
        100.0 * run.products.classification_accuracy_vs_truth
    ));
    let metrics = vec![
        ("density_ratio".into(), atl03_density / atl07_density),
        (
            "atl03_truth_accuracy".into(),
            run.products.classification_accuracy_vs_truth,
        ),
    ];
    ExperimentOutput {
        id: "fig6",
        report,
        metrics,
    }
}

/// Figures 8 & 9: the four local sea-surface methods and the
/// ATL03-vs-ATL07 sea-surface comparison.
pub fn fig8(scale: Scale) -> ExperimentOutput {
    let sp = shared_run(scale, 33);
    let (pipeline, run) = (&sp.0, &sp.1);
    let mut report = String::from(
        "FIGURES 8/9 — local sea surface: four methods on ATL03\n\
         method            windows  roughness(m)  RMSE vs truth (m)\n",
    );
    let mut metrics = Vec::new();
    let mut nasa_rough = f64::INFINITY;
    let mut max_other = 0.0f64;
    for ss in &run.products.sea_surfaces {
        let method = ss.method;
        let rmse = eval::sea_surface_rmse(&pipeline.scene, &run.track.segments, ss);
        report.push_str(&format!(
            "{:<17} {:>7}  {:>12.4}  {:>17.4}\n",
            method.name(),
            ss.centers_m.len(),
            ss.roughness(),
            rmse
        ));
        metrics.push((format!("{}_roughness", method.name()), ss.roughness()));
        metrics.push((format!("{}_rmse", method.name()), rmse));
        if method == SeaSurfaceMethod::NasaEquation {
            nasa_rough = ss.roughness();
        } else {
            max_other = max_other.max(ss.roughness());
        }
    }
    report.push_str(&format!(
        "\nNASA method smoothest-or-tied vs roughest alternative: {} ({:.4} vs {:.4})\n",
        nasa_rough <= max_other,
        nasa_rough,
        max_other
    ));
    report.push_str(&compare_line(
        "ATL03-vs-ATL07 surface gap m (paper ~0.1)",
        0.1,
        run.products.surface_gap_m,
    ));
    metrics.push(("surface_gap_m".into(), run.products.surface_gap_m));
    ExperimentOutput {
        id: "fig8",
        report,
        metrics,
    }
}

/// Figures 10 & 11: freeboard products — series stats, distributions
/// (peak alignment), and the point-density contrast.
pub fn fig10(scale: Scale) -> ExperimentOutput {
    let sp = shared_run(scale, 33);
    let (pipeline, run) = (&sp.0, &sp.1);
    let atl03 = &run.products.freeboard_atl03;
    let atl10 = &run.products.atl10.product;

    let (mean03, med03, p95_03) = atl03.stats();
    let (mean10, med10, _) = atl10.stats();
    let peak03 = atl03.modal_freeboard(-0.2, 1.2, 56);
    let peak10 = atl10.modal_freeboard(-0.2, 1.2, 56);
    let ratio = eval::density_ratio(atl03, atl10);
    let fb_rmse = eval::freeboard_rmse_vs_truth(&pipeline.scene, atl03, 0.0);

    let mut report = String::from("FIGURES 10/11 — freeboard: ATL03 2 m vs ATL10 emulation\n");
    report.push_str(&format!(
        "ATL03 2 m : {:>8} pts  {:>7.1} pts/km  mean {:.3} m  median {:.3} m  p95 {:.3} m\n",
        atl03.len(),
        atl03.density_per_km(),
        mean03,
        med03,
        p95_03
    ));
    report.push_str(&format!(
        "ATL10     : {:>8} pts  {:>7.1} pts/km  mean {:.3} m  median {:.3} m\n",
        atl10.len(),
        atl10.density_per_km(),
        mean10,
        med10
    ));
    report.push_str(&format!(
        "distribution peaks: ATL03 {:.3} m vs ATL10 {:.3} m (paper: similar peak values)\n",
        peak03, peak10
    ));
    report.push_str(&format!("point-density ratio ATL03/ATL10: {ratio:.1}x\n"));
    report.push_str(&format!("ATL03 freeboard RMSE vs truth: {fb_rmse:.3} m\n"));

    // Histogram series (the 10c/11c panel).
    report.push_str("\nfreeboard histogram (ice only), ATL03 | ATL10:\n");
    let h03 = atl03.histogram(-0.1, 1.0, 22);
    let h10 = atl10.histogram(-0.1, 1.0, 22);
    for ((c, a), (_, b)) in h03.iter().zip(&h10) {
        report.push_str(&format!("  {c:>6.2} m  {a:>7}  {b:>5}\n"));
    }

    let metrics = vec![
        ("density_ratio".into(), ratio),
        ("peak_gap_m".into(), (peak03 - peak10).abs()),
        ("freeboard_rmse_m".into(), fb_rmse),
        ("mean_freeboard_m".into(), mean03),
    ];
    ExperimentOutput {
        id: "fig10",
        report,
        metrics,
    }
}

/// Ablation: classification accuracy of both products vs truth alongside
/// their resolution — the 2 m vs 150-photon trade the paper motivates.
pub fn resolution_ablation(scale: Scale) -> ExperimentOutput {
    let sp = shared_run(scale, 33);
    let (pipeline, run) = (&sp.0, &sp.1);
    let atl07_segments_common: Vec<_> = run
        .products
        .atl10
        .segments
        .iter()
        .enumerate()
        .map(|(i, s)| s.as_segment(i as u32))
        .collect();
    let acc07 = eval::classification_accuracy_vs_truth(
        &pipeline.scene,
        &atl07_segments_common,
        &run.products.atl07_classes,
        0.0,
    );
    let acc03 = run.products.classification_accuracy_vs_truth;
    let mut report =
        String::from("ABLATION — resolution vs accuracy (2 m DL vs 150-photon tree)\n");
    report.push_str(&format!(
        "ATL03 2 m + LSTM : accuracy {:.2}%  at {:.0} segments/km\n",
        100.0 * acc03,
        run.track.segments.len() as f64 / (pipeline.cfg.track_length_m / 1000.0)
    ));
    report.push_str(&format!(
        "ATL07 + tree     : accuracy {:.2}%  at {:.0} segments/km\n",
        100.0 * acc07,
        run.products.atl07_classes.len() as f64 / (pipeline.cfg.track_length_m / 1000.0)
    ));
    report.push_str(&format!(
        "higher resolution AND higher accuracy: {}\n",
        acc03 > acc07
    ));
    let metrics = vec![
        ("atl03_accuracy".into(), acc03),
        ("atl07_accuracy".into(), acc07),
    ];
    ExperimentOutput {
        id: "ablation_resolution",
        report,
        metrics,
    }
}
