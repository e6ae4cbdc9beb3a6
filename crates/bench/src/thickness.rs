//! The `reproduce thickness` experiment: the thickness / snow /
//! uncertainty product family end to end, under both snow models.
//!
//! One trained model classifies the Ross Sea scene; stage-4 freeboard
//! products are enriched into [`ProductSet`]s under the climatology and
//! the downscaled-reanalysis snow models, and the per-term variance
//! budget is aggregated to show which input dominates the thickness
//! uncertainty (on snow-loaded Antarctic ice: the snow depth). The same
//! enrichment then runs fleet-side: one fleet classification is
//! enriched under each model ([`enrich_fleet`]) and landed in that
//! model's own catalog, the stores answer gridded thickness queries,
//! and a TCP server round-trip asserts the served answers are
//! **bit-identical** to the in-process ones under both models — the
//! acceptance criterion for the thickness-bearing tile format.

use std::sync::Arc;

use seaice::FleetDriver;
use seaice_catalog::{Catalog, CatalogClient, CatalogServer, GridConfig, QuerySummary, TimeRange};
use seaice_products::{
    enrich_fleet, BeamThickness, ClimatologySnow, ProductSet, ReanalysisSnow, SnowDepthModel,
    ThicknessRetrieval, VarianceBudget,
};
use sparklite::Cluster;

use crate::common::{shared_run, ExperimentOutput, Scale};

/// A grid sized for one pipeline configuration's fleet: centred on the
/// scene, wide enough for every granule track.
fn grid_for(cfg: &seaice::PipelineConfig) -> GridConfig {
    GridConfig::around(cfg.scene.center, cfg.track_length_m * 2.0)
}

/// Aggregates the per-sample variance budgets of a derived set's
/// thickness-bearing points (re-evaluated at each stored operating
/// point — the retrieval is a pure function, so this reproduces the
/// derivation's own budgets exactly).
fn aggregate_budget(set: &ProductSet) -> VarianceBudget {
    let mut total = VarianceBudget::default();
    for p in set.points.iter().filter(|p| p.bears_thickness()) {
        let e = set
            .retrieval
            .retrieve(p.freeboard_m, p.snow_depth_m, p.snow_sigma_m)
            .expect("stored operating point re-evaluates");
        total.freeboard += e.budget.freeboard;
        total.snow += e.budget.snow;
        total.rho_water += e.budget.rho_water;
        total.rho_ice += e.budget.rho_ice;
        total.rho_snow += e.budget.rho_snow;
    }
    total
}

/// Renders one model's track-level line: bearing count, stats, σ, and
/// the variance decomposition.
fn model_line(name: &str, set: &ProductSet) -> String {
    let (mean, median, p95) = set.thickness_stats();
    let bearing: Vec<&seaice_products::ProductPoint> =
        set.points.iter().filter(|p| p.bears_thickness()).collect();
    let mean_sigma =
        bearing.iter().map(|p| p.thickness_sigma_m).sum::<f64>() / bearing.len().max(1) as f64;
    let b = aggregate_budget(set);
    let t = b.total().max(f64::MIN_POSITIVE);
    format!(
        "  {name:<22} n={:<6} mean {mean:.3} m  median {median:.3} m  p95 {p95:.3} m  <sigma> {mean_sigma:.3} m\n\
         {:<24} variance shares: fb {:.0}%  snow {:.0}%  rho_w {:.0}%  rho_i {:.0}%  rho_s {:.0}%  (dominant: {})\n",
        bearing.len(),
        "",
        100.0 * b.freeboard / t,
        100.0 * b.snow / t,
        100.0 * b.rho_water / t,
        100.0 * b.rho_ice / t,
        100.0 * b.rho_snow / t,
        b.dominant(),
    )
}

/// Queries the whole-domain thickness summary and asserts a TCP server
/// over the same store answers it bit-for-bit.
fn served_thickness(catalog: Arc<Catalog>) -> QuerySummary {
    let domain = catalog.grid().domain();
    let local = catalog
        .query_rect(&domain, TimeRange::all())
        .expect("local thickness query");
    let server = CatalogServer::serve(Arc::clone(&catalog), "127.0.0.1:0").expect("server");
    let mut client = CatalogClient::connect(&server.addr().to_string()).expect("client");
    let served = client
        .query_rect(&domain, TimeRange::all())
        .expect("served thickness query");
    assert_eq!(local, served, "served summary must match local");
    for (a, b) in [
        (local.mean_thickness_m, served.mean_thickness_m),
        (local.ivw_mean_thickness_m, served.ivw_mean_thickness_m),
        (local.thickness_sigma_m, served.thickness_sigma_m),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "served thickness not bit-identical"
        );
    }
    drop(client);
    server.shutdown();
    local
}

/// Runs the thickness experiment at `scale`.
pub fn thickness(scale: Scale) -> ExperimentOutput {
    let shared = shared_run(scale, 4242);
    let (pipeline, run) = (&shared.0, &shared.1);
    let retrieval = ThicknessRetrieval::default();
    let climatology = ClimatologySnow::antarctic();
    let reanalysis = ReanalysisSnow::ross_sea_prior();

    // Track-level product sets under both models, October (late austral
    // winter — near-peak snow load).
    let set_clim =
        ProductSet::derive(&run.products, 10, &climatology, &retrieval).expect("climatology set");
    let set_rean =
        ProductSet::derive(&run.products, 10, &reanalysis, &retrieval).expect("reanalysis set");
    assert_eq!(set_clim.n_bearing(), set_rean.n_bearing());

    // Fleet side: classify once, enrich under each model.
    let n_granules = match scale {
        Scale::Quick => 2,
        Scale::Full => 4,
    };
    let tag = std::process::id();
    let fleet_dir = std::env::temp_dir().join(format!("seaice_thick_fleet_{tag}"));
    let sources = FleetDriver::write_fleet(pipeline, &fleet_dir, n_granules).expect("fleet files");
    let driver = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);
    let (products, _) = driver.classify_run(&sources, &run.models);
    let clim_enriched: Vec<BeamThickness> =
        enrich_fleet(&products, &climatology, &retrieval).expect("climatology enrichment");
    let rean_enriched: Vec<BeamThickness> =
        enrich_fleet(&products, &reanalysis, &retrieval).expect("reanalysis enrichment");

    // One catalog per snow model.
    let grid = grid_for(&pipeline.cfg);
    let clim_dir = std::env::temp_dir().join(format!("seaice_thick_clim_{tag}"));
    let rean_dir = std::env::temp_dir().join(format!("seaice_thick_rean_{tag}"));
    for dir in [&clim_dir, &rean_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let clim_cat = Catalog::create(&clim_dir, grid).expect("climatology catalog");
    let ingest = clim_cat
        .ingest_thickness_products(&clim_enriched)
        .expect("climatology ingest");
    let rean_cat = Catalog::create(&rean_dir, grid).expect("reanalysis catalog");
    let rean_ingest = rean_cat
        .ingest_thickness_products(&rean_enriched)
        .expect("reanalysis ingest");
    assert_eq!(ingest.n_samples, rean_ingest.n_samples);

    // The served bit-identity check under both models.
    let clim_cat = Arc::new(clim_cat);
    let rean_cat = Arc::new(rean_cat);
    let sum_clim = served_thickness(Arc::clone(&clim_cat));
    let sum_rean = served_thickness(Arc::clone(&rean_cat));
    assert_eq!(sum_clim.n_thickness, sum_rean.n_thickness);
    assert!(sum_clim.n_thickness > 0, "fleet landed no thickness");
    assert!(
        sum_clim.ivw_mean_thickness_m != sum_rean.ivw_mean_thickness_m,
        "the two snow models must disagree somewhere"
    );

    let mut report = String::from(
        "THICKNESS — snow models, hydrostatic retrieval, uncertainty budget, served catalog\n",
    );
    report.push_str(&model_line(climatology.name(), &set_clim));
    report.push_str(&model_line(reanalysis.name(), &set_rean));
    report.push_str(&format!(
        "  fleet: {} granules x 3 beams -> {} thickness-bearing of {} samples, per-model catalogs\n",
        n_granules, sum_clim.n_thickness, ingest.n_samples
    ));
    for (name, s) in [("climatology", &sum_clim), ("reanalysis", &sum_rean)] {
        report.push_str(&format!(
            "  catalog[{name:<11}] mean {:.3} m  ivw {:.3} m  sigma {:.3} m  (served bit-identical)\n",
            s.mean_thickness_m, s.ivw_mean_thickness_m, s.thickness_sigma_m
        ));
    }

    let budget = aggregate_budget(&set_clim);
    let metrics: Vec<(String, f64)> = vec![
        (
            "thickness_bearing_samples".into(),
            sum_clim.n_thickness as f64,
        ),
        (
            "thickness_mean_climatology_m".into(),
            sum_clim.mean_thickness_m,
        ),
        (
            "thickness_mean_reanalysis_m".into(),
            sum_rean.mean_thickness_m,
        ),
        (
            "thickness_ivw_climatology_m".into(),
            sum_clim.ivw_mean_thickness_m,
        ),
        (
            "thickness_ivw_reanalysis_m".into(),
            sum_rean.ivw_mean_thickness_m,
        ),
        (
            "thickness_sigma_climatology_m".into(),
            sum_clim.thickness_sigma_m,
        ),
        (
            "thickness_sigma_reanalysis_m".into(),
            sum_rean.thickness_sigma_m,
        ),
        (
            "thickness_snow_var_share".into(),
            budget.snow / budget.total().max(f64::MIN_POSITIVE),
        ),
    ];

    let _ = std::fs::remove_dir_all(&fleet_dir);
    for dir in [&clim_dir, &rean_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    ExperimentOutput {
        id: "thickness",
        report,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thickness_experiment_runs_quick() {
        let out = thickness(Scale::Quick);
        assert_eq!(out.id, "thickness");
        assert!(out.metric("thickness_bearing_samples").unwrap() > 0.0);
        assert!(out.metric("thickness_mean_climatology_m").unwrap() > 0.0);
        assert!(out.metric("thickness_ivw_reanalysis_m").unwrap() > 0.0);
        // Snow depth dominates the uncertainty on snow-loaded ice.
        let share = out.metric("thickness_snow_var_share").unwrap();
        assert!((0.0..=1.0).contains(&share) && share > 0.3, "share {share}");
        assert!(out.report.contains("bit-identical"));
    }
}
