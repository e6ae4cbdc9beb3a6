//! The `reproduce catalog` experiment: build a catalog from a fleet
//! classification run, then exercise the query engine.
//!
//! This is the serve-path demo: one trained model fans out over a
//! granule fleet ([`FleetDriver::classify_run`] via the
//! [`CatalogSink`] sink), the per-beam freeboard products land in a
//! tiled EPSG-3976 store, and the same store then answers spatial,
//! temporal, and gridded-composite queries — including a small query
//! throughput measurement.

use std::time::Instant;

use icesat_geo::{BoundingBox, MapPoint, EPSG_3976};
use seaice::FleetDriver;
use seaice_catalog::{Catalog, CatalogSink, GridConfig, MapRect, TimeRange};
use sparklite::Cluster;

use crate::common::{shared_run, ExperimentOutput, Scale};

/// A grid sized for one pipeline configuration's fleet: centred on the
/// scene, wide enough for every granule track.
pub fn grid_for(cfg: &seaice::PipelineConfig) -> GridConfig {
    GridConfig::around(cfg.scene.center, cfg.track_length_m * 2.0)
}

/// Measures hot-cache summary-query throughput (queries/s) over a
/// quarter-domain rect.
pub fn query_throughput(catalog: &Catalog, scale: Scale) -> f64 {
    let domain = catalog.grid().domain();
    let sub = MapRect::new(
        domain.min,
        MapPoint::new(
            0.5 * (domain.min.x + domain.max.x),
            0.5 * (domain.min.y + domain.max.y),
        ),
    );
    let reps = match scale {
        Scale::Quick => 200usize,
        Scale::Full => 800,
    };
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            catalog
                .query_rect(&sub, TimeRange::all())
                .expect("catalog throughput query"),
        );
    }
    reps as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the catalog experiment at `scale`.
pub fn catalog(scale: Scale) -> ExperimentOutput {
    let shared = shared_run(scale, 4242);
    let (pipeline, run) = (&shared.0, &shared.1);
    let n_granules = match scale {
        Scale::Quick => 2,
        Scale::Full => 4,
    };
    let fleet_dir =
        std::env::temp_dir().join(format!("seaice_catalog_exp_fleet_{}", std::process::id()));
    let sources = FleetDriver::write_fleet(pipeline, &fleet_dir, n_granules).expect("fleet files");
    let driver = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);

    let cat_dir =
        std::env::temp_dir().join(format!("seaice_catalog_exp_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cat_dir);
    let catalog = Catalog::create(&cat_dir, grid_for(&pipeline.cfg)).expect("catalog create");

    // Ingest: classify the fleet and land every beam product.
    let start = Instant::now();
    let (ingest, stage_report) = driver
        .classify_into_catalog(&sources, &run.models, &catalog)
        .expect("classify into catalog");
    let ingest_s = start.elapsed().as_secs_f64();

    // Queries.
    let domain = catalog.grid().domain();
    let whole = catalog
        .query_rect(&domain, TimeRange::all())
        .expect("domain query");
    whole.check_consistency().expect("summary invariants");
    let bbox = catalog
        .query_bbox(&BoundingBox::ROSS_SEA, TimeRange::all())
        .expect("bbox query");
    let layers = catalog.query_time_range(TimeRange::all()).expect("layers");
    let cells = catalog
        .query_cells(&domain, TimeRange::all())
        .expect("cells");
    let probe = EPSG_3976.inverse(pipeline.cfg.scene.center);
    let point = catalog.query_point(probe, TimeRange::all()).expect("point");

    // Query throughput over a quarter-domain rect (hot-cache read path).
    let query_rate = query_throughput(&catalog, scale);

    let stats = catalog.stats().expect("stats");
    catalog.validate().expect("tiles valid");

    // The timer wrapped classification + ingest, so this is end-to-end
    // *build* throughput, not pure ingest.
    let build_rate = ingest.n_samples as f64 / ingest_s.max(1e-9);

    let mut report = String::from("CATALOG — gridded product store + concurrent query engine\n");
    report.push_str(&format!(
        "  fleet: {} granules x 3 beams, map {:.2}s reduce {:.2}s\n",
        n_granules, stage_report.times.map_s, stage_report.times.reduce_s
    ));
    report.push_str(&format!(
        "  grid: {:.0} m cells, level {} ({}x{} tiles of {}x{} cells)\n",
        catalog.grid().cell_size_m(),
        catalog.grid().level,
        catalog.grid().tiles_per_side(),
        catalog.grid().tiles_per_side(),
        catalog.grid().tile_cells,
        catalog.grid().tile_cells,
    ));
    report.push_str(&format!(
        "  build (classify + ingest): {} samples ({} out of domain) into {} tiles, {:.0} samples/s\n",
        ingest.n_samples, ingest.n_out_of_domain, stats.n_tiles, build_rate
    ));
    report.push_str(&format!(
        "  domain query: {} samples, {} cells, mean ice freeboard {:.3} m\n",
        whole.n_samples, whole.n_cells, whole.mean_ice_freeboard_m
    ));
    report.push_str(&format!(
        "  ross sea bbox: {} samples; layers: {}; composite cells: {}\n",
        bbox.n_samples,
        layers.len(),
        cells.len()
    ));
    if let Some(p) = &point {
        report.push_str(&format!(
            "  point probe @scene centre: {} samples, mean ice fb {:.3} m\n",
            p.agg.n,
            p.agg.mean_ice_freeboard_m()
        ));
    }
    report.push_str(&format!(
        "  queries: {:.0}/s over a quarter-domain rect; cache hit rate {:.1}%\n",
        query_rate,
        stats.cache.hit_rate() * 100.0
    ));

    let _ = std::fs::remove_dir_all(&fleet_dir);
    let _ = std::fs::remove_dir_all(&cat_dir);

    ExperimentOutput {
        id: "catalog",
        report,
        metrics: vec![
            ("catalog_samples".into(), whole.n_samples as f64),
            ("catalog_tiles".into(), stats.n_tiles as f64),
            ("catalog_layers".into(), stats.n_layers as f64),
            ("catalog_cells".into(), cells.len() as f64),
            ("catalog_build_samples_per_s".into(), build_rate),
            ("catalog_queries_per_s".into(), query_rate),
            ("catalog_cache_hit_rate".into(), stats.cache.hit_rate()),
            (
                "catalog_mean_ice_freeboard_m".into(),
                whole.mean_ice_freeboard_m,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_experiment_runs_quick() {
        let out = catalog(Scale::Quick);
        assert_eq!(out.id, "catalog");
        assert!(out.metric("catalog_samples").unwrap() > 1_000.0);
        assert!(out.metric("catalog_tiles").unwrap() >= 1.0);
        assert!(out.metric("catalog_build_samples_per_s").unwrap() > 0.0);
        assert!(out.metric("catalog_queries_per_s").unwrap() > 0.0);
        let fb = out.metric("catalog_mean_ice_freeboard_m").unwrap();
        assert!(fb > 0.0 && fb < 1.0, "mean ice freeboard {fb}");
    }
}
