//! Serve-path demo: classify a granule fleet into a catalog, then query
//! it like a downstream consumer.
//!
//! ```text
//! cargo run --release --example catalog_queries
//! ```

use icesat2_seaice::catalog::{Catalog, GridConfig, IngestMode, TimeRange};
use icesat2_seaice::geo::EPSG_3976;
use icesat2_seaice::seaice::fleet::FleetDriver;
use icesat2_seaice::seaice::pipeline::{Pipeline, PipelineConfig};
use icesat2_seaice::seaice::stages::PipelineBuilder;
use icesat2_seaice::sparklite::Cluster;

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::small(91));
    let fleet_dir = std::env::temp_dir().join("seaice_catalog_example_fleet");
    let cat_dir = std::env::temp_dir().join("seaice_catalog_example_store");
    let _ = std::fs::remove_dir_all(&cat_dir);

    println!("training one classifier (staged pipeline)...");
    let run = PipelineBuilder::new(pipeline.cfg.clone()).run();

    let n_granules = 3;
    println!("writing {n_granules} granules and classifying the fleet into a catalog...");
    let sources = FleetDriver::write_fleet(&pipeline, &fleet_dir, n_granules).expect("fleet");
    let driver = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);
    let grid = GridConfig::around(pipeline.cfg.scene.center, 2.0 * pipeline.cfg.track_length_m);
    let catalog = Catalog::create(&cat_dir, grid).expect("create catalog");
    let (products, report) = driver.classify_run(&sources, &run.models);
    let ingest = catalog
        .ingest_products_with(&products, IngestMode::Skip)
        .expect("ingest into catalog");
    println!(
        "  ingested {} samples ({} out of domain) — fleet reduce {:.2}s",
        ingest.n_samples, ingest.n_out_of_domain, report.times.reduce_s
    );

    let whole = catalog
        .query_rect(&catalog.grid().domain(), TimeRange::all())
        .expect("domain query");
    println!(
        "  domain: {} samples over {} cells, mean ice freeboard {:.3} m (min {:.3}, max {:.3})",
        whole.n_samples,
        whole.n_cells,
        whole.mean_ice_freeboard_m,
        whole.min_freeboard_m,
        whole.max_freeboard_m
    );

    let probe = EPSG_3976.inverse(pipeline.cfg.scene.center);
    if let Some(cell) = catalog
        .query_point(probe, TimeRange::all())
        .expect("point query")
    {
        println!(
            "  point probe {:.3}S {:.3}E: {} samples in its {:.0} m cell, dominant class {:?}",
            -probe.lat,
            probe.lon,
            cell.agg.n,
            catalog.grid().cell_size_m(),
            cell.agg.dominant_class()
        );
    }

    let cells = catalog
        .query_cells(&catalog.grid().domain(), TimeRange::all())
        .expect("cells");
    println!(
        "  gridded composite: {} populated cells; first cell mean ice fb {:.3} m",
        cells.len(),
        cells
            .first()
            .map(|c| c.agg.mean_ice_freeboard_m())
            .unwrap_or(0.0)
    );

    let stats = catalog.stats().expect("stats");
    println!(
        "  store: {} layers / {} tiles / {} samples, cache hit rate {:.1}%",
        stats.n_layers,
        stats.n_tiles,
        stats.n_samples,
        stats.cache.hit_rate() * 100.0
    );

    let _ = std::fs::remove_dir_all(&fleet_dir);
    let _ = std::fs::remove_dir_all(&cat_dir);
}
