//! End-to-end serve path: fleet classification → catalog ingest →
//! concurrent spatial/temporal queries, wired through the umbrella
//! crate exactly as a downstream consumer would — including the
//! idempotency contract: a fleet re-run refreshes a catalog instead of
//! doubling it.

use std::collections::BTreeMap;
use std::path::PathBuf;

use icesat2_seaice::catalog::{Catalog, GridConfig, IngestMode, TimeRange};
use icesat2_seaice::geo::EPSG_3976;
use icesat2_seaice::seaice::fleet::FleetDriver;
use icesat2_seaice::seaice::pipeline::{Pipeline, PipelineConfig};
use icesat2_seaice::seaice::stages::PipelineBuilder;
use icesat2_seaice::sparklite::Cluster;

/// Every tile and sidecar-ledger file of a catalog directory, bytes and
/// all — the Skip re-ingest contract is byte identity over these.
fn store_bytes(dir: &std::path::Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for sub in ["tiles", "ledgers"] {
        let sub = dir.join(sub);
        if !sub.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&sub).unwrap() {
            let path = entry.unwrap().path();
            out.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    out
}

#[test]
fn fleet_products_land_in_catalog_and_queries_agree() {
    let pipeline = Pipeline::new(PipelineConfig::small(77));
    let fleet_dir = std::env::temp_dir().join("integration_catalog_fleet");
    let sources = FleetDriver::write_fleet(&pipeline, &fleet_dir, 2).unwrap();
    let run = PipelineBuilder::new(pipeline.cfg.clone()).run();
    let driver = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);

    let cat_dir = std::env::temp_dir().join("integration_catalog_store");
    let _ = std::fs::remove_dir_all(&cat_dir);
    let grid = GridConfig::around(pipeline.cfg.scene.center, 2.0 * pipeline.cfg.track_length_m);
    let catalog = Catalog::create(&cat_dir, grid).unwrap();

    let (classified, report) = driver.classify_run(&sources, &run.models);
    let ingest = catalog
        .ingest_products_with(&classified, IngestMode::Skip)
        .unwrap();
    assert!(report.times.reduce_s >= 0.0);
    assert!(ingest.n_samples > 5_000, "ingested {}", ingest.n_samples);

    // The classify products and the catalog agree on what was stored.
    let (products, _) = driver.classify_run(&sources, &run.models);
    let product_points: usize = products.iter().map(|p| p.freeboard.len()).sum();
    assert_eq!(
        ingest.n_samples + ingest.n_out_of_domain,
        product_points,
        "every product point was either stored or counted out of domain"
    );

    // Re-running the same fleet is a byte-stable no-op: the default
    // `IngestMode::Skip` recognises every `(granule, beam)` source and
    // leaves every tile file untouched.
    let before = store_bytes(&cat_dir);
    let stats_before = catalog.stats().unwrap();
    let (rerun, _) = driver.classify_run(&sources, &run.models);
    let reingest = catalog
        .ingest_products_with(&rerun, IngestMode::Skip)
        .unwrap();
    assert_eq!(reingest.n_samples, 0, "a re-run must not write samples");
    assert_eq!(reingest.n_skipped, product_points);
    assert_eq!(
        store_bytes(&cat_dir),
        before,
        "tile bytes moved on a re-run"
    );
    assert_eq!(catalog.stats().unwrap().n_samples, stats_before.n_samples);

    // A Replace re-ingest of perturbed products converges to the same
    // state as a fresh build from those products, over a query battery
    // compared down to the bits.
    let mut perturbed = products.clone();
    for p in &mut perturbed {
        for point in &mut p.freeboard.points {
            point.freeboard_m += 0.015;
        }
    }
    catalog
        .ingest_products_with(&perturbed, IngestMode::Replace)
        .unwrap();
    let fresh_dir = std::env::temp_dir().join("integration_catalog_fresh");
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let fresh = Catalog::create(&fresh_dir, grid).unwrap();
    fresh
        .ingest_products_with(&perturbed, IngestMode::Skip)
        .unwrap();
    let battery = |c: &Catalog| {
        let domain = c.grid().domain();
        let whole = c.query_rect(&domain, TimeRange::all()).unwrap();
        let cells = c.query_cells(&domain, TimeRange::all()).unwrap();
        (whole, cells)
    };
    let (replaced_whole, replaced_cells) = battery(&catalog);
    let (fresh_whole, fresh_cells) = battery(&fresh);
    assert_eq!(replaced_whole, fresh_whole);
    assert_eq!(
        replaced_whole.mean_ice_freeboard_m.to_bits(),
        fresh_whole.mean_ice_freeboard_m.to_bits()
    );
    assert_eq!(replaced_cells, fresh_cells);
    catalog.validate().unwrap();
    let _ = std::fs::remove_dir_all(&fresh_dir);

    // Restore the original products for the assertions below.
    catalog
        .ingest_products_with(&products, IngestMode::Replace)
        .unwrap();

    // Whole-domain summary covers everything stored, with sane physics.
    let whole = catalog
        .query_rect(&catalog.grid().domain(), TimeRange::all())
        .unwrap();
    whole.check_consistency().unwrap();
    assert_eq!(whole.n_samples, ingest.n_samples);
    assert!(
        whole.mean_ice_freeboard_m > 0.0 && whole.mean_ice_freeboard_m < 1.0,
        "mean ice freeboard {}",
        whole.mean_ice_freeboard_m
    );
    // All fleet granules share one acquisition month.
    assert_eq!(catalog.layers().len(), 1);

    // A point probe at the scene centre hits the track's cell.
    let probe = EPSG_3976.inverse(pipeline.cfg.scene.center);
    let cell = catalog.query_point(probe, TimeRange::all()).unwrap();
    assert!(cell.is_some(), "scene-centre cell is populated");

    // Reopening from disk answers the same, bit for bit.
    drop(catalog);
    let reopened = Catalog::open(&cat_dir).unwrap();
    let whole2 = reopened
        .query_rect(&reopened.grid().domain(), TimeRange::all())
        .unwrap();
    assert_eq!(whole2, whole);
    assert_eq!(
        whole2.mean_ice_freeboard_m.to_bits(),
        whole.mean_ice_freeboard_m.to_bits()
    );
    reopened.validate().unwrap();

    let _ = std::fs::remove_dir_all(&fleet_dir);
    let _ = std::fs::remove_dir_all(&cat_dir);
}
