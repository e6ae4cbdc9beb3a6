//! Remote serve-path demo: classify a granule fleet, shard the products
//! across two leased catalog servers by quadkey prefix, and query them
//! over TCP through the client-side router — verifying the routed
//! answers are bit-identical to an in-process catalog.
//!
//! ```text
//! cargo run --release --example catalog_remote_queries
//! ```

use std::sync::Arc;

use icesat2_seaice::catalog::client::partition_products;
use icesat2_seaice::catalog::{
    Catalog, CatalogClient, CatalogOptions, CatalogServer, GridConfig, IngestMode, LeaseOptions,
    ShardRouter, ShardSpec, TileScope, TimeRange,
};
use icesat2_seaice::geo::EPSG_3976;
use icesat2_seaice::seaice::fleet::FleetDriver;
use icesat2_seaice::seaice::pipeline::{Pipeline, PipelineConfig};
use icesat2_seaice::seaice::stages::PipelineBuilder;
use icesat2_seaice::sparklite::Cluster;

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::small(91));
    let tag = std::process::id();
    let fleet_dir = std::env::temp_dir().join(format!("seaice_remote_fleet_{tag}"));
    let local_dir = std::env::temp_dir().join(format!("seaice_remote_local_{tag}"));
    let shard_dirs = [
        std::env::temp_dir().join(format!("seaice_remote_shard0_{tag}")),
        std::env::temp_dir().join(format!("seaice_remote_shard1_{tag}")),
    ];
    for dir in std::iter::once(&local_dir).chain(&shard_dirs) {
        let _ = std::fs::remove_dir_all(dir);
    }

    println!("training one classifier (staged pipeline)...");
    let run = PipelineBuilder::new(pipeline.cfg.clone()).run();
    let sources = FleetDriver::write_fleet(&pipeline, &fleet_dir, 3).expect("fleet");
    let driver = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);
    let grid = GridConfig::around(pipeline.cfg.scene.center, 2.0 * pipeline.cfg.track_length_m);

    // Classify the fleet once; the same products feed the in-process
    // truth store and the sharded deployment.
    println!("classifying the fleet into one local catalog + two shards...");
    let (products, _) = driver.classify_run(&sources, &run.models);
    let local = Catalog::create(&local_dir, grid).expect("local catalog");
    let ingest = local
        .ingest_products_with(&products, IngestMode::Skip)
        .expect("local ingest");
    println!("  local store: {} samples", ingest.n_samples);

    // Shard the same products by quadkey prefix: southern tiles ("0"/"1")
    // and northern tiles ("2"/"3"), each behind its own *leased* writer
    // — the lease protocol that lets shard ingests run in separate
    // processes without write conflicts.
    let scopes = [
        TileScope::of(&["0", "1"]).expect("south scope"),
        TileScope::of(&["2", "3"]).expect("north scope"),
    ];
    let mut shard_catalogs = Vec::new();
    for ((dir, part), name) in shard_dirs
        .iter()
        .zip(partition_products(&grid, &scopes, &products))
        .zip(["shard-south", "shard-north"])
    {
        let catalog = Catalog::create_writer(
            dir,
            grid,
            CatalogOptions::default(),
            &LeaseOptions::new(name),
        )
        .expect("leased shard writer");
        for (granule, beam, product) in &part {
            catalog
                .ingest_beam(granule, *beam, product)
                .expect("shard ingest");
        }
        println!(
            "  {name}: {} samples under lease '{}'",
            catalog.stats().expect("stats").n_samples,
            catalog.lease().expect("leased").owner
        );
        shard_catalogs.push(Arc::new(catalog));
    }

    // Put TCP servers in front of everything.
    let full_server = CatalogServer::serve(Arc::new(local), "127.0.0.1:0").expect("server");
    let shard_servers: Vec<CatalogServer> = shard_catalogs
        .iter()
        .map(|c| CatalogServer::serve(Arc::clone(c), "127.0.0.1:0").expect("shard server"))
        .collect();
    println!(
        "serving on {} (full) and {} + {} (shards)",
        full_server.addr(),
        shard_servers[0].addr(),
        shard_servers[1].addr()
    );

    // A remote client against the full store, and the shard router.
    let mut client = CatalogClient::connect(&full_server.addr().to_string()).expect("client");
    let specs: Vec<ShardSpec> = shard_servers
        .iter()
        .zip(&scopes)
        .map(|(server, scope)| ShardSpec {
            addr: server.addr().to_string(),
            scope: scope.clone(),
        })
        .collect();
    let mut router = ShardRouter::connect(&specs).expect("router");

    let domain = client.grid().domain();
    let served = client
        .query_rect(&domain, TimeRange::all())
        .expect("served query");
    let routed = router
        .query_rect(&domain, TimeRange::all())
        .expect("routed query");
    println!(
        "  served (1 server):   {} samples, mean ice freeboard {:.4} m",
        served.n_samples, served.mean_ice_freeboard_m
    );
    println!(
        "  routed (2 shards):   {} samples, mean ice freeboard {:.4} m",
        routed.n_samples, routed.mean_ice_freeboard_m
    );
    assert_eq!(served, routed, "router must merge bit-identically");
    assert_eq!(
        served.mean_ice_freeboard_m.to_bits(),
        routed.mean_ice_freeboard_m.to_bits()
    );
    println!("  bit-identical: true");

    // A remote point probe routes to exactly one shard.
    let probe = EPSG_3976.inverse(pipeline.cfg.scene.center);
    if let Some(cell) = router.query_point(probe, TimeRange::all()).expect("point") {
        println!(
            "  point probe @scene centre -> {} samples in one {:.0} m cell (one shard answered)",
            cell.agg.n,
            router.grid().cell_size_m()
        );
    }

    // Remote composite + stats through the router.
    let cells = router
        .query_cells(&domain, TimeRange::all())
        .expect("cells");
    let stats = router.stats().expect("stats");
    println!(
        "  routed composite: {} cells; {} tiles / {} samples across {} shards",
        cells.len(),
        stats.n_tiles,
        stats.n_samples,
        router.n_shards()
    );
    router.validate().expect("remote validation");

    let served_stats = full_server.stats();
    println!(
        "  full server handled {} requests over {} connections ({} records streamed)",
        served_stats.requests, served_stats.connections, served_stats.records_streamed
    );

    for server in shard_servers {
        server.shutdown();
    }
    full_server.shutdown();
    let _ = std::fs::remove_dir_all(&fleet_dir);
    for dir in std::iter::once(&local_dir).chain(&shard_dirs) {
        let _ = std::fs::remove_dir_all(dir);
    }
}
