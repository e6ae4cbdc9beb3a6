//! Serving-path acceptance: a query answered through the TCP front-end
//! — single server or a client-routed shard fleet — is **bit-identical**
//! to the same query on one in-process `Catalog` holding all the data,
//! including while ingest runs concurrently.
//!
//! Three deployments answer the same battery:
//!
//! - *local*: one `Catalog`, every product ingested directly;
//! - *served*: the same store behind one `CatalogServer`, queried
//!   through `CatalogClient`;
//! - *sharded*: the products partitioned by quadkey prefix into two
//!   stores behind two servers, queried through `ShardRouter`.

use std::path::PathBuf;
use std::sync::Arc;

use icesat_geo::{BoundingBox, GeoPoint, MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::client::{partition_product, partition_thickness};
use seaice_catalog::{
    Catalog, CatalogClient, CatalogServer, GridConfig, IngestMode, MapRect, QuerySummary,
    ShardRouter, ShardSpec, TileScope, TimeKey, TimeRange,
};

fn grid() -> GridConfig {
    // 4×4 tiles of 8×8 cells over a 20 km square domain.
    GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
}

/// Southern tiles (quadkey "0"/"1") and northern tiles ("2"/"3").
fn scopes() -> [TileScope; 2] {
    [
        TileScope::of(&["0", "1"]).unwrap(),
        TileScope::of(&["2", "3"]).unwrap(),
    ]
}

/// A synthetic beam product along a map-space line (inverse-projected so
/// ingest recovers the intended map position).
fn line_product(n: usize, x0: f64, y0: f64, dx: f64, dy: f64, fb0: f64) -> FreeboardProduct {
    let points = (0..n)
        .map(|i| {
            let m = MapPoint::new(x0 + i as f64 * dx, y0 + i as f64 * dy);
            let g = EPSG_3976.inverse(m);
            FreeboardPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: fb0 + (i % 11) as f64 * 0.013,
                class: SurfaceClass::ALL[i % 3],
            }
        })
        .collect();
    FreeboardProduct {
        name: "served equivalence line".into(),
        points,
    }
}

/// The ingest workload: (granule id, beam, product) triples spanning
/// three monthly layers and crossing both shard scopes.
fn workload() -> Vec<(String, usize, FreeboardProduct)> {
    let mut out = Vec::new();
    let months = ["201909", "201910", "201911"];
    for (g, month) in months.iter().enumerate() {
        for beam in 0..2usize {
            let angle = (g * 2 + beam) as f64;
            let product = line_product(
                420,
                -309_000.0 + 1_500.0 * angle,
                -1_309_500.0,
                18.0 + 2.0 * angle,
                44.0 - 3.0 * angle, // south → north, crossing both scopes
                0.15 + 0.02 * angle,
            );
            out.push((format!("{month}04195311_0500021{g}"), beam, product));
        }
    }
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_served_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A thickness-enriched beam crossing both shard scopes (south → north),
/// shaped like [`seaice_products::enrich_fleet`] output: ice samples
/// bear `(thickness, sigma > 0)`, open water carries zeros.
fn thickness_workload() -> Vec<seaice_products::BeamThickness> {
    (0..2u32)
        .map(|b| {
            let points = (0..360)
                .map(|i| {
                    let m = MapPoint::new(
                        -308_500.0 + 1_200.0 * b as f64 + i as f64 * 19.0,
                        -1_309_000.0 + i as f64 * 46.0,
                    );
                    let g = EPSG_3976.inverse(m);
                    let class = SurfaceClass::ALL[i % 3];
                    let water = class == SurfaceClass::OpenWater;
                    seaice_products::ProductPoint {
                        along_track_m: i as f64 * 2.0,
                        lat: g.lat,
                        lon: g.lon,
                        freeboard_m: 0.18 + (i % 9) as f64 * 0.011,
                        class,
                        snow_depth_m: if water { 0.0 } else { 0.07 },
                        snow_sigma_m: if water { 0.0 } else { 0.025 },
                        thickness_m: if water {
                            0.0
                        } else {
                            1.3 + (i % 6) as f64 * 0.12
                        },
                        thickness_sigma_m: if water {
                            0.0
                        } else {
                            0.2 + (i % 5) as f64 * 0.04
                        },
                    }
                })
                .collect();
            seaice_products::BeamThickness {
                granule_id: format!("20191104195311_0700021{b}"),
                beam: icesat_atl03::Beam::ALL[b as usize],
                snow_model: "climatology".into(),
                points,
            }
        })
        .collect()
}

fn ingest(catalog: &Catalog, batch: &[(String, usize, FreeboardProduct)]) {
    for (granule, beam, product) in batch {
        if !product.points.is_empty() {
            catalog.ingest_beam(granule, *beam, product).unwrap();
        }
    }
}

/// Partitions a workload by shard scope.
fn partition(
    batch: &[(String, usize, FreeboardProduct)],
) -> [Vec<(String, usize, FreeboardProduct)>; 2] {
    let scopes = scopes();
    let mut out: [Vec<(String, usize, FreeboardProduct)>; 2] = [Vec::new(), Vec::new()];
    for (granule, beam, product) in batch {
        let split = partition_product(&grid(), &scopes, product);
        for (j, part) in split.into_iter().enumerate() {
            if !part.points.is_empty() {
                out[j].push((granule.clone(), *beam, part));
            }
        }
    }
    out
}

/// The query battery, asserting all three deployments agree bit for bit.
fn assert_equivalent(local: &Catalog, served: &mut CatalogClient, router: &mut ShardRouter) {
    let domain = local.grid().domain();
    let rects = [
        domain,
        MapRect::new(domain.min, MapPoint::new(-300_000.0, -1_300_000.0)),
        MapRect::new(
            MapPoint::new(-306_000.0, -1_307_000.0),
            MapPoint::new(-297_500.0, -1_295_000.0),
        ),
        MapRect::new(
            MapPoint::new(-302_000.0, -1_302_000.0),
            MapPoint::new(-301_000.0, -1_301_000.0),
        ),
    ];
    let times = [
        TimeRange::all(),
        TimeRange::only(TimeKey::new(2019, 10).unwrap()),
        TimeRange {
            start: TimeKey::new(2019, 10).unwrap(),
            end: TimeKey::new(2019, 11).unwrap(),
        },
    ];

    let assert_summary = |a: &QuerySummary, b: &QuerySummary, what: &str| {
        assert_eq!(a, b, "{what} summaries differ");
        assert_eq!(
            a.mean_ice_freeboard_m.to_bits(),
            b.mean_ice_freeboard_m.to_bits(),
            "{what} mean not bit-identical"
        );
        assert_eq!(a.min_freeboard_m.to_bits(), b.min_freeboard_m.to_bits());
        assert_eq!(a.max_freeboard_m.to_bits(), b.max_freeboard_m.to_bits());
        assert_eq!(a.n_thickness, b.n_thickness, "{what} thickness count");
        assert_eq!(
            a.mean_thickness_m.to_bits(),
            b.mean_thickness_m.to_bits(),
            "{what} mean thickness not bit-identical"
        );
        assert_eq!(
            a.ivw_mean_thickness_m.to_bits(),
            b.ivw_mean_thickness_m.to_bits(),
            "{what} IVW thickness not bit-identical"
        );
        assert_eq!(
            a.thickness_sigma_m.to_bits(),
            b.thickness_sigma_m.to_bits(),
            "{what} thickness sigma not bit-identical"
        );
    };

    for (ri, rect) in rects.iter().enumerate() {
        for (ti, &time) in times.iter().enumerate() {
            let want = local.query_rect(rect, time).unwrap();
            want.check_consistency().unwrap();
            let via_server = served.query_rect(rect, time).unwrap();
            let via_router = router.query_rect(rect, time).unwrap();
            assert_summary(&want, &via_server, &format!("rect {ri}/time {ti} served"));
            assert_summary(&want, &via_router, &format!("rect {ri}/time {ti} sharded"));

            let want_cells = local.query_cells(rect, time).unwrap();
            assert_eq!(
                want_cells,
                served.query_cells(rect, time).unwrap(),
                "cells {ri}/{ti} served"
            );
            assert_eq!(
                want_cells,
                router.query_cells(rect, time).unwrap(),
                "cells {ri}/{ti} sharded"
            );
        }
    }

    // Geographic bbox: the whole domain and a narrower band.
    let sw = EPSG_3976.inverse(domain.min);
    let ne = EPSG_3976.inverse(domain.max);
    let se = EPSG_3976.inverse(MapPoint::new(domain.max.x, domain.min.y));
    let nw = EPSG_3976.inverse(MapPoint::new(domain.min.x, domain.max.y));
    let lats = [sw.lat, ne.lat, se.lat, nw.lat];
    let lons = [sw.lon, ne.lon, se.lon, nw.lon];
    let wide = BoundingBox {
        lon_min: lons.iter().cloned().fold(f64::INFINITY, f64::min),
        lon_max: lons.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        lat_min: lats.iter().cloned().fold(f64::INFINITY, f64::min),
        lat_max: lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    };
    let narrow = BoundingBox {
        lat_max: 0.5 * (wide.lat_min + wide.lat_max),
        ..wide
    };
    for (bi, bbox) in [wide, narrow].iter().enumerate() {
        let want = local.query_bbox(bbox, TimeRange::all()).unwrap();
        assert_summary(
            &want,
            &served.query_bbox(bbox, TimeRange::all()).unwrap(),
            &format!("bbox {bi} served"),
        );
        assert_summary(
            &want,
            &router.query_bbox(bbox, TimeRange::all()).unwrap(),
            &format!("bbox {bi} sharded"),
        );
    }

    // Per-layer summaries.
    let want_layers = local.query_time_range(TimeRange::all()).unwrap();
    assert_eq!(
        want_layers,
        served.query_time_range(TimeRange::all()).unwrap()
    );
    assert_eq!(
        want_layers,
        router.query_time_range(TimeRange::all()).unwrap()
    );

    // Point probes in both shard halves and outside the domain.
    for probe_m in [
        MapPoint::new(-303_000.0, -1_306_000.0), // south
        MapPoint::new(-298_000.0, -1_294_000.0), // north
        MapPoint::new(-301_000.0, -1_300_100.0), // near the split
    ] {
        let probe = EPSG_3976.inverse(probe_m);
        let want = local.query_point(probe, TimeRange::all()).unwrap();
        assert_eq!(want, served.query_point(probe, TimeRange::all()).unwrap());
        assert_eq!(want, router.query_point(probe, TimeRange::all()).unwrap());
    }
    let far = GeoPoint::new(-60.0, 10.0);
    assert!(router.query_point(far, TimeRange::all()).unwrap().is_none());

    // Stats: totals agree (cache counters are deployment-specific).
    let want = local.stats().unwrap();
    let via_server = served.stats().unwrap();
    let via_router = router.stats().unwrap();
    for (label, got) in [("served", &via_server), ("sharded", &via_router)] {
        assert_eq!(got.n_samples, want.n_samples, "{label} sample total");
        assert_eq!(got.n_tiles, want.n_tiles, "{label} tile total");
        assert_eq!(got.n_layers, want.n_layers, "{label} layer total");
        assert_eq!(got.n_thickness, want.n_thickness, "{label} thickness total");
    }

    // Remote validation passes everywhere.
    served.validate().unwrap();
    assert!(router.validate().unwrap() >= want.n_tiles);
}

#[test]
fn served_and_sharded_queries_are_bit_identical_to_local() {
    let local_dir = temp_dir("local");
    let shard_dirs = [temp_dir("shard0"), temp_dir("shard1")];
    let scopes = scopes();

    // Build the three deployments from the same products.
    let batch = workload();
    let thickness = thickness_workload();
    let local = Arc::new(Catalog::create(&local_dir, grid()).unwrap());
    ingest(&local, &batch);
    for beam in &thickness {
        local
            .ingest_thickness_beam_with(beam, IngestMode::Skip)
            .unwrap();
    }
    assert!(local.stats().unwrap().n_thickness > 0);
    let parts = partition(&batch);
    let shard_catalogs: Vec<Arc<Catalog>> = shard_dirs
        .iter()
        .zip(&parts)
        .map(|(dir, part)| {
            let catalog = Arc::new(Catalog::create(dir, grid()).unwrap());
            ingest(&catalog, part);
            catalog
        })
        .collect();
    for beam in &thickness {
        let split = partition_thickness(&grid(), &scopes, beam);
        for (catalog, part) in shard_catalogs.iter().zip(split) {
            if !part.points.is_empty() {
                catalog
                    .ingest_thickness_beam_with(&part, IngestMode::Skip)
                    .unwrap();
            }
        }
    }
    // Shard stores really are partitions: together they hold exactly
    // the local store's samples, and neither holds the other's tiles.
    let shard_totals: usize = shard_catalogs
        .iter()
        .map(|c| c.stats().unwrap().n_samples)
        .sum();
    assert_eq!(shard_totals, local.stats().unwrap().n_samples);

    // Serve: one server over the full store, one per shard.
    let full_server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let shard_servers: Vec<CatalogServer> = shard_catalogs
        .iter()
        .map(|c| CatalogServer::serve(Arc::clone(c), "127.0.0.1:0").unwrap())
        .collect();

    let mut served = CatalogClient::connect(&full_server.addr().to_string()).unwrap();
    assert_eq!(
        *served.grid(),
        grid(),
        "manifest handshake carries the grid"
    );
    let specs: Vec<ShardSpec> = shard_servers
        .iter()
        .zip(&scopes)
        .map(|(s, scope)| ShardSpec {
            addr: s.addr().to_string(),
            scope: scope.clone(),
        })
        .collect();
    let mut router = ShardRouter::connect(&specs).unwrap();
    assert_eq!(router.n_shards(), 2);

    // Quiescent equivalence.
    assert_equivalent(&local, &mut served, &mut router);

    // --- Concurrent ingest: a writer keeps landing new granules in all
    // three deployments while served readers hammer the battery. Reader
    // snapshots must stay internally consistent throughout, and the
    // deployments must agree bit-for-bit once the writer drains.
    let extra: Vec<(String, usize, FreeboardProduct)> = (0..3)
        .map(|g| {
            (
                format!("20191204195311_0600021{g}"),
                g,
                line_product(
                    380,
                    -308_000.0 + 900.0 * g as f64,
                    -1_308_000.0,
                    21.0,
                    47.0,
                    0.2,
                ),
            )
        })
        .collect();
    let writer_local = Arc::clone(&local);
    let writer_shards: Vec<Arc<Catalog>> = shard_catalogs.iter().map(Arc::clone).collect();
    let writer = std::thread::spawn(move || {
        for (granule, beam, product) in &extra {
            writer_local.ingest_beam(granule, *beam, product).unwrap();
            let split = partition_product(writer_local.grid(), &scopes, product);
            for (catalog, part) in writer_shards.iter().zip(split) {
                if !part.points.is_empty() {
                    catalog.ingest_beam(granule, *beam, &part).unwrap();
                }
            }
        }
    });
    let domain = grid().domain();
    let mut racing_reader = CatalogClient::connect(&full_server.addr().to_string()).unwrap();
    let mut last_seen = 0usize;
    while !writer.is_finished() {
        let snapshot = racing_reader.query_rect(&domain, TimeRange::all()).unwrap();
        snapshot.check_consistency().unwrap();
        assert!(
            snapshot.n_samples >= last_seen,
            "served totals went backwards under ingest"
        );
        last_seen = snapshot.n_samples;
        let routed = router.query_rect(&domain, TimeRange::all()).unwrap();
        routed.check_consistency().unwrap();
    }
    writer.join().unwrap();

    // Post-ingest equivalence, warm and cold.
    assert_equivalent(&local, &mut served, &mut router);
    drop(router);
    let mut cold_router = ShardRouter::connect(&specs).unwrap();
    assert_equivalent(&local, &mut served, &mut cold_router);

    full_server.shutdown();
    for server in shard_servers {
        let stats = server.stats();
        assert!(stats.requests > 0 && stats.connections > 0);
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&local_dir);
    for dir in &shard_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn router_rejects_bad_shard_maps() {
    let dir = temp_dir("badmap");
    let catalog = Arc::new(Catalog::create(&dir, grid()).unwrap());
    let server = CatalogServer::serve(Arc::clone(&catalog), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // Overlapping scopes: "0" contains "01".
    let overlapping = [
        ShardSpec::new(addr.clone(), &["0"]).unwrap(),
        ShardSpec::new(addr.clone(), &["01", "1", "2", "3"]).unwrap(),
    ];
    assert!(ShardRouter::connect(&overlapping).is_err());

    // Hole: nobody owns prefix "3".
    let hole = [
        ShardSpec::new(addr.clone(), &["0", "1"]).unwrap(),
        ShardSpec::new(addr.clone(), &["2"]).unwrap(),
    ];
    assert!(ShardRouter::connect(&hole).is_err());

    // Prefixes deeper than the grid level can never own a tile; the
    // router must reject them instead of silently returning nothing.
    let too_deep = [
        ShardSpec::new(addr.clone(), &["000", "001"]).unwrap(),
        ShardSpec::new(addr.clone(), &["01", "1", "2", "3", "002", "003"]).unwrap(),
    ];
    assert!(ShardRouter::connect(&too_deep).is_err());

    // A complete map connects fine.
    let complete = [
        ShardSpec::new(addr.clone(), &["0", "1"]).unwrap(),
        ShardSpec::new(addr, &["2", "3"]).unwrap(),
    ];
    assert!(ShardRouter::connect(&complete).is_ok());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
