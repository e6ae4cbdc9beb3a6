//! Degraded routing for every query-path request kind.
//!
//! Two shard servers split the tile space; the router runs each kind
//! through `ShardRouter::run_routed`. Healthy, the merged `Records`
//! equal `Records::merge` of both shards' in-process
//! `Catalog::execute`. With one shard killed, every kind answers with
//! `missing == [dead scope]` and exactly the live shard's in-process
//! records, and `router_degraded_total` counts each degraded answer
//! once.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use icesat_geo::{BoundingBox, MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::client::partition_product;
use seaice_catalog::wire::{Records, Request};
use seaice_catalog::{
    Catalog, CatalogServer, ClientConfig, GridConfig, MapRect, ReplicaSpec, RetryPolicy,
    RouterConfig, ShardRouter, TileScope, TimeKey, TimeRange,
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_routed_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A track of `n` samples from `(x0, y0)` stepping `(dx, dy)` metres.
fn line_product(n: usize, x0: f64, y0: f64, dx: f64, dy: f64, fb0: f64) -> FreeboardProduct {
    let points = (0..n)
        .map(|i| {
            let g = EPSG_3976.inverse(MapPoint::new(x0 + i as f64 * dx, y0 + i as f64 * dy));
            FreeboardPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: fb0 + (i % 7) as f64 * 0.021,
                class: SurfaceClass::ALL[i % 3],
            }
        })
        .collect();
    FreeboardProduct {
        name: "routed kinds".into(),
        points,
    }
}

/// Two monthly layers of diagonal tracks crossing both scopes.
fn workload() -> Vec<(String, usize, FreeboardProduct)> {
    let mut out = Vec::new();
    for (g, month) in ["201910", "201911"].iter().enumerate() {
        for beam in 0..2usize {
            let k = (g * 2 + beam) as f64;
            let product = line_product(
                320,
                -309_500.0 + 1_200.0 * k,
                -1_309_500.0,
                17.0 + 2.0 * k,
                45.0 - 2.5 * k,
                0.12 + 0.03 * k,
            );
            out.push((format!("{month}04195311_0500021{g}"), beam, product));
        }
    }
    out
}

/// One request of every query-path kind. The point lies in the
/// northern scope, so with the north down its answer is degraded too.
fn requests(grid: &GridConfig) -> Vec<Request> {
    let scope = TileScope::all();
    let time = TimeRange::all();
    let d = grid.domain();
    let rect = MapRect::new(
        MapPoint::new(d.min.x + 2_500.0, d.min.y + 1_000.0),
        MapPoint::new(d.max.x - 1_500.0, d.max.y - 3_000.0),
    );
    let north_point = EPSG_3976.inverse(MapPoint::new(-304_230.0, -1_295_550.0));
    vec![
        Request::QueryRect {
            rect,
            time,
            scope: scope.clone(),
        },
        Request::QueryBbox {
            // Everything south of 60°S: the whole domain.
            bbox: BoundingBox {
                lon_min: -180.0,
                lon_max: 180.0,
                lat_min: -90.0,
                lat_max: -60.0,
            },
            time,
            scope: scope.clone(),
        },
        Request::QueryPoint {
            point: north_point,
            time,
            scope: scope.clone(),
        },
        Request::QueryTimeRange {
            time: TimeRange::only(TimeKey::new(2019, 11).unwrap()),
            scope: scope.clone(),
        },
        Request::QueryCells {
            rect,
            time,
            scope: scope.clone(),
        },
        Request::Stats {
            scope: scope.clone(),
        },
        Request::Validate { scope },
    ]
}

/// `request` restricted to `scope`, as the router sends it.
fn scoped(request: &Request, scope: &TileScope) -> Request {
    let mut out = request.clone();
    *out.scope_mut().expect("query-path request") = scope.clone();
    out
}

/// The in-process records, with the live `Stats` cache counters (which
/// move with every query) zeroed so answers compare by content.
fn content(records: Records) -> Records {
    match records {
        Records::Stats { mut stats, layers } => {
            stats.cache = Default::default();
            Records::Stats { stats, layers }
        }
        other => other,
    }
}

#[test]
fn every_kind_degrades_to_exactly_the_live_shard() {
    let grid = grid();
    let scopes = scopes();
    let dirs = [temp_dir("south"), temp_dir("north")];
    let shards: Vec<Arc<Catalog>> = dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| {
            let catalog = Arc::new(Catalog::create(dir, grid).unwrap());
            for (granule, beam, product) in workload() {
                let part = &partition_product(&grid, &scopes, &product)[i];
                if !part.points.is_empty() {
                    catalog.ingest_beam(&granule, beam, part).unwrap();
                }
            }
            catalog
        })
        .collect();
    let mut servers: Vec<Option<CatalogServer>> = shards
        .iter()
        .map(|c| Some(CatalogServer::serve(Arc::clone(c), "127.0.0.1:0").unwrap()))
        .collect();
    let specs: Vec<ReplicaSpec> = servers
        .iter()
        .zip(&scopes)
        .map(|(server, scope)| ReplicaSpec {
            addrs: vec![server.as_ref().unwrap().addr().to_string()],
            scope: scope.clone(),
        })
        .collect();
    let config = RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_millis(300)),
            request_deadline: Some(Duration::from_millis(1_000)),
            retry: RetryPolicy::none(),
            ..ClientConfig::default()
        },
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60),
    };
    let mut router = ShardRouter::connect_replicated(&specs, config).unwrap();
    let degraded = router.registry().counter("router_degraded_total");

    // Healthy: every kind is complete and merges both shards exactly.
    for request in requests(&grid) {
        let routed = router.run_routed(&request).unwrap();
        assert!(routed.is_complete(), "{request:?} degraded while healthy");
        let per_shard = shards
            .iter()
            .zip(&scopes)
            .map(|(shard, scope)| shard.execute(&scoped(&request, scope)).unwrap())
            .collect();
        let want = Records::merge(&request, per_shard).unwrap();
        let empty = Records::empty_for(&request).unwrap();
        assert_ne!(
            content(want.clone()),
            content(empty),
            "{request:?} hit no data"
        );
        assert_eq!(content(routed.value), content(want), "{request:?}");
    }
    assert_eq!(degraded.get(), 0);

    // Kill the north shard: every kind names exactly that scope and
    // answers with exactly the south shard's in-process records.
    if let Some(north) = servers[1].take() {
        north.shutdown();
    }
    let (live, live_scope) = (&shards[0], &scopes[0]);
    let mut degraded_answers = 0;
    for request in requests(&grid) {
        let routed = router.run_routed(&request).unwrap();
        assert_eq!(routed.missing, vec![scopes[1].clone()], "{request:?}");
        degraded_answers += 1;
        assert_eq!(degraded.get(), degraded_answers, "{request:?} counted");
        let want = live.execute(&scoped(&request, live_scope)).unwrap();
        assert_eq!(content(routed.value), content(want), "{request:?}");
    }
    // The north-scope point has no live owner: `None`, scope named.
    let point = &requests(&grid)[2];
    let routed = router.run_routed(point).unwrap();
    assert_eq!(routed.value, Records::Point(None));
    assert_eq!(routed.missing, vec![scopes[1].clone()]);

    // Requests outside the query path are refused typed, not routed.
    assert!(router.run_routed(&Request::Ping).is_err());

    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A replica that is down when the router is built starts with its
/// breaker tripped, so no query dials it before the cooldown has passed.
#[test]
fn replica_unreachable_at_construction_starts_tripped() {
    let grid = grid();
    let dir = temp_dir("tripped");
    let catalog = Arc::new(Catalog::create(&dir, grid).unwrap());
    let server = CatalogServer::serve(catalog, "127.0.0.1:0").unwrap();
    // A port nothing listens on: bound, read back, released.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let specs = [ReplicaSpec {
        addrs: vec![dead, server.addr().to_string()],
        scope: TileScope::all(),
    }];
    let config = RouterConfig {
        breaker_cooldown: Duration::from_secs(60),
        ..RouterConfig::default()
    };
    let mut router = ShardRouter::connect_replicated(&specs, config).unwrap();
    let to = |state| {
        router
            .registry()
            .counter_with("router_breaker_transitions_total", &[("to", state)])
    };
    let (to_open, to_half_open) = (to("open"), to("half_open"));
    assert_eq!(to_open.get(), 1, "the dead replica must start tripped");

    for request in requests(&grid) {
        let routed = router.run_routed(&request).unwrap();
        assert!(routed.is_complete(), "{request:?} degraded");
    }
    assert_eq!(to_open.get(), 1);
    assert_eq!(to_half_open.get(), 0, "the dead replica was probed early");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
