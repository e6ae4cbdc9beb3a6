//! Chaos acceptance: under any seeded fault plan — refused connections,
//! injected latency, mid-frame stalls, truncation, byte corruption —
//! a served query either completes **bit-identically** to the same
//! query on an in-process catalog, or fails with a typed
//! [`CatalogError::Timeout`] / [`CatalogError::RetriesExhausted`] /
//! [`CatalogError::Degraded`] (or a plain transport error) — never a
//! hang, never a panic, never a silently wrong answer.
//!
//! Scripted crash plans additionally pin the recovery story: a process
//! killed mid-tile-persist leaves a directory that
//! reopens cleanly and heals to a **byte-identical** store once the
//! interrupted ingest re-runs.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seaice::artifact::Artifact as _;
use seaice_catalog::wire::{self, Request};

use icesat_geo::{MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::client::partition_product;
use seaice_catalog::{
    Catalog, CatalogClient, CatalogError, CatalogOptions, CatalogServer, ChaosProxy, ClientConfig,
    FaultAction, FaultPlan, GridConfig, QuerySummary, ReplicaSpec, RetryPolicy, RouterConfig,
    ServerConfig, ShardRouter, TileScope, TimeKey, TimeRange,
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
        name: "chaos line".into(),
        points,
    }
}

/// Two monthly layers, two beams each, crossing both shard scopes.
fn workload() -> Vec<(String, usize, FreeboardProduct)> {
    let mut out = Vec::new();
    for (g, month) in ["201910", "201911"].iter().enumerate() {
        for beam in 0..2usize {
            let angle = (g * 2 + beam) as f64;
            let product = line_product(
                300,
                -309_000.0 + 1_500.0 * angle,
                -1_309_500.0,
                18.0 + 2.0 * angle,
                44.0 - 3.0 * angle,
                0.15 + 0.02 * angle,
            );
            out.push((format!("{month}04195311_0500021{g}"), beam, product));
        }
    }
    out
}

fn ingest(catalog: &Catalog, batch: &[(String, usize, FreeboardProduct)]) {
    for (granule, beam, product) in batch {
        if !product.points.is_empty() {
            catalog.ingest_beam(granule, *beam, product).unwrap();
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit-level equality of two summaries (`==` alone would pass distinct
/// NaN payloads or -0.0 vs 0.0).
fn assert_bits_equal(got: &QuerySummary, want: &QuerySummary, what: &str) {
    assert_eq!(got, want, "{what}: summaries differ");
    for (g, w, field) in [
        (got.mean_ice_freeboard_m, want.mean_ice_freeboard_m, "mean"),
        (got.min_freeboard_m, want.min_freeboard_m, "min"),
        (got.max_freeboard_m, want.max_freeboard_m, "max"),
        (got.mean_thickness_m, want.mean_thickness_m, "thickness"),
        (got.ivw_mean_thickness_m, want.ivw_mean_thickness_m, "ivw"),
        (got.thickness_sigma_m, want.thickness_sigma_m, "sigma"),
    ] {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: {field} not bit-identical"
        );
    }
}

/// The typed-outcome contract: every error a resilient client may
/// surface under socket faults. Anything else is a bug.
fn assert_typed_failure(err: &CatalogError, what: &str) {
    let inner = match err {
        CatalogError::RetriesExhausted { last, .. } => last.as_ref(),
        other => other,
    };
    match inner {
        CatalogError::Timeout { .. }
        | CatalogError::Io(_)
        | CatalogError::Protocol(_)
        | CatalogError::Degraded { .. } => {}
        other => panic!("{what}: untyped failure under fault injection: {other}"),
    }
}

/// The query battery one sweep iteration runs (rect + cells + layers),
/// checking every completed answer bit-for-bit against `local`.
/// Returns `(ok, failed)` counts.
fn battery(client: &mut CatalogClient, local: &Catalog, what: &str) -> (usize, usize) {
    let domain = local.grid().domain();
    let south = seaice_catalog::MapRect::new(domain.min, MapPoint::new(-300_000.0, -1_300_000.0));
    let times = [
        TimeRange::all(),
        TimeRange::only(TimeKey::new(2019, 11).unwrap()),
    ];
    let mut ok = 0;
    let mut failed = 0;
    for rect in [&domain, &south] {
        for &time in &times {
            match client.query_rect(rect, time) {
                Ok(got) => {
                    assert_bits_equal(&got, &local.query_rect(rect, time).unwrap(), what);
                    ok += 1;
                }
                Err(e) => {
                    assert_typed_failure(&e, what);
                    failed += 1;
                }
            }
        }
    }
    match client.query_cells(&domain, TimeRange::all()) {
        Ok(got) => {
            assert_eq!(
                got,
                local.query_cells(&domain, TimeRange::all()).unwrap(),
                "{what}: cells differ"
            );
            ok += 1;
        }
        Err(e) => {
            assert_typed_failure(&e, what);
            failed += 1;
        }
    }
    match client.query_time_range(TimeRange::all()) {
        Ok(got) => {
            assert_eq!(
                got,
                local.query_time_range(TimeRange::all()).unwrap(),
                "{what}: layers differ"
            );
            ok += 1;
        }
        Err(e) => {
            assert_typed_failure(&e, what);
            failed += 1;
        }
    }
    (ok, failed)
}

/// The headline sweep: ≥8 distinct seeded fault plans between a
/// resilient client and a healthy server. Every completed answer is
/// bit-identical to the in-process truth; every failure is typed; the
/// whole sweep finishes in bounded time because deadlines bound every
/// attempt.
#[test]
fn seeded_fault_sweep_never_yields_a_wrong_answer() {
    let dir = temp_dir("sweep");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let upstream = server.addr().to_string();

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        request_deadline: Some(Duration::from_millis(700)),
        retry: RetryPolicy::attempts(4),
        ..ClientConfig::default()
    };

    let mut total_ok = 0usize;
    let mut total_failed = 0usize;
    let mut total_injected = 0u64;
    for seed in 1..=8u64 {
        let proxy = ChaosProxy::start(&upstream, Arc::new(FaultPlan::seeded(seed))).unwrap();
        let started = Instant::now();
        // Connecting itself may be refused past the retry budget: a
        // typed failure, counted like any other.
        match CatalogClient::connect_with(&proxy.addr().to_string(), config.clone()) {
            Ok(mut client) => {
                for round in 0..6 {
                    let what = format!("seed {seed} round {round}");
                    let (ok, failed) = battery(&mut client, &local, &what);
                    total_ok += ok;
                    total_failed += failed;
                }
            }
            Err(e) => {
                assert_typed_failure(&e, &format!("seed {seed} connect"));
                total_failed += 1;
            }
        }
        // Deadlines and bounded retries must bound the sweep: even the
        // nastiest plan cannot hold one seed's battery for minutes.
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "seed {seed} exceeded its wall-clock bound"
        );
        total_injected += proxy.plan().injected();
        proxy.shutdown();
    }
    assert!(total_injected > 0, "the sweep never injected a fault");
    assert!(
        total_ok > 0,
        "no query ever completed — retries are not recovering"
    );
    // With a healthy server behind the proxy and 4 attempts per
    // request, most queries should survive their faults.
    assert!(
        total_ok > total_failed,
        "failures ({total_failed}) outnumber successes ({total_ok})"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scripted mid-frame stall longer than the deadline surfaces as the
/// typed [`CatalogError::Timeout`] (no retry policy, so unwrapped), and
/// a scripted byte corruption is caught by the frame checksum — typed,
/// never a wrong answer.
#[test]
fn stalls_time_out_and_corruption_is_detected() {
    let dir = temp_dir("typed");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let upstream = server.addr().to_string();
    let domain = grid().domain();
    let truth = local.query_rect(&domain, TimeRange::all()).unwrap();

    let no_retry = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        request_deadline: Some(Duration::from_millis(200)),
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };

    // Stall: hold the first server→client chunk for 2 s against a
    // 200 ms deadline.
    let plan =
        Arc::new(FaultPlan::scripted().with(FaultPlan::PROXY_S2C, 0, FaultAction::StallMs(2_000)));
    let proxy = ChaosProxy::start(&upstream, Arc::clone(&plan)).unwrap();
    // The connect handshake itself consumes the stalled chunk.
    let started = Instant::now();
    let err = CatalogClient::connect_with(&proxy.addr().to_string(), no_retry.clone())
        .err()
        .expect("a stalled handshake past the deadline must fail");
    assert!(
        matches!(err, CatalogError::Timeout { .. }),
        "stall surfaced as {err}, not a typed timeout"
    );
    // The deadline, not the stall, decides when the client gives up.
    assert!(started.elapsed() < Duration::from_millis(1_500));
    proxy.shutdown();

    // Corruption after the handshake: connect cleanly, then flip a bit
    // in the first response chunk of the next request.
    let plan = Arc::new(FaultPlan::scripted());
    let proxy = ChaosProxy::start(&upstream, Arc::clone(&plan)).unwrap();
    let mut client =
        CatalogClient::connect_with(&proxy.addr().to_string(), no_retry.clone()).unwrap();
    let next_hit = plan.hits(FaultPlan::PROXY_S2C);
    plan.script(FaultPlan::PROXY_S2C, next_hit, FaultAction::Corrupt(17));
    match client.query_rect(&domain, TimeRange::all()) {
        // A flipped bit can land in the length header and starve the
        // read into the deadline — still typed.
        Err(e) => assert_typed_failure(&e, "corrupted response"),
        // Only acceptable Ok: the bits are right anyway (the flip never
        // made it into a decoded frame).
        Ok(got) => assert_bits_equal(&got, &truth, "corrupted response"),
    }
    let _ = plan;
    proxy.shutdown();

    // With retries, the same post-handshake corruption heals: the
    // poisoned connection is rebuilt and the answer completes.
    let plan = Arc::new(FaultPlan::scripted());
    let proxy = ChaosProxy::start(&upstream, Arc::clone(&plan)).unwrap();
    let retrying = ClientConfig {
        retry: RetryPolicy::attempts(3),
        ..no_retry
    };
    let mut client = CatalogClient::connect_with(&proxy.addr().to_string(), retrying).unwrap();
    let next_hit = plan.hits(FaultPlan::PROXY_S2C);
    plan.script(FaultPlan::PROXY_S2C, next_hit, FaultAction::Corrupt(5));
    let got = client.query_rect(&domain, TimeRange::all()).unwrap();
    assert_bits_equal(&got, &truth, "retried past corruption");
    assert!(plan.injected() > 0, "the corruption never fired");
    proxy.shutdown();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replica failover: a two-replica scope keeps answering (bit-identical)
/// when one replica dies; when the whole scope dies the router degrades
/// *typed* — naming the scope — and the `*_routed` methods still serve
/// the surviving scope; when the replicas return, the breaker's
/// half-open probes bring the scope back without reconnecting by hand.
#[test]
fn shard_failover_degrades_typed_and_recovers() {
    let dirs = [temp_dir("fo_south"), temp_dir("fo_north")];
    let scopes = scopes();
    let batch = workload();

    // Truth: one local catalog over everything.
    let local_dir = temp_dir("fo_local");
    let local = Catalog::create(&local_dir, grid()).unwrap();
    ingest(&local, &batch);

    // Partition into the two shard stores.
    let shard_catalogs: Vec<Arc<Catalog>> = dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| {
            let catalog = Arc::new(Catalog::create(dir, grid()).unwrap());
            for (granule, beam, product) in &batch {
                let part = &partition_product(&grid(), &scopes, product)[i];
                if !part.points.is_empty() {
                    catalog.ingest_beam(granule, *beam, part).unwrap();
                }
            }
            catalog
        })
        .collect();
    let servers: Vec<CatalogServer> = shard_catalogs
        .iter()
        .map(|c| CatalogServer::serve(Arc::clone(c), "127.0.0.1:0").unwrap())
        .collect();

    // South sits behind two proxies to the same server (two "replicas"
    // the router can fail over between — the kill switch takes one
    // down without rebinding ports); north behind one.
    let quiet = || Arc::new(FaultPlan::scripted());
    let south_a = ChaosProxy::start(&servers[0].addr().to_string(), quiet()).unwrap();
    let south_b = ChaosProxy::start(&servers[0].addr().to_string(), quiet()).unwrap();
    let north = ChaosProxy::start(&servers[1].addr().to_string(), quiet()).unwrap();

    let specs = [
        ReplicaSpec {
            addrs: vec![south_a.addr().to_string(), south_b.addr().to_string()],
            scope: scopes[0].clone(),
        },
        ReplicaSpec {
            addrs: vec![north.addr().to_string()],
            scope: scopes[1].clone(),
        },
    ];
    let config = RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_millis(300)),
            request_deadline: Some(Duration::from_millis(500)),
            retry: RetryPolicy::attempts(2),
            ..ClientConfig::default()
        },
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(150),
    };
    let mut router = ShardRouter::connect_replicated(&specs, config).unwrap();

    let domain = grid().domain();
    let truth = local.query_rect(&domain, TimeRange::all()).unwrap();

    // Healthy: complete and bit-identical.
    let got = router.query_rect(&domain, TimeRange::all()).unwrap();
    assert_bits_equal(&got, &truth, "healthy routed");

    // One south replica down: failover inside the group, still complete.
    south_a.set_refuse_all(true);
    for round in 0..4 {
        let got = router.query_rect(&domain, TimeRange::all()).unwrap();
        assert_bits_equal(&got, &truth, &format!("failover round {round}"));
    }

    // Whole scope down: strict queries degrade typed, naming the scope;
    // routed queries still answer for the north.
    south_b.set_refuse_all(true);
    let mut saw_degraded = false;
    for _ in 0..8 {
        match router.query_rect(&domain, TimeRange::all()) {
            Err(CatalogError::Degraded { missing }) => {
                assert_eq!(missing, vec![scopes[0].clone()], "wrong scope blamed");
                saw_degraded = true;
                break;
            }
            // Breakers may need a failure or two to trip first.
            Err(e) => assert_typed_failure(&e, "scope outage"),
            Ok(got) => assert_bits_equal(&got, &truth, "scope outage straggler"),
        }
    }
    assert!(saw_degraded, "a dead scope never surfaced as Degraded");
    let routed = router
        .run_routed(&Request::QueryRect {
            rect: domain,
            time: TimeRange::all(),
            scope: TileScope::all(),
        })
        .unwrap();
    assert!(!routed.is_complete());
    assert_eq!(routed.missing, vec![scopes[0].clone()]);
    let north_truth = shard_catalogs[1]
        .query_rect(&domain, TimeRange::all())
        .unwrap();
    assert_bits_equal(
        &routed.value.into_summary().unwrap(),
        &north_truth,
        "degraded north-only",
    );
    // Point probes into the dead scope are typed too.
    let south_probe = EPSG_3976.inverse(MapPoint::new(-303_000.0, -1_306_000.0));
    assert!(matches!(
        router.query_point(south_probe, TimeRange::all()),
        Err(CatalogError::Degraded { .. })
    ));

    // Replicas return: once the cooldown elapses the next query probes
    // the tripped breakers half-open, closes them, and completes again
    // — bounded wait, no manual reconnect.
    south_a.set_refuse_all(false);
    south_b.set_refuse_all(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match router.query_rect(&domain, TimeRange::all()) {
            Ok(got) => {
                assert_bits_equal(&got, &truth, "recovered routed");
                break;
            }
            Err(e) => {
                assert_typed_failure(&e, "recovery window");
                assert!(
                    Instant::now() < deadline,
                    "router never recovered after replicas returned: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    south_a.shutdown();
    south_b.shutdown();
    north.shutdown();
    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&local_dir);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every `*.tile` file under `dir`, relative path → bytes.
fn store_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir.join("tiles")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name.ends_with(".tile") {
            out.push((format!("tiles/{name}"), std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}

/// Kill-mid-persist recovery: a scripted crash at each persist-path site
/// leaves a directory that reopens cleanly and, after the interrupted
/// ingest re-runs (the default idempotent `Skip` mode), holds exactly
/// the bytes of a never-crashed build.
#[test]
fn crash_mid_persist_reopens_and_heals_byte_identically() {
    let batch = workload();

    // The reference build: no faults, same ingest order.
    let clean_dir = temp_dir("crash_clean");
    let clean = Catalog::create(&clean_dir, grid()).unwrap();
    ingest(&clean, &batch);
    drop(clean);
    let want = store_bytes(&clean_dir);
    assert!(!want.is_empty());

    for (site, nth) in [
        (FaultPlan::TILE_BEFORE_RENAME, 2),
        (FaultPlan::TILE_AFTER_RENAME, 1),
    ] {
        let dir = temp_dir(&format!("crash_{}", site.replace('.', "_")));
        let plan = Arc::new(FaultPlan::scripted().with(site, nth, FaultAction::Crash));
        let options = CatalogOptions {
            fault: Some(Arc::clone(&plan)),
            ..CatalogOptions::default()
        };
        let catalog = Catalog::create_with(&dir, grid(), options).unwrap();
        let mut crashed = false;
        for (granule, beam, product) in &batch {
            match catalog.ingest_beam(granule, *beam, product) {
                Ok(_) => {}
                Err(CatalogError::FaultInjected(at)) => {
                    assert_eq!(at, site);
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected ingest error at {site}: {e}"),
            }
        }
        assert!(crashed, "the scripted crash at {site} never fired");
        // The dead process: its in-memory index and cache are gone.
        drop(catalog);

        // Reopen (no plan) and replay the whole ingest — Skip mode makes
        // the completed part a byte-stable no-op and redoes the rest.
        let reopened = Catalog::open(&dir).unwrap();
        reopened.validate().unwrap();
        ingest(&reopened, &batch);
        reopened.validate().unwrap();
        drop(reopened);
        assert_eq!(
            store_bytes(&dir),
            want,
            "store did not heal byte-identically after a crash at {site}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// Idle connections are reaped (and counted), and the Ping health probe
/// reports serving counters over the same connection a resilient client
/// transparently rebuilds.
#[test]
fn idle_timeout_reaps_connections_and_ping_reports_counters() {
    let dir = temp_dir("idle");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve_with(
        Arc::clone(&local),
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        request_deadline: Some(Duration::from_secs(2)),
        retry: RetryPolicy::attempts(3),
        ..ClientConfig::default()
    };
    let mut client = CatalogClient::connect_with(&server.addr().to_string(), config).unwrap();
    let domain = grid().domain();
    let truth = local.query_rect(&domain, TimeRange::all()).unwrap();
    let stats = client.ping().unwrap();
    assert!(stats.connections >= 1 && stats.requests >= 1);

    // Outlast the idle timeout: the server reaps the connection...
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().idle_dropped == 0 {
        assert!(
            Instant::now() < deadline,
            "idle connection was never dropped"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // ...and the resilient client heals over it without being told.
    let got = client.query_rect(&domain, TimeRange::all()).unwrap();
    assert_bits_equal(&got, &truth, "post-idle-drop query");
    let stats = client.ping().unwrap();
    assert!(stats.idle_dropped >= 1, "ping must expose the drop counter");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Slow-loris: a connection that sends a partial frame header and then
/// goes silent holds no worker, is reaped by the idle timer, and never
/// degrades service for healthy connections multiplexed alongside it.
#[test]
fn slow_loris_partial_frames_are_reaped_without_degrading_service() {
    let dir = temp_dir("loris");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve_with(
        Arc::clone(&local),
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let domain = grid().domain();
    let truth = local.query_rect(&domain, TimeRange::all()).unwrap();

    // Four attackers, each dribbling a prefix of a *valid* Ping frame —
    // half a header, a header plus two payload bytes — then stalling.
    let frame = wire::encode_frame(&Request::Ping.to_bytes(), 1, 0).unwrap();
    let mut attackers = Vec::new();
    for cut in [3usize, 9, 17, frame.len().min(30)] {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&frame[..cut]).unwrap();
        attackers.push(s);
    }

    // A healthy client keeps getting bit-identical answers while the
    // stalled connections sit there.
    let mut client = CatalogClient::connect(&addr).unwrap();
    for _ in 0..5 {
        let got = client.query_rect(&domain, TimeRange::all()).unwrap();
        assert_bits_equal(&got, &truth, "query alongside slow-loris peers");
        std::thread::sleep(Duration::from_millis(40));
    }

    // The idle timer reaps every attacker (a stalled partial frame is
    // not "activity")...
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().idle_dropped < attackers.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "slow-loris connections were never reaped (idle_dropped={})",
            server.stats().idle_dropped
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // ...and each attacker observes a clean close, not a hang.
    for mut s in attackers {
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let mut buf = [0u8; 64];
        match s.read(&mut buf) {
            Ok(0) | Err(_) => {} // EOF or reset: reaped
            Ok(n) => panic!("reaped slow-loris socket received {n} unexpected bytes"),
        }
    }
    let got = client.query_rect(&domain, TimeRange::all()).unwrap();
    assert_bits_equal(&got, &truth, "query after slow-loris reaping");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disconnects with requests in flight, both directions: clients that
/// vanish mid-pipeline never wedge the worker pool, and a client whose
/// server goes away mid-pipeline gets a typed error per in-flight id —
/// never a hang, never a panic.
#[test]
fn disconnect_with_requests_in_flight_is_typed_and_survivable() {
    let dir = temp_dir("midflight");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let domain = grid().domain();
    let truth = local.query_rect(&domain, TimeRange::all()).unwrap();

    // Client side vanishes: raw connections pipeline a burst of heavy
    // streamed queries and hang up without reading a byte. Workers
    // find the peer dead at delivery; the pool must shrug it off.
    let query = Request::QueryRect {
        rect: domain,
        time: TimeRange::all(),
        scope: TileScope::all(),
    };
    for round in 0..12u64 {
        let mut s = TcpStream::connect(&addr).unwrap();
        for id in 1..=4u64 {
            s.write_all(&wire::encode_frame(&query.to_bytes(), round * 8 + id, 0).unwrap())
                .unwrap();
        }
        drop(s); // in flight, never read
    }
    // The pool survives: a well-formed client still answers, exactly.
    let mut client = CatalogClient::connect(&addr).unwrap();
    let got = client.query_rect(&domain, TimeRange::all()).unwrap();
    assert_bits_equal(&got, &truth, "query after client-side mid-flight drops");

    // Server side vanishes: pipeline three requests, shut the server
    // down, then wait on every id. Each wait must resolve — either a
    // response that raced ahead of the shutdown (and then it must be
    // exact) or a typed failure; later waits on the poisoned
    // connection stay typed too.
    let p1 = client.submit_query_rect(&domain, TimeRange::all()).unwrap();
    let p2 = client.submit_query_time_range(TimeRange::all()).unwrap();
    let p3 = client.submit_ping().unwrap();
    assert_eq!(client.in_flight(), 3);
    server.shutdown();
    match client.wait(p1) {
        Ok(got) => assert_bits_equal(&got, &truth, "response racing shutdown"),
        Err(e) => assert_typed_failure(&e, "rect in flight across shutdown"),
    }
    if let Err(e) = client.wait(p2) {
        assert_typed_failure(&e, "time-range in flight across shutdown");
    }
    if let Err(e) = client.wait(p3) {
        assert_typed_failure(&e, "ping in flight across shutdown");
    }
    assert_eq!(client.in_flight(), 0, "waits must drain the pending table");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A served write that dies mid-persist (scripted crash in the tile
/// rename path) surfaces as a typed remote error, and a restarted
/// server healing by idempotent `Skip` re-ingest converges to the
/// byte-identical clean-build store — the crash-recovery contract of
/// `crash_mid_persist_reopens_and_heals_byte_identically`, now over
/// the wire.
#[test]
fn crash_mid_served_write_heals_byte_identically_via_skip_reingest() {
    let batch = workload();

    // Reference: a clean local build of the same ingest.
    let clean_dir = temp_dir("srv_crash_clean");
    let clean = Catalog::create(&clean_dir, grid()).unwrap();
    ingest(&clean, &batch);
    drop(clean);
    let want = store_bytes(&clean_dir);
    assert!(!want.is_empty());

    // The victim: a write-serving catalog scripted to crash on its 2nd
    // tile persist.
    let dir = temp_dir("srv_crash");
    let plan =
        Arc::new(FaultPlan::scripted().with(FaultPlan::TILE_BEFORE_RENAME, 1, FaultAction::Crash));
    let victim = Arc::new(
        Catalog::create_with(
            &dir,
            grid(),
            CatalogOptions {
                fault: Some(plan),
                ..CatalogOptions::default()
            },
        )
        .unwrap(),
    );
    let server = CatalogServer::serve_with(
        Arc::clone(&victim),
        "127.0.0.1:0",
        ServerConfig {
            allow_writes: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut producer = CatalogClient::connect(&server.addr().to_string()).unwrap();
    let mut crashed = false;
    for (granule, beam, product) in &batch {
        match producer.ingest_beam(granule, *beam, product) {
            Ok(_) => {}
            Err(CatalogError::Remote { code, message }) => {
                assert_eq!(code, wire::ERR_CATALOG, "crash must map to ERR_CATALOG");
                assert!(
                    message.contains("injected fault"),
                    "remote message must name the injected crash, got: {message}"
                );
                crashed = true;
                break;
            }
            Err(e) => panic!("unexpected served-ingest error: {e}"),
        }
    }
    assert!(crashed, "the scripted mid-served-write crash never fired");
    // The "process death": server down, in-memory state gone.
    server.shutdown();
    drop(producer);
    drop(victim);

    // Restart over the same directory (no plan) and replay the whole
    // feed over the wire — Skip mode makes the delivered part a no-op
    // and redoes the torn ingest.
    let healed = Arc::new(Catalog::open(&dir).unwrap());
    healed.validate().unwrap();
    let server = CatalogServer::serve_with(
        Arc::clone(&healed),
        "127.0.0.1:0",
        ServerConfig {
            allow_writes: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut producer = CatalogClient::connect(&server.addr().to_string()).unwrap();
    for (granule, beam, product) in &batch {
        producer.ingest_beam(granule, *beam, product).unwrap();
    }
    healed.validate().unwrap();
    server.shutdown();
    drop(producer);
    drop(healed);

    assert_eq!(
        store_bytes(&dir),
        want,
        "served re-ingest did not heal the crashed store byte-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}
