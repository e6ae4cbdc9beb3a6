//! Observability acceptance: the `Introspect` RPC under concurrent
//! ingest, the malformed-frame accounting fix, cache counters through
//! `Catalog::stats()`, deterministic histograms, and traced-request
//! span breakdowns that reconstruct end-to-end latency on both sides
//! of the wire.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icesat_geo::{MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::artifact::Artifact;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::obs::{parse_exposition, Histogram, HistogramSnapshot, TraceReport};
use seaice_catalog::wire::{self, Request, Response};
use seaice_catalog::{
    Catalog, CatalogClient, CatalogError, CatalogOptions, CatalogServer, ChaosProxy, ClientConfig,
    FaultPlan, GridConfig, RetryPolicy, TimeRange,
};

fn grid() -> GridConfig {
    GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_observe_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic beam product along a map-space line.
fn line_product(n: usize, x0: f64, y0: f64, dx: f64, dy: f64) -> FreeboardProduct {
    let points = (0..n)
        .map(|i| {
            let m = MapPoint::new(x0 + i as f64 * dx, y0 + i as f64 * dy);
            let g = EPSG_3976.inverse(m);
            FreeboardPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: 0.12 + (i % 7) as f64 * 0.01,
                class: SurfaceClass::ALL[i % 3],
            }
        })
        .collect();
    FreeboardProduct {
        name: "observe line".into(),
        points,
    }
}

/// Counter names (`*_total`, labels aside) must be monotone
/// non-decreasing between two scrapes of the same server. Trace
/// timeline lines (`trace_total_us{trace=…}`) are not counters: they
/// leave the exposition as the trace ring turns over.
fn assert_counters_monotone(prev: &BTreeMap<String, f64>, next_text: &str) {
    let next = parse_exposition(next_text);
    for (name, value) in prev {
        if !name.split('{').next().unwrap_or(name).ends_with("_total") {
            continue;
        }
        let now = next.get(name).copied().unwrap_or(f64::NEG_INFINITY);
        assert!(
            now >= *value,
            "counter {name} went backwards: {value} -> {now}"
        );
    }
}

/// A traced client with deadlines and retries behind a seeded chaos
/// proxy, reconnecting after each failed query: the faulted input of
/// the introspect test. Every client it opens registers into one
/// registry, so the client counters cover the whole workload.
struct FaultedQueries {
    proxy: ChaosProxy,
    config: ClientConfig,
    client: Option<CatalogClient>,
    completed: u64,
    last_trace: Option<TraceReport>,
    counters: BTreeMap<String, f64>,
}

impl FaultedQueries {
    fn start(upstream: &str, seed: u64) -> FaultedQueries {
        FaultedQueries {
            proxy: ChaosProxy::start(upstream, Arc::new(FaultPlan::seeded(seed))).unwrap(),
            config: ClientConfig {
                connect_timeout: Some(Duration::from_millis(500)),
                request_deadline: Some(Duration::from_millis(700)),
                retry: RetryPolicy::attempts(4),
                trace: true,
                ..ClientConfig::default()
            },
            client: None,
            completed: 0,
            last_trace: None,
            counters: BTreeMap::new(),
        }
    }

    /// One whole-domain query; a failure must be typed and drops the
    /// connection. The client's own `*_total` counters stay monotone.
    fn query(&mut self) {
        let typed = |e: &CatalogError| {
            assert!(
                matches!(
                    e,
                    CatalogError::Timeout { .. }
                        | CatalogError::RetriesExhausted { .. }
                        | CatalogError::Io(_)
                        | CatalogError::Protocol(_)
                ),
                "untyped failure under fault injection: {e}"
            )
        };
        if self.client.is_none() {
            match CatalogClient::connect_with(&self.proxy.addr().to_string(), self.config.clone()) {
                Ok(client) => self.client = Some(client),
                Err(e) => typed(&e),
            }
        }
        if let Some(client) = self.client.as_mut() {
            match client.query_rect(&grid().domain(), TimeRange::all()) {
                Ok(_) => {
                    self.completed += 1;
                    self.last_trace = client.last_trace();
                }
                Err(e) => {
                    typed(&e);
                    self.client = None;
                }
            }
        }
        let text = self.config.registry.expose();
        assert_counters_monotone(&self.counters, &text);
        self.counters = parse_exposition(&text);
    }

    /// The retry story reconciles with the completed queries, and the
    /// last traced request's server report nests inside the client's.
    fn finish(self, server: &CatalogServer) {
        assert!(self.proxy.plan().injected() > 0, "the plan never fired");
        assert!(self.completed > 0, "no query completed under the plan");
        assert!(
            self.counters["client_retries_total"] > 0.0,
            "the plan never forced a retry"
        );
        let attempts = self.counters["client_attempts_total"];
        assert!(
            attempts >= self.completed as f64,
            "client attempts ({attempts}) below completed queries ({})",
            self.completed
        );
        let client_report = self.last_trace.expect("a completed traced request");
        assert!(client_report.spans_total_us() <= client_report.total_us);
        // The handler publishes its report after replying.
        let deadline = Instant::now() + Duration::from_secs(10);
        let server_report = loop {
            let found = server
                .recent_traces()
                .into_iter()
                .find(|r| r.id == client_report.id);
            if let Some(report) = found {
                break report;
            }
            assert!(Instant::now() < deadline, "server never reported the trace");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(server_report.spans_total_us() <= server_report.total_us);
        assert!(
            server_report.total_us <= client_report.total_us,
            "server total {} exceeds client total {}",
            server_report.total_us,
            client_report.total_us
        );
        drop(self.client);
        self.proxy.shutdown();
    }
}

#[test]
fn introspect_scrapes_stay_parseable_and_monotone_under_concurrent_ingest() {
    // Two inputs: the scrape connection itself queries between scrapes,
    // or a [`FaultedQueries`] workload does, so the scrapes also run
    // while seeded faults force retries and reconnects.
    for fault_seed in [None, Some(7)] {
        scrape_under_concurrent_ingest(fault_seed);
    }
}

fn scrape_under_concurrent_ingest(fault_seed: Option<u64>) {
    let dir = temp_dir(&format!("introspect_{}", fault_seed.unwrap_or(0)));
    let catalog = Arc::new(Catalog::create(&dir, grid()).unwrap());
    let server = CatalogServer::serve(Arc::clone(&catalog), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let writer = Arc::clone(&catalog);
    let ingest = std::thread::spawn(move || {
        for g in 0..6u32 {
            let product = line_product(
                400,
                -309_000.0 + 1_200.0 * g as f64,
                -1_309_500.0,
                20.0,
                40.0,
            );
            writer
                .ingest_beam(
                    &format!("2019{:02}04195311_0500021{g}", 9 + (g % 3)),
                    0,
                    &product,
                )
                .unwrap();
        }
    });

    let mut faulted = fault_seed.map(|seed| FaultedQueries::start(&addr, seed));
    // The faulted input runs long enough for the plan to bite.
    let min_scrapes = if faulted.is_some() { 60 } else { 4 };
    let mut client = CatalogClient::connect(&addr).unwrap();
    let mut prev = BTreeMap::new();
    let mut scrapes = 0u64;
    while !ingest.is_finished() || scrapes < min_scrapes {
        let text = client.introspect().unwrap();
        assert!(!text.is_empty(), "exposition must not be empty");
        assert!(
            !parse_exposition(&text).is_empty(),
            "exposition must parse to at least one metric"
        );
        assert_counters_monotone(&prev, &text);
        prev = parse_exposition(&text);
        scrapes += 1;
        // A served query in between moves the per-kind counters too.
        match faulted.as_mut() {
            Some(workload) => workload.query(),
            None => {
                let _ = client.query_rect(&client.grid().domain().clone(), TimeRange::all());
            }
        }
    }
    ingest.join().unwrap();

    let text = client.introspect().unwrap();
    assert_counters_monotone(&prev, &text);
    let metrics = parse_exposition(&text);
    // One scrape covers serving, ingest, and cache metrics together.
    assert!(metrics["server_requests_total"] >= scrapes as f64);
    assert!(metrics[r#"server_requests_total{kind="introspect"}"#] >= scrapes as f64);
    assert!(metrics["ingest_samples_total"] > 0.0, "ingest instrumented");
    assert!(
        metrics[r#"ingest_stage_us_count{stage="project"}"#] > 0.0
            && metrics[r#"ingest_stage_us_count{stage="merge"}"#] > 0.0
            && metrics[r#"ingest_stage_us_count{stage="persist"}"#] > 0.0,
        "every ingest stage histogram saw traffic"
    );
    assert!(metrics.contains_key("tile_cache_hits_total"));
    assert!(metrics.contains_key("tile_cache_misses_total"));
    assert!(metrics.contains_key("tile_cache_evictions_total"));
    if let Some(workload) = faulted {
        workload.finish(&server);
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_count_separately_and_do_not_kill_the_connection() {
    let dir = temp_dir("malformed");
    let catalog = Arc::new(Catalog::create(&dir, grid()).unwrap());
    let server = CatalogServer::serve(Arc::clone(&catalog), "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = wire::FrameReader::default();
    let mut next_response = |stream: &mut TcpStream| {
        let frame = reader.read(stream, || false).unwrap();
        frame.map(|f| Response::from_bytes(&f.payload).unwrap())
    };
    // A frame-layer-valid payload that is not a decodable Request.
    let garbage = wire::encode_frame(&[0xFF, 0xFE, 0xFD, 0xFC], 0, 0).unwrap();
    stream.write_all(&garbage).unwrap();
    match next_response(&mut stream) {
        Some(Response::Error { .. }) => {}
        other => panic!("expected an error frame for garbage, got {other:?}"),
    }
    // The connection survives: a well-formed Ping still answers.
    let ping = wire::encode_frame(&Request::Ping.to_bytes(), 0, 0).unwrap();
    stream.write_all(&ping).unwrap();
    let stats = match next_response(&mut stream) {
        Some(Response::Pong(stats)) => stats,
        other => panic!("expected a pong, got {other:?}"),
    };
    // Satellite fix: the garbage frame is not a request. Only the Ping
    // counted, while the malformed and error counters each took one.
    assert_eq!(stats.requests, 1, "only the decodable request counts");
    assert_eq!(stats.errors, 1);
    let metrics = parse_exposition(&catalog.expose());
    assert_eq!(metrics["server_requests_malformed_total"], 1.0);
    assert_eq!(metrics["server_requests_total"], 1.0);
    assert_eq!(metrics[r#"server_requests_total{kind="ping"}"#], 1.0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_counters_flow_through_catalog_stats() {
    let dir = temp_dir("cache_stats");
    // A 2-tile cache under a multi-tile store forces misses + evictions.
    let options = CatalogOptions {
        cache_capacity: 2,
        cache_stripes: 1,
        ..CatalogOptions::default()
    };
    let catalog = Catalog::create_with(&dir, grid(), options).unwrap();
    for g in 0..3u32 {
        let product = line_product(500, -309_000.0, -1_309_500.0 + 600.0 * g as f64, 45.0, 28.0);
        catalog
            .ingest_beam(&format!("20190904195311_0500021{g}"), g as usize, &product)
            .unwrap();
    }
    let domain = catalog.grid().domain();
    // Whole-domain sweeps rotate more tiles than the cache holds
    // (misses + evictions)…
    for _ in 0..2 {
        catalog.query_rect(&domain, TimeRange::all()).unwrap();
    }
    // …while a rect inside one tile re-reads the same snapshot (hits).
    let spot = seaice_catalog::MapRect::new(
        MapPoint::new(-309_000.0, -1_309_500.0),
        MapPoint::new(-308_800.0, -1_309_300.0),
    );
    for _ in 0..4 {
        catalog.query_rect(&spot, TimeRange::all()).unwrap();
    }
    let stats = catalog.stats().unwrap();
    assert!(stats.cache.hits > 0, "repeat queries must hit the cache");
    assert!(stats.cache.misses > 0, "a cold cache must record misses");
    assert!(
        stats.cache.evictions > 0,
        "a 2-entry cache over more tiles must evict"
    );
    // The same cells surface in the exposition (and stay consistent).
    let metrics = parse_exposition(&catalog.expose());
    assert!(metrics["tile_cache_hits_total"] >= stats.cache.hits as f64);
    assert!(metrics["tile_cache_misses_total"] >= stats.cache.misses as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn histograms_are_order_invariant_and_merge_deterministically() {
    let durations: Vec<u64> = (0..2_000u64).map(|i| (i * 37) % 5_000 + 1).collect();

    // Sequential, reversed, and 4-thread interleaved recording must
    // produce bit-identical snapshots.
    let forward = Histogram::default();
    for &us in &durations {
        forward.record_us(us);
    }
    let reversed = Histogram::default();
    for &us in durations.iter().rev() {
        reversed.record_us(us);
    }
    let interleaved = Histogram::default();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let h = interleaved.clone();
            let durations = &durations;
            s.spawn(move || {
                for &us in durations.iter().skip(t).step_by(4) {
                    h.record_us(us);
                }
            });
        }
    });
    assert_eq!(forward.snapshot(), reversed.snapshot());
    assert_eq!(forward.snapshot(), interleaved.snapshot());

    // Merge is associative and bit-stable: any grouping of per-shard
    // snapshots folds to the same totals.
    let shard = |range: std::ops::Range<usize>| {
        let h = Histogram::default();
        for &us in &durations[range] {
            h.record_us(us);
        }
        h.snapshot()
    };
    let (a, b, c) = (shard(0..700), shard(700..1300), shard(1300..2000));
    let ab_c = a.merge(&b).merge(&c);
    let a_bc = a.merge(&b.merge(&c));
    assert_eq!(ab_c, a_bc);
    assert_eq!(ab_c, forward.snapshot());
    assert_eq!(ab_c.quantile_us(0.5), forward.snapshot().quantile_us(0.5));

    // Merging an empty snapshot is the identity.
    assert_eq!(ab_c.merge(&HistogramSnapshot::default()), ab_c);
}

#[test]
fn traced_request_breakdown_reconstructs_latency_on_both_sides() {
    let dir = temp_dir("traced");
    let catalog = Arc::new(Catalog::create(&dir, grid()).unwrap());
    let product = line_product(800, -309_000.0, -1_309_500.0, 30.0, 35.0);
    catalog
        .ingest_beam("20190904195311_05000210", 0, &product)
        .unwrap();
    let server = CatalogServer::serve(Arc::clone(&catalog), "127.0.0.1:0").unwrap();

    let config = ClientConfig {
        trace: true,
        ..ClientConfig::default()
    };
    let mut client = CatalogClient::connect_with(&server.addr().to_string(), config).unwrap();
    let domain = client.grid().domain();
    client.query_rect(&domain, TimeRange::all()).unwrap();

    let client_report = client.last_trace().expect("tracing was on");
    assert!(!client_report.spans.is_empty());
    assert!(
        client_report.spans.iter().any(|s| s.name == "exchange"),
        "client spans: {:?}",
        client_report.spans
    );
    // The span breakdown reconstructs the end-to-end latency: the
    // non-overlapping spans sum to no more than the traced total.
    assert!(client_report.spans_total_us() <= client_report.total_us);

    // The same trace id crossed the wire: the server holds a span
    // breakdown for it, itself summing to within its own total.
    std::thread::sleep(Duration::from_millis(20)); // handler publishes after replying
    let server_report = server
        .recent_traces()
        .into_iter()
        .find(|r| r.id == client_report.id)
        .expect("server recorded the client's trace id");
    assert!(
        server_report.spans.iter().any(|s| s.name == "query"),
        "server spans: {:?}",
        server_report.spans
    );
    assert!(server_report.spans_total_us() <= server_report.total_us);
    // Server-side handling happens between the client's send and its
    // last byte read, so it nests inside the client's traced total.
    assert!(server_report.total_us <= client_report.total_us);

    // The scrape renders the traced request too.
    let scraped = client.introspect().unwrap();
    assert!(
        scraped.contains(&format!("{:016x}", client_report.id)),
        "introspection exposes the trace timeline"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Multiplexing must not blur the serving metrics: the in-flight and
/// worker-queue gauges rise under a pipelined burst and settle back to
/// zero, per-kind latency histograms count *exactly* one observation
/// per request, and an `Introspect` scrape is answered on a connection
/// that still has pipelined queries outstanding.
#[test]
fn gauges_and_histograms_stay_exact_under_multiplexing() {
    let dir = temp_dir("mux_gauges");
    let catalog = Arc::new(Catalog::create(&dir, grid()).unwrap());
    for g in 0..4u32 {
        let product = line_product(
            500,
            -309_000.0 + 1_400.0 * g as f64,
            -1_309_500.0,
            18.0,
            42.0,
        );
        catalog
            .ingest_beam(&format!("20191{}04195311_0500021{g}", g % 2), 0, &product)
            .unwrap();
    }
    let server = CatalogServer::serve(Arc::clone(&catalog), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let domain = grid().domain();
    let truth = catalog.query_rect(&domain, TimeRange::all()).unwrap();

    let mut client = CatalogClient::connect(&addr).unwrap();
    let base = parse_exposition(&client.introspect().unwrap());
    let count_of = |m: &std::collections::BTreeMap<String, f64>, key: &str| -> f64 {
        m.get(key).copied().unwrap_or(0.0)
    };
    let rect_count_key = r#"server_request_us_count{kind="query_rect"}"#;
    let rect_total_key = r#"server_requests_total{kind="query_rect"}"#;

    // A pipelined burst: 24 rect queries and then an Introspect, all on
    // this one connection. The scrape is waited on FIRST — the server
    // must answer it while the same connection's queries are
    // outstanding from the client's point of view.
    const BURST: usize = 24;
    let mut pendings = Vec::new();
    for _ in 0..BURST {
        pendings.push(client.submit_query_rect(&domain, TimeRange::all()).unwrap());
    }
    let scrape = client.submit_introspect().unwrap();
    assert_eq!(client.in_flight(), BURST + 1);
    let mid_text = client.wait(scrape).unwrap();
    assert!(
        !parse_exposition(&mid_text).is_empty(),
        "mid-pipeline scrape must parse"
    );
    assert!(
        client.in_flight() > 0,
        "introspect answered out of order, with queries still pending"
    );
    for pending in pendings {
        let got = client.wait(pending).unwrap();
        assert_eq!(
            got.mean_ice_freeboard_m.to_bits(),
            truth.mean_ice_freeboard_m.to_bits(),
            "pipelined answer diverged"
        );
    }

    // Exactness: the burst moved the per-kind histogram and counter by
    // exactly BURST — no double-counted, no dropped observations.
    let settled = parse_exposition(&client.introspect().unwrap());
    assert_eq!(
        (count_of(&settled, rect_count_key) - count_of(&base, rect_count_key)) as usize,
        BURST,
        "latency histogram count must be exact under multiplexing"
    );
    assert_eq!(
        (count_of(&settled, rect_total_key) - count_of(&base, rect_total_key)) as usize,
        BURST,
        "request counter must be exact under multiplexing"
    );
    // Percentile fields accompany every non-empty histogram.
    for suffix in ["_p50_us", "_p95_us", "_p99_us"] {
        let key = format!(r#"server_request_us{suffix}{{kind="query_rect"}}"#);
        assert!(
            count_of(&settled, &key) > 0.0,
            "histogram must expose {key}"
        );
    }
    // A *served* scrape counts itself, so its own in-flight reading is
    // ≥ 1 by construction; quiescence is asserted out of band, straight
    // off the server's registry once the completion queue drains.
    assert!(count_of(&settled, "server_requests_in_flight") >= 1.0);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let rest = parse_exposition(&server.registry().expose());
        if count_of(&rest, "server_requests_in_flight") == 0.0
            && count_of(&rest, "server_worker_queue_depth") == 0.0
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gauges never settled back to zero at rest"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The gauges actually move: hammer waves of pipelined bursts from a
    // second connection while polling the server's own registry until
    // a nonzero in-flight reading is observed.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer_stop = Arc::clone(&stop);
    let hammer_addr = addr.clone();
    let hammer = std::thread::spawn(move || {
        let mut c = CatalogClient::connect(&hammer_addr).unwrap();
        let domain = grid().domain();
        while !hammer_stop.load(std::sync::atomic::Ordering::Relaxed) {
            let wave: Vec<_> = (0..16)
                .map(|_| c.submit_query_rect(&domain, TimeRange::all()).unwrap())
                .collect();
            for pending in wave {
                c.wait(pending).unwrap();
            }
        }
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut peak = 0.0f64;
    while peak < 1.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "in-flight gauge never observed above zero under pipelined load"
        );
        let live = parse_exposition(&server.registry().expose());
        peak = peak.max(count_of(&live, "server_requests_in_flight"));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    hammer.join().unwrap();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
