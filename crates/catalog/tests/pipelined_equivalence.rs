//! Protocol-v2 acceptance: pipelined, multiplexed serving answers
//! **bit-identically** to an in-process `Catalog` — with many requests
//! in flight per connection, waits in an order different from
//! submission order, streamed batches of concurrent requests
//! interleaving on one socket, and served writes landing concurrently
//! with the reads.
//!
//! This is the serving twin of `tests/served_equivalence.rs`: that
//! suite pins the one-exchange-at-a-time facade, this one pins the
//! `submit_*`/`wait` pipelined path the facade is built on.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use icesat_geo::{MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::wire::ERR_READ_ONLY;
use seaice_catalog::{
    Catalog, CatalogClient, CatalogError, CatalogServer, GridConfig, IngestMode, MapRect,
    QuerySummary, ServerConfig, TimeKey, TimeRange,
};

fn grid() -> GridConfig {
    // 4×4 tiles of 8×8 cells over a 20 km square domain.
    GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
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
        name: "pipelined equivalence line".into(),
        points,
    }
}

/// The ingest workload: (granule id, beam, product) triples spanning
/// three monthly layers and the whole domain.
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
                44.0 - 3.0 * angle,
                0.15 + 0.02 * angle,
            );
            out.push((format!("{month}04195311_0500021{g}"), beam, product));
        }
    }
    out
}

/// A second wave of granules, used as the concurrently-served writes.
fn write_wave() -> Vec<(String, usize, FreeboardProduct)> {
    (0..4)
        .map(|g| {
            (
                format!("20191204195311_0600021{g}"),
                g % 3,
                line_product(
                    380,
                    -308_000.0 + 900.0 * g as f64,
                    -1_308_000.0,
                    21.0,
                    47.0,
                    0.2 + 0.01 * g as f64,
                ),
            )
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_pipelined_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ingest(catalog: &Catalog, batch: &[(String, usize, FreeboardProduct)]) {
    for (granule, beam, product) in batch {
        catalog.ingest_beam(granule, *beam, product).unwrap();
    }
}

fn assert_bits(a: &QuerySummary, b: &QuerySummary, what: &str) {
    assert_eq!(a, b, "{what}: summaries differ");
    for (x, y, field) in [
        (a.mean_ice_freeboard_m, b.mean_ice_freeboard_m, "mean"),
        (a.min_freeboard_m, b.min_freeboard_m, "min"),
        (a.max_freeboard_m, b.max_freeboard_m, "max"),
        (a.mean_thickness_m, b.mean_thickness_m, "thickness"),
        (a.ivw_mean_thickness_m, b.ivw_mean_thickness_m, "ivw"),
        (a.thickness_sigma_m, b.thickness_sigma_m, "sigma"),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {field} not bit-identical"
        );
    }
}

/// The query battery used by every pipelined client: heavy full-domain
/// streams and light scalar probes, interleaved so the worker pool
/// finishes them out of submission order.
fn rects() -> Vec<MapRect> {
    let domain = grid().domain();
    vec![
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
    ]
}

/// N threads × C connections × M in-flight requests against a
/// quiescent store: every pipelined answer is bit-identical to the
/// in-process answer, with waits issued in reverse submission order (so
/// completion order, arrival order, and wait order all differ) and
/// streamed batches of concurrent full-domain queries interleaving on
/// each connection. All 64 connections are open at once, and each round
/// submits every connection's battery before any answer is awaited.
#[test]
fn pipelined_queries_are_bit_identical_and_order_independent() {
    let dir = temp_dir("quiescent");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // In-process truth, computed once up front.
    let rect_truth: Vec<QuerySummary> = rects()
        .iter()
        .map(|r| local.query_rect(r, TimeRange::all()).unwrap())
        .collect();
    let layer_truth = local.query_time_range(TimeRange::all()).unwrap();
    let cells_truth = local
        .query_cells(&grid().domain(), TimeRange::all())
        .unwrap();
    let oct = TimeRange::only(TimeKey::new(2019, 10).unwrap());
    let oct_truth = local.query_rect(&grid().domain(), oct).unwrap();

    let n_threads = 4;
    let conns_per_thread = 16;
    let n_conns = n_threads * conns_per_thread;
    let rounds = 3;
    // Threads plus this one: every connection is open before the gauge
    // is read, and stays open until it has been.
    let opened = Arc::new(Barrier::new(n_threads + 1));
    let counted = Arc::new(Barrier::new(n_threads + 1));
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let addr = addr.clone();
            let rect_truth = rect_truth.clone();
            let layer_truth = layer_truth.clone();
            let cells_truth = cells_truth.clone();
            let (opened, counted) = (Arc::clone(&opened), Arc::clone(&counted));
            std::thread::spawn(move || {
                let mut clients: Vec<CatalogClient> = (0..conns_per_thread)
                    .map(|_| CatalogClient::connect(&addr).unwrap())
                    .collect();
                opened.wait();
                counted.wait();
                for round in 0..rounds {
                    // Submit the whole battery on every connection
                    // without reading a byte.
                    let batteries: Vec<_> = clients
                        .iter_mut()
                        .map(|client| {
                            let rect_pending: Vec<_> = rects()
                                .iter()
                                .map(|r| client.submit_query_rect(r, TimeRange::all()).unwrap())
                                .collect();
                            let layers = client.submit_query_time_range(TimeRange::all()).unwrap();
                            let cells = client
                                .submit_query_cells(&grid().domain(), TimeRange::all())
                                .unwrap();
                            let oct_pending =
                                client.submit_query_rect(&grid().domain(), oct).unwrap();
                            let pinged = client.submit_ping().unwrap();
                            assert_eq!(client.in_flight(), rects().len() + 4);
                            (rect_pending, layers, cells, oct_pending, pinged)
                        })
                        .collect();

                    // Redeem in an order unrelated to submission order.
                    for (k, (client, battery)) in clients.iter_mut().zip(batteries).enumerate() {
                        let (rect_pending, layers, cells, oct_pending, pinged) = battery;
                        let c = format!("thread {t} connection {k}");
                        let stats = client.wait(pinged).unwrap();
                        assert!(stats.requests > 0, "{c} round {round}: no requests");
                        assert_bits(
                            &oct_truth,
                            &client.wait(oct_pending).unwrap(),
                            &format!("{c} round {round} october"),
                        );
                        assert_eq!(cells_truth, client.wait(cells).unwrap());
                        assert_eq!(layer_truth, client.wait(layers).unwrap());
                        for (i, pending) in rect_pending.into_iter().enumerate().rev() {
                            assert_bits(
                                &rect_truth[i],
                                &client.wait(pending).unwrap(),
                                &format!("{c} round {round} rect {i}"),
                            );
                        }
                        assert_eq!(client.in_flight(), 0);
                    }
                }
            })
        })
        .collect();
    opened.wait();
    let open = server.registry().gauge("server_connections_open").get();
    assert!(
        open >= n_conns as i64,
        "only {open} of {n_conns} connections open at once"
    );
    counted.wait();
    for h in handles {
        h.join().unwrap();
    }

    // Multiplexing really happened: more requests than connections, and
    // nothing is left in flight server-side.
    let stats = server.stats();
    assert!(stats.connections as usize >= n_conns);
    assert!(stats.requests >= (n_conns * rounds * (rects().len() + 4)) as u64);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Served writes land through the wire while pipelined readers hammer
/// the same server: reader snapshots stay internally consistent and
/// monotone, and once the writer drains, the served store answers
/// bit-identically to a local store that ingested the same products
/// directly.
#[test]
fn pipelined_reads_stay_consistent_under_served_writes() {
    let served_dir = temp_dir("written");
    let truth_dir = temp_dir("truth");
    let served_store = Arc::new(Catalog::create(&served_dir, grid()).unwrap());
    ingest(&served_store, &workload());
    let truth = Catalog::create(&truth_dir, grid()).unwrap();
    ingest(&truth, &workload());

    let server = CatalogServer::serve_with(
        Arc::clone(&served_store),
        "127.0.0.1:0",
        ServerConfig {
            allow_writes: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // The writer streams granules at the server over the wire,
    // pipelining several ingests; reports must account for every point.
    let writer_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        let mut producer = CatalogClient::connect(&writer_addr).unwrap();
        let wave = write_wave();
        let pending: Vec<_> = wave
            .iter()
            .map(|(granule, beam, product)| {
                producer
                    .submit_ingest_beam(granule, *beam, product, IngestMode::Skip)
                    .unwrap()
            })
            .collect();
        for (pending, (_, _, product)) in pending.into_iter().zip(&wave) {
            let report = producer.wait(pending).unwrap();
            assert_eq!(
                report.n_samples + report.n_out_of_domain,
                product.points.len(),
                "served ingest dropped points"
            );
        }
    });

    // Readers pipeline against the same server while the writes land.
    let domain = grid().domain();
    let mut reader = CatalogClient::connect(&addr).unwrap();
    let mut last_seen = 0usize;
    loop {
        let finished = writer.is_finished();
        let a = reader.submit_query_rect(&domain, TimeRange::all()).unwrap();
        let b = reader
            .submit_query_cells(&domain, TimeRange::all())
            .unwrap();
        let summary = reader.wait(a).unwrap();
        summary.check_consistency().unwrap();
        let cells = reader.wait(b).unwrap();
        assert!(
            summary.n_samples >= last_seen,
            "served totals went backwards under served writes"
        );
        assert!(!cells.is_empty());
        last_seen = summary.n_samples;
        if finished {
            break;
        }
    }
    writer.join().unwrap();

    // Drain the same wave into the truth store directly, then compare.
    for (granule, beam, product) in &write_wave() {
        truth.ingest_beam(granule, *beam, product).unwrap();
    }
    for rect in rects() {
        let want = truth.query_rect(&rect, TimeRange::all()).unwrap();
        let got = reader.query_rect(&rect, TimeRange::all()).unwrap();
        assert_bits(&want, &got, "post-write equivalence");
    }
    assert_eq!(
        truth.query_cells(&domain, TimeRange::all()).unwrap(),
        reader.query_cells(&domain, TimeRange::all()).unwrap()
    );

    // Idempotent re-ingest over the wire: Skip counts duplicates
    // instead of double-applying them (what makes producer retries and
    // crash-recovery re-sends safe).
    let (granule, beam, product) = &write_wave()[0];
    let again = reader
        .ingest_beam_with(granule, *beam, product, IngestMode::Skip)
        .unwrap();
    assert_eq!(again.n_samples, 0, "duplicate granule re-applied");
    assert!(again.n_skipped > 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = std::fs::remove_dir_all(&truth_dir);
}

/// Write RPCs against a default (read-only) server fail with the typed
/// [`ERR_READ_ONLY`] error frame, and the connection survives to
/// answer queries — including ones already in flight behind the
/// refused write.
#[test]
fn read_only_servers_refuse_writes_with_a_typed_error() {
    let dir = temp_dir("readonly");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    ingest(&local, &workload());
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let mut client = CatalogClient::connect(&server.addr().to_string()).unwrap();

    let domain = grid().domain();
    let before = client.submit_query_rect(&domain, TimeRange::all()).unwrap();
    let (granule, beam, product) = &write_wave()[0];
    let refused = client
        .submit_ingest_beam(granule, *beam, product, IngestMode::Skip)
        .unwrap();
    let after = client.submit_query_rect(&domain, TimeRange::all()).unwrap();

    match client.wait(refused) {
        Err(CatalogError::Remote { code, .. }) => assert_eq!(code, ERR_READ_ONLY),
        other => panic!("want ERR_READ_ONLY remote error, got {other:?}"),
    }
    let want = local.query_rect(&domain, TimeRange::all()).unwrap();
    assert_bits(&want, &client.wait(before).unwrap(), "query before refusal");
    assert_bits(&want, &client.wait(after).unwrap(), "query after refusal");
    assert_eq!(local.stats().unwrap().n_samples, want.n_samples);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
