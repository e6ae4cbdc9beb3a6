//! Acceptance tests for idempotent ingest and offline compaction:
//!
//! - re-ingesting under `IngestMode::Skip` leaves every tile file
//!   **byte-identical** (and, with every tile's ledger in the index,
//!   reads no tile file);
//! - re-ingesting perturbed products under `IngestMode::Replace`
//!   converges to the same queryable state as a fresh build, bit for
//!   bit;
//! - the identity compaction (same grid, monthly layers, no retention)
//!   answers `query_cells` / `stats` / the summary battery
//!   bit-identically to its source;
//! - a retention horizon drops segment detail while per-cell composites
//!   keep answering bit-identically;
//! - re-gridding and seasonal layer merges preserve totals;
//! - a store holding a tile or manifest of another format version
//!   fails to open with a typed error (current format only).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use icesat_geo::{MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::artifact::ArtifactError;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::obs::parse_exposition;
use seaice_catalog::{
    compact, Catalog, CatalogClient, CatalogError, CatalogOptions, CatalogServer, CompactionConfig,
    FaultAction, FaultPlan, GridConfig, IngestMode, LayerMap, MapRect, TimeKey, TimeRange,
};

fn grid() -> GridConfig {
    GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_idem_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic beam product on a map-space line (see store.rs tests).
fn line_product(n: usize, x0: f64, y0: f64, dx: f64, dy: f64, fb0: f64) -> FreeboardProduct {
    let points = (0..n)
        .map(|i| {
            let m = MapPoint::new(x0 + i as f64 * dx, y0 + i as f64 * dy);
            let g = EPSG_3976.inverse(m);
            FreeboardPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: fb0 + (i % 7) as f64 * 0.01,
                class: SurfaceClass::ALL[i % 3],
            }
        })
        .collect();
    FreeboardProduct {
        name: "idempotency line".into(),
        points,
    }
}

/// Ingests a small two-layer, three-source workload.
fn build(catalog: &Catalog) {
    for (granule, beam, x0, dy) in [
        ("20190915010203_05000210", 0usize, -304_000.0, 10.0),
        ("20190915010203_05000210", 1, -303_000.0, 14.0),
        ("20191104195311_05010210", 1, -302_000.0, 18.0),
    ] {
        let product = line_product(400, x0, -1_304_000.0, 19.0, dy, 0.2);
        catalog.ingest_beam(granule, beam, &product).unwrap();
    }
}

/// Every tile file in a catalog directory, bytes and all.
fn dir_bytes(dir: &std::path::Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("tiles")).unwrap() {
        let path = entry.unwrap().path();
        out.insert(path.clone(), std::fs::read(&path).unwrap());
    }
    out
}

/// A deterministic query battery, flattened to comparable bits.
fn battery(catalog: &Catalog) -> Vec<u64> {
    let mut bits = Vec::new();
    let domain = catalog.grid().domain();
    let rects = [
        domain,
        MapRect::new(domain.min, MapPoint::new(-300_000.0, -1_300_000.0)),
        MapRect::new(
            MapPoint::new(-305_000.0, -1_305_000.0),
            MapPoint::new(-295_000.0, -1_295_000.0),
        ),
    ];
    let times = [
        TimeRange::all(),
        TimeRange::only(TimeKey::new(2019, 9).unwrap()),
        TimeRange::only(TimeKey::new(2019, 11).unwrap()),
    ];
    for rect in &rects {
        for time in times {
            let s = catalog.query_rect(rect, time).unwrap();
            s.check_consistency().unwrap();
            bits.extend([
                s.n_samples as u64,
                s.class_counts[0] as u64,
                s.class_counts[1] as u64,
                s.class_counts[2] as u64,
                s.n_ice as u64,
                s.mean_ice_freeboard_m.to_bits(),
                s.min_freeboard_m.to_bits(),
                s.max_freeboard_m.to_bits(),
                s.n_tiles as u64,
                s.n_cells as u64,
                s.n_thickness as u64,
                s.mean_thickness_m.to_bits(),
                s.ivw_mean_thickness_m.to_bits(),
                s.thickness_sigma_m.to_bits(),
            ]);
        }
    }
    for (tk, s) in catalog.query_time_range(TimeRange::all()).unwrap() {
        bits.extend([
            tk.year as u64,
            tk.month as u64,
            s.n_samples as u64,
            s.mean_ice_freeboard_m.to_bits(),
        ]);
    }
    bits.extend(cell_bits(catalog, TimeRange::all()));
    bits
}

/// `query_cells` over the whole domain, flattened to bits.
fn cell_bits(catalog: &Catalog, time: TimeRange) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in catalog.query_cells(&catalog.grid().domain(), time).unwrap() {
        bits.extend([
            c.tile.level as u64,
            c.tile.x as u64,
            c.tile.y as u64,
            c.cell as u64,
            c.center.x.to_bits(),
            c.center.y.to_bits(),
            c.agg.n,
            c.agg.class_counts[0],
            c.agg.class_counts[1],
            c.agg.class_counts[2],
            c.agg.ice_n,
            c.agg.ice_sum_m.to_bits(),
            c.agg.min_freeboard_m.to_bits(),
            c.agg.max_freeboard_m.to_bits(),
            c.agg.t_n,
            c.agg.t_sum_m.to_bits(),
            c.agg.t_w_sum.to_bits(),
            c.agg.t_wt_sum.to_bits(),
            c.agg.t_p95_m.to_bits(),
        ]);
    }
    bits
}

#[test]
fn skip_reingest_is_a_byte_stable_noop() {
    let dir = temp_dir("skip");
    let catalog = Catalog::create(&dir, grid()).unwrap();
    build(&catalog);
    let stats = catalog.stats().unwrap();
    let before = dir_bytes(&dir);
    let battery_before = battery(&catalog);

    // Re-ingest the identical workload: every sample skips, no tile file
    // changes by a single byte.
    let product = line_product(400, -304_000.0, -1_304_000.0, 19.0, 10.0, 0.2);
    let report = catalog
        .ingest_beam("20190915010203_05000210", 0, &product)
        .unwrap();
    assert_eq!(report.n_samples, 0);
    assert_eq!(report.n_skipped, 400);
    assert_eq!(report.n_tiles, 0);
    assert_eq!(dir_bytes(&dir), before, "tile bytes moved on a Skip re-run");
    assert_eq!(catalog.stats().unwrap().n_samples, stats.n_samples);

    // Same through a cold reopen: open reads every tile's ledger from
    // its header, so the re-run decides each tile from the index and
    // reads no tile file.
    drop(catalog);
    let reopened = Catalog::open(&dir).unwrap();
    let misses = |c: &Catalog| parse_exposition(&c.expose())["tile_cache_misses_total"];
    let misses_before = misses(&reopened);
    let report = reopened
        .ingest_beam("20190915010203_05000210", 0, &product)
        .unwrap();
    assert_eq!(report.n_samples, 0);
    assert_eq!(report.n_skipped, 400);
    assert_eq!(
        misses(&reopened),
        misses_before,
        "a Skip re-run read a tile"
    );
    assert_eq!(dir_bytes(&dir), before);
    assert_eq!(battery(&reopened), battery_before);

    // The ledgers live in the tiles: the directory holds nothing else.
    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, ["catalog.manifest", "tiles"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh catalog built from `perturbed` as beam 0 of the September
/// granule, plus the other two sources of [`build`] unchanged.
fn fresh_build(tag: &str, perturbed: &FreeboardProduct) -> (Catalog, PathBuf) {
    let dir = temp_dir(tag);
    let fresh = Catalog::create(&dir, grid()).unwrap();
    fresh
        .ingest_beam("20190915010203_05000210", 0, perturbed)
        .unwrap();
    for (granule, beam, x0, dy) in [
        ("20190915010203_05000210", 1usize, -303_000.0, 14.0),
        ("20191104195311_05010210", 1, -302_000.0, 18.0),
    ] {
        let product = line_product(400, x0, -1_304_000.0, 19.0, dy, 0.2);
        fresh.ingest_beam(granule, beam, &product).unwrap();
    }
    (fresh, dir)
}

/// Shifted `Replace`s converge to a fresh build whether the index
/// learned the tiles' ledgers by publishing them in this process or
/// read them from the tile headers (a catalog just reopened).
#[test]
fn replace_reingest_converges_to_fresh_build() {
    // Perturb one source: shifted track (crosses different tiles) and
    // different freeboards; then shift it a second time.
    let perturbed = line_product(350, -299_000.0, -1_299_000.0, 23.0, 21.0, 0.31);
    let shifted_again = line_product(380, -307_000.0, -1_296_000.0, 29.0, -17.0, 0.27);
    let (fresh, fresh_dir) = fresh_build("replace_fresh", &perturbed);
    let (fresh_again, fresh_again_dir) = fresh_build("replace_fresh_again", &shifted_again);
    for reopen in [false, true] {
        let dir = temp_dir(&format!("replace_reopen_{reopen}"));
        let mut catalog = Catalog::create(&dir, grid()).unwrap();
        build(&catalog);
        if reopen {
            // Cold: the new index read every ledger from a header.
            drop(catalog);
            catalog = Catalog::open(&dir).unwrap();
        }
        let report = catalog
            .ingest_beam_with(
                "20190915010203_05000210",
                0,
                &perturbed,
                IngestMode::Replace,
            )
            .unwrap();
        assert_eq!(report.n_replaced, 400, "every prior sample was removed");
        assert_eq!(report.n_samples + report.n_out_of_domain, 350);

        // A fresh catalog built from the perturbed workload answers the
        // whole battery bit-identically.
        assert_eq!(battery(&catalog), battery(&fresh));
        assert_eq!(
            catalog.stats().unwrap().n_samples,
            fresh.stats().unwrap().n_samples
        );
        catalog.validate().unwrap();

        // Replacing with the identical product is also stable (idempotent
        // under convergence, not bytes — versions move).
        let again = catalog
            .ingest_beam_with(
                "20190915010203_05000210",
                0,
                &perturbed,
                IngestMode::Replace,
            )
            .unwrap();
        assert_eq!(again.n_replaced, again.n_samples);
        assert_eq!(battery(&catalog), battery(&fresh));

        // Warm: shift the same source again in this process.
        let report = catalog
            .ingest_beam_with(
                "20190915010203_05000210",
                0,
                &shifted_again,
                IngestMode::Replace,
            )
            .unwrap();
        assert_eq!(report.n_replaced, again.n_samples);
        assert_eq!(battery(&catalog), battery(&fresh_again));
        catalog.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let _ = std::fs::remove_dir_all(&fresh_again_dir);
}

/// A crash between a sweep removal's file rename and its index update
/// leaves the tile file one version ahead of the index. The next
/// `Replace` in the same process must still open that tile and fail
/// typed, even for a source the tile never held: neither the ledger the
/// index knew for the old version nor the cached old snapshot describes
/// the file. Reopening and re-running the `Replace`s heals to a fresh
/// build. Run with the default tile cache (the old snapshot would still
/// be cached) and with a one-slot cache (it would have been evicted).
#[test]
fn replace_crash_after_rename_fails_typed_then_heals() {
    let granule = "20190915010203_05000210";
    let perturbed = line_product(350, -299_000.0, -1_299_000.0, 23.0, 21.0, 0.31);
    // A third source in the same layer, in the domain's south-west
    // corner tile, clear of every tile the first source ever held.
    let corner = line_product(60, -309_500.0, -1_309_500.0, 40.0, 0.0, 0.18);

    // The shifted Replace merges into this many tiles before its sweep.
    let probe_dir = temp_dir("crash_probe");
    let probe = Catalog::create(&probe_dir, grid()).unwrap();
    let n_merges = probe.ingest_beam(granule, 0, &perturbed).unwrap().n_tiles as u64;
    let (fresh, fresh_dir) = fresh_build("crash_fresh", &perturbed);
    fresh.ingest_beam(granule, 2, &corner).unwrap();

    let default = CatalogOptions::default();
    for (cache_capacity, cache_stripes) in [(default.cache_capacity, default.cache_stripes), (1, 1)]
    {
        let dir = temp_dir(&format!("crash_after_rename_{cache_capacity}"));
        let plan = Arc::new(FaultPlan::scripted());
        let options = CatalogOptions {
            cache_capacity,
            cache_stripes,
            fault: Some(Arc::clone(&plan)),
            ..CatalogOptions::default()
        };
        let catalog = Catalog::create_with(&dir, grid(), options).unwrap();
        build(&catalog);
        let first_sweep_write = plan.hits(FaultPlan::TILE_AFTER_RENAME) + n_merges;
        plan.script(
            FaultPlan::TILE_AFTER_RENAME,
            first_sweep_write,
            FaultAction::Crash,
        );
        match catalog.ingest_beam_with(granule, 0, &perturbed, IngestMode::Replace) {
            Err(CatalogError::FaultInjected(site)) => {
                assert_eq!(site, FaultPlan::TILE_AFTER_RENAME)
            }
            other => panic!("the sweep removal did not crash: {other:?}"),
        }
        match catalog.ingest_beam_with(granule, 2, &corner, IngestMode::Replace) {
            Err(CatalogError::Corrupt(what)) => {
                assert_eq!(what, "tile file behind its index entry")
            }
            other => panic!("cache {cache_capacity}: the crashed tile was passed over: {other:?}"),
        }
        drop(catalog);

        let healed = Catalog::open(&dir).unwrap();
        healed
            .ingest_beam_with(granule, 0, &perturbed, IngestMode::Replace)
            .unwrap();
        healed
            .ingest_beam_with(granule, 2, &corner, IngestMode::Replace)
            .unwrap();
        assert_eq!(battery(&healed), battery(&fresh));
        healed.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
    for d in [&fresh_dir, &probe_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn identity_compaction_is_bit_identical() {
    let src_dir = temp_dir("compact_src");
    let src = Catalog::create(&src_dir, grid()).unwrap();
    build(&src);
    let battery_src = battery(&src);
    let stats_src = src.stats().unwrap();

    let dst_dir = temp_dir("compact_dst");
    let report = compact(&src_dir, &dst_dir, &CompactionConfig::rewrite(grid())).unwrap();
    assert_eq!(report.n_samples_in, stats_src.n_samples);
    assert_eq!(report.n_samples_out, stats_src.n_samples);
    assert_eq!(report.n_retired, 0);
    assert_eq!(report.n_out_of_domain, 0);
    assert_eq!(report.n_target_tiles, stats_src.n_tiles);
    assert_eq!(report.n_layers_out, stats_src.n_layers);

    let dst = Catalog::open(&dst_dir).unwrap();
    let stats_dst = dst.stats().unwrap();
    assert_eq!(stats_dst.n_samples, stats_src.n_samples);
    assert_eq!(stats_dst.n_tiles, stats_src.n_tiles);
    assert_eq!(stats_dst.n_layers, stats_src.n_layers);
    assert_eq!(battery(&dst), battery_src, "identity compaction moved bits");
    dst.validate().unwrap();

    // The compacted catalog still skips completed sources (the tile
    // ledgers carried over).
    let product = line_product(400, -304_000.0, -1_304_000.0, 19.0, 10.0, 0.2);
    let r = dst
        .ingest_beam("20190915010203_05000210", 0, &product)
        .unwrap();
    assert_eq!(r.n_skipped, 400);

    // Compacting into a non-empty destination is refused.
    assert!(compact(&src_dir, &dst_dir, &CompactionConfig::rewrite(grid())).is_err());
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&dst_dir);
}

#[test]
fn regrid_and_seasonal_merge_preserve_totals() {
    let src_dir = temp_dir("regrid_src");
    let src = Catalog::create(&src_dir, grid()).unwrap();
    build(&src);
    let stats_src = src.stats().unwrap();
    let whole_src = src
        .query_rect(&src.grid().domain(), TimeRange::all())
        .unwrap();

    // Finer grid over the same domain, monthly layers folded into
    // seasons (Sep and Nov 2019 both belong to distinct seasons: Sep →
    // Sep, Nov → Sep as well — both are in Sep–Nov).
    let finer = GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 3, 8).unwrap();
    let dst_dir = temp_dir("regrid_dst");
    let cfg = CompactionConfig {
        grid: finer,
        layers: LayerMap::Seasonal,
        ..CompactionConfig::rewrite(finer)
    };
    let report = compact(&src_dir, &dst_dir, &cfg).unwrap();
    assert_eq!(report.n_out_of_domain, 0, "same domain, nothing falls out");
    assert_eq!(report.n_samples_out, stats_src.n_samples);

    let dst = Catalog::open(&dst_dir).unwrap();
    assert_eq!(dst.stats().unwrap().n_samples, stats_src.n_samples);
    assert_eq!(
        dst.layers(),
        vec![TimeKey::new(2019, 9).unwrap()],
        "Sep + Nov 2019 fold into the Sep–Nov season"
    );
    let whole_dst = dst
        .query_rect(&dst.grid().domain(), TimeRange::all())
        .unwrap();
    // Sample-exact counts survive re-binning; tile/cell granularity and
    // float fold order legitimately change with the grid.
    assert_eq!(whole_dst.n_samples, whole_src.n_samples);
    assert_eq!(whole_dst.class_counts, whole_src.class_counts);
    assert_eq!(whole_dst.n_ice, whole_src.n_ice);
    assert!((whole_dst.mean_ice_freeboard_m - whole_src.mean_ice_freeboard_m).abs() < 1e-12);
    assert_eq!(
        whole_dst.min_freeboard_m.to_bits(),
        whole_src.min_freeboard_m.to_bits()
    );
    assert_eq!(
        whole_dst.max_freeboard_m.to_bits(),
        whole_src.max_freeboard_m.to_bits()
    );
    let total: u64 = dst
        .query_cells(&dst.grid().domain(), TimeRange::all())
        .unwrap()
        .iter()
        .map(|c| c.agg.n)
        .sum();
    assert_eq!(total, stats_src.n_samples as u64);
    dst.validate().unwrap();
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&dst_dir);
}

#[test]
fn retention_drops_samples_but_preserves_composites() {
    let src_dir = temp_dir("retain_src");
    let src = Catalog::create(&src_dir, grid()).unwrap();
    build(&src);
    let stats_src = src.stats().unwrap();
    let cells_src = cell_bits(&src, TimeRange::all());
    let sept = TimeRange::only(TimeKey::new(2019, 9).unwrap());
    let sept_samples = src
        .query_rect(&src.grid().domain(), sept)
        .unwrap()
        .n_samples;
    assert!(sept_samples > 0);

    // Retire everything before November 2019.
    let dst_dir = temp_dir("retain_dst");
    let cfg = CompactionConfig {
        retention: Some(TimeKey::new(2019, 11).unwrap()),
        ..CompactionConfig::rewrite(grid())
    };
    let report = compact(&src_dir, &dst_dir, &cfg).unwrap();
    assert_eq!(report.n_retired, sept_samples);
    assert_eq!(
        report.n_samples_out,
        stats_src.n_samples - sept_samples,
        "only the November layer keeps segment detail"
    );

    let dst = Arc::new(Catalog::open(&dst_dir).unwrap());
    // Segment-level queries see only the retained layer…
    assert_eq!(
        dst.query_rect(&dst.grid().domain(), sept)
            .unwrap()
            .n_samples,
        0
    );
    assert_eq!(
        dst.stats().unwrap().n_samples,
        stats_src.n_samples - sept_samples
    );
    // …but the gridded composites are bit-identical to the source.
    assert_eq!(cell_bits(&dst, TimeRange::all()), cells_src);
    assert_eq!(cell_bits(&dst, sept), cell_bits(&src, sept));
    dst.validate().unwrap();

    // September's tiles hold only frozen bases, so the time-range answer
    // omits that layer, and the in-process answer is the served one.
    let layers = dst.query_time_range(TimeRange::all()).unwrap();
    assert!(
        layers
            .iter()
            .all(|(time, _)| *time != TimeKey::new(2019, 9).unwrap()),
        "{layers:?}"
    );
    let server = CatalogServer::serve(Arc::clone(&dst), "127.0.0.1:0").unwrap();
    let mut client = CatalogClient::connect(&server.addr().to_string()).unwrap();
    assert_eq!(client.query_time_range(TimeRange::all()).unwrap(), layers);
    drop(client);
    server.shutdown();

    // Re-ingesting a retired source still skips (its ledger survived)…
    let product = line_product(400, -304_000.0, -1_304_000.0, 19.0, 10.0, 0.2);
    let r = dst
        .ingest_beam("20190915010203_05000210", 0, &product)
        .unwrap();
    assert_eq!(r.n_skipped, 400);
    // …and Replacing it is refused with the typed error: its samples
    // live only in the frozen base, so removal is impossible and a
    // re-merge would double-count.
    match dst.ingest_beam_with("20190915010203_05000210", 0, &product, IngestMode::Replace) {
        Err(seaice_catalog::CatalogError::ArchivedSource { source }) => {
            assert_eq!(
                source,
                seaice_catalog::SampleRecord::source_id("20190915010203_05000210", 0)
            );
        }
        other => panic!("expected ArchivedSource, got {other:?}"),
    }
    // The retained (November) layer still accepts Replace normally.
    let nov = line_product(200, -302_000.0, -1_304_000.0, 19.0, 18.0, 0.25);
    dst.ingest_beam_with("20191104195311_05010210", 1, &nov, IngestMode::Replace)
        .unwrap();
    dst.validate().unwrap();
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&dst_dir);
}

/// A synthetic thickness-enriched beam on a map-space line, mirroring
/// what [`seaice_products::enrich_fleet`] emits: ice samples carry
/// `(thickness, sigma > 0)`, open water carries zeros.
fn line_thickness(
    granule_id: &str,
    beam: icesat_atl03::Beam,
    n: usize,
    x0: f64,
    y0: f64,
    dx: f64,
    dy: f64,
) -> seaice_products::BeamThickness {
    let points = (0..n)
        .map(|i| {
            let m = MapPoint::new(x0 + i as f64 * dx, y0 + i as f64 * dy);
            let g = EPSG_3976.inverse(m);
            let class = SurfaceClass::ALL[i % 3];
            let water = class == SurfaceClass::OpenWater;
            seaice_products::ProductPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: 0.2 + (i % 7) as f64 * 0.01,
                class,
                snow_depth_m: if water { 0.0 } else { 0.08 },
                snow_sigma_m: if water { 0.0 } else { 0.03 },
                thickness_m: if water {
                    0.0
                } else {
                    1.5 + (i % 5) as f64 * 0.1
                },
                thickness_sigma_m: if water {
                    0.0
                } else {
                    0.25 + (i % 4) as f64 * 0.05
                },
            }
        })
        .collect();
    seaice_products::BeamThickness {
        granule_id: granule_id.to_string(),
        beam,
        snow_model: "climatology".into(),
        points,
    }
}

/// Thickness-bearing samples ride the whole idempotency + compaction
/// battery: Skip re-ingest is byte-stable, identity compaction and a
/// retention horizon preserve the thickness aggregates bit-identically.
#[test]
fn thickness_ingest_idempotent_and_compaction_preserves_aggregates() {
    let src_dir = temp_dir("thick_src");
    let src = Catalog::create(&src_dir, grid()).unwrap();
    build(&src);
    let enriched = line_thickness(
        "20190915010203_05000210",
        icesat_atl03::Beam::Gt2l,
        300,
        -303_500.0,
        -1_304_000.0,
        21.0,
        12.0,
    );
    let report = src
        .ingest_thickness_beam_with(&enriched, IngestMode::Skip)
        .unwrap();
    assert!(report.n_samples > 0);
    let stats = src.stats().unwrap();
    assert!(stats.n_thickness > 0, "bearing samples are counted");
    let whole = src
        .query_rect(&src.grid().domain(), TimeRange::all())
        .unwrap();
    whole.check_consistency().unwrap();
    assert_eq!(whole.n_thickness, stats.n_thickness);
    assert!(whole.ivw_mean_thickness_m > 0.0 && whole.thickness_sigma_m > 0.0);

    // Skip re-ingest of the enriched beam: byte-stable no-op.
    let before = dir_bytes(&src_dir);
    let battery_src = battery(&src);
    let again = src
        .ingest_thickness_beam_with(&enriched, IngestMode::Skip)
        .unwrap();
    assert_eq!(again.n_samples, 0);
    assert_eq!(again.n_skipped, 300);
    assert_eq!(dir_bytes(&src_dir), before);

    // Identity compaction preserves every thickness aggregate bit.
    let dst_dir = temp_dir("thick_dst");
    compact(&src_dir, &dst_dir, &CompactionConfig::rewrite(grid())).unwrap();
    let dst = Catalog::open(&dst_dir).unwrap();
    assert_eq!(battery(&dst), battery_src);
    assert_eq!(dst.stats().unwrap().n_thickness, stats.n_thickness);
    dst.validate().unwrap();

    // Retention: segment detail goes, per-cell thickness composites
    // (sums, IVW accumulators, p95 envelope) answer bit-identically.
    let cells_src = cell_bits(&src, TimeRange::all());
    let retained_dir = temp_dir("thick_retained");
    let cfg = CompactionConfig {
        retention: Some(TimeKey::new(2019, 12).unwrap()),
        ..CompactionConfig::rewrite(grid())
    };
    compact(&src_dir, &retained_dir, &cfg).unwrap();
    let retained = Catalog::open(&retained_dir).unwrap();
    assert_eq!(retained.stats().unwrap().n_samples, 0);
    assert_eq!(cell_bits(&retained, TimeRange::all()), cells_src);
    retained.validate().unwrap();
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&dst_dir);
    let _ = std::fs::remove_dir_all(&retained_dir);
}

/// Only the current format opens: a catalog directory holding one tile
/// or a manifest of another format version (a pre-v3 v2, or a future
/// v4) fails `Catalog::open` with a typed `BadVersion`, never a panic
/// or a silently partial store.
#[test]
fn other_format_versions_fail_open_typed() {
    let dir = temp_dir("format_versions");
    let catalog = Catalog::create(&dir, grid()).unwrap();
    build(&catalog);
    drop(catalog);
    let tile = std::fs::read_dir(dir.join("tiles"))
        .unwrap()
        .next()
        .expect("a persisted tile")
        .unwrap()
        .path();
    let manifest = dir.join("catalog.manifest");
    for (path, version) in [(&tile, 3u16), (&tile, 5), (&manifest, 3), (&manifest, 5)] {
        let original = std::fs::read(path).unwrap();
        let mut patched = original.clone();
        // Every artifact starts tag(4) | u16 format version.
        patched[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(path, &patched).unwrap();
        match Catalog::open(&dir) {
            Err(CatalogError::Artifact(ArtifactError::BadVersion(v))) => assert_eq!(v, version),
            Err(other) => panic!("{path:?} at v{version}: wrong error {other}"),
            Ok(_) => panic!("{path:?} at v{version} opened"),
        }
        std::fs::write(path, &original).unwrap();
    }
    // Restored, the store opens and answers again.
    Catalog::open(&dir).unwrap().validate().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
