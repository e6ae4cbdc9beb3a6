//! Equivalence of the cached whole-layer partials with a full scan.
//!
//! Summary queries classify each tile layer by the extent of its cached
//! partial: skipped when disjoint from the region, taken whole when
//! contained, scanned only when the region's edge cuts through it. This
//! suite checks that shortcut against an oracle that scans **every**
//! sample of every layer (loaded straight from the tile files) with the
//! three-level fold — samples canonical within a layer, layers
//! chronological within a tile, tiles by id — down to `f64::to_bits`:
//!
//! - seeded multi-layer catalogs built in random ingest order, under
//!   tile-aligned, unaligned, sub-tile, disjoint, degenerate and
//!   whole-domain rects (including edges through a sample's exact
//!   coordinate), the Ross Sea box and random boxes, and time ranges;
//! - a catalog refreshed by `IngestMode::Replace`, then compacted with a
//!   retention horizon, then merged into on top of a frozen base;
//! - non-finite coordinates: ingest refuses them, and a tile file that
//!   carries them anyway is still answered exactly (the layer is
//!   scanned, never classified by its extent).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use icesat_atl03::Beam;
use icesat_geo::{BoundingBox, GeoPoint, MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use proptest::TestRng;
use seaice::artifact::Artifact;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::{
    compact, Catalog, CompactionConfig, GridConfig, IngestMode, MapRect, QuerySummary,
    SampleRecord, Tile, TileId, TilePartial, TileScope, TimeKey, TimeRange,
};
use seaice_products::{BeamThickness, ProductPoint};

/// A Ross Sea grid straddling the antimeridian, wide enough that
/// `BoundingBox::ROSS_SEA`'s edges cross it: 8×8 tiles of 175 km,
/// 16×16 cells each.
fn grid() -> GridConfig {
    let center = EPSG_3976.forward(GeoPoint::new(-74.0, -172.0));
    GridConfig::new(center, 700_000.0, 3, 16).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_interior_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn unit(rng: &mut TestRng) -> f64 {
    (proptest::next_entropy(rng) >> 11) as f64 / (1u64 << 53) as f64
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    (proptest::next_entropy(rng) % n as u64) as usize
}

fn shuffle<T>(rng: &mut TestRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(rng, i + 1));
    }
}

/// One ingestable beam: freeboard-only or thickness-bearing.
enum Source {
    Freeboard(String, usize, FreeboardProduct),
    Thickness(BeamThickness),
}

impl Source {
    fn ingest(&self, catalog: &Catalog, mode: IngestMode) {
        match self {
            Source::Freeboard(id, beam, product) => {
                catalog.ingest_beam_with(id, *beam, product, mode).unwrap();
            }
            Source::Thickness(beam) => {
                catalog.ingest_thickness_beam_with(beam, mode).unwrap();
            }
        }
    }
}

/// A straight random track of `(lat, lon, freeboard, class)` points
/// that starts inside the domain and may leave it.
fn track(rng: &mut TestRng, grid: &GridConfig) -> Vec<(f64, f64, f64, SurfaceClass)> {
    let d = grid.domain();
    let x0 = d.min.x + unit(rng) * (d.max.x - d.min.x);
    let y0 = d.min.y + unit(rng) * (d.max.y - d.min.y);
    let heading = unit(rng) * std::f64::consts::TAU;
    let step = 200.0 + unit(rng) * 1800.0;
    let n = 150 + below(rng, 250);
    (0..n)
        .map(|i| {
            let m = MapPoint::new(
                x0 + i as f64 * step * heading.cos(),
                y0 + i as f64 * step * heading.sin(),
            );
            let g = EPSG_3976.inverse(m);
            let class = SurfaceClass::ALL[below(rng, 3)];
            // Jitter the longitude off the grid of values `GeoPoint::new`
            // maps to themselves, so stored and normalised longitudes
            // differ in their last bits east of 90°E.
            let lon = g.lon + (unit(rng) - 0.5) * 1e-9;
            (g.lat, lon, unit(rng) * 0.8 - 0.05, class)
        })
        .collect()
}

/// Seeded sources over four monthly layers (September to December
/// 2019); every third beam carries thickness. Source identities depend
/// only on `tag` and the index, so a different `seed` with the same
/// tag is a refresh of the same sources. `shift` perturbs freeboards.
fn sources(seed: &str, tag: &str, n: usize, shift: f64) -> Vec<Source> {
    let grid = grid();
    let mut rng = proptest::test_rng(seed);
    (0..n)
        .map(|k| {
            let month = 9 + (k % 4) as u8;
            let id = format!("2019{month:02}{:02}{tag}_{k:04}0210", 1 + k % 28);
            let beam = k % 3;
            let points = track(&mut rng, &grid);
            if k % 3 == 2 {
                Source::Thickness(BeamThickness {
                    granule_id: id,
                    beam: Beam::STRONG[beam],
                    snow_model: "test".into(),
                    points: points
                        .iter()
                        .enumerate()
                        .map(|(i, &(lat, lon, fb, class))| {
                            let ice = class != SurfaceClass::OpenWater;
                            ProductPoint {
                                along_track_m: i as f64 * 2.0,
                                lat,
                                lon,
                                freeboard_m: fb + shift,
                                class,
                                snow_depth_m: 0.1,
                                snow_sigma_m: 0.02,
                                thickness_m: if ice { 2.0 + 6.0 * fb } else { 0.0 },
                                thickness_sigma_m: if ice { 0.2 + fb.abs() } else { 0.0 },
                            }
                        })
                        .collect(),
                })
            } else {
                Source::Freeboard(
                    id,
                    Beam::STRONG[beam].index(),
                    FreeboardProduct {
                        name: "interior track".into(),
                        points: points
                            .iter()
                            .enumerate()
                            .map(|(i, &(lat, lon, fb, class))| FreeboardPoint {
                                along_track_m: i as f64 * 2.0,
                                lat,
                                lon,
                                freeboard_m: fb + shift,
                                class,
                            })
                            .collect(),
                    },
                )
            }
        })
        .collect()
}

/// Every tile layer of a catalog directory, read from its files.
fn load_layers(dir: &Path) -> BTreeMap<(TileId, TimeKey), Tile> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("tiles")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "tile") {
            let tile = Tile::load(&path).unwrap();
            out.insert((tile.id, tile.time), tile);
        }
    }
    out
}

/// The test oracle: scans every sample of every layer of the candidate
/// tiles within `time`, with the three-level fold written out longhand
/// (per-layer sums from zero, added chronologically; cells counted in a
/// set).
fn oracle(
    layers: &BTreeMap<(TileId, TimeKey), Tile>,
    candidates: Option<&BTreeSet<TileId>>,
    time: TimeRange,
    matches: impl Fn(&SampleRecord) -> bool,
) -> Vec<TilePartial> {
    let mut by_tile: BTreeMap<TileId, Vec<&Tile>> = BTreeMap::new();
    for ((id, t), tile) in layers {
        if time.contains(*t) && candidates.is_none_or(|c| c.contains(id)) {
            by_tile.entry(*id).or_default().push(tile);
        }
    }
    let mut out = Vec::new();
    for (id, tiles) in by_tile {
        let mut p = TilePartial {
            tile: id,
            n_samples: 0,
            class_counts: [0; 3],
            n_ice: 0,
            ice_sum_m: 0.0,
            min_freeboard_m: f64::INFINITY,
            max_freeboard_m: f64::NEG_INFINITY,
            n_cells: 0,
            t_n: 0,
            t_sum_m: 0.0,
            t_w_sum: 0.0,
            t_wt_sum: 0.0,
        };
        let mut cells = BTreeSet::new();
        for tile in tiles {
            let (mut ice, mut t_sum, mut t_w, mut t_wt) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for s in tile.samples().iter().filter(|s| matches(s)) {
                p.n_samples += 1;
                p.class_counts[s.class.index()] += 1;
                if s.class != SurfaceClass::OpenWater {
                    p.n_ice += 1;
                    ice += s.freeboard_m;
                }
                p.min_freeboard_m = p.min_freeboard_m.min(s.freeboard_m);
                p.max_freeboard_m = p.max_freeboard_m.max(s.freeboard_m);
                if s.thickness_sigma_m > 0.0 {
                    let w = 1.0 / (s.thickness_sigma_m * s.thickness_sigma_m);
                    p.t_n += 1;
                    t_sum += s.thickness_m;
                    t_w += w;
                    t_wt += s.thickness_m * w;
                }
                cells.insert(s.cell);
            }
            p.ice_sum_m += ice;
            p.t_sum_m += t_sum;
            p.t_w_sum += t_w;
            p.t_wt_sum += t_wt;
        }
        if p.n_samples > 0 {
            p.n_cells = cells.len() as u64;
            out.push(p);
        }
    }
    out
}

fn partial_bits(p: &TilePartial) -> [u64; 16] {
    [
        u64::from(p.tile.level),
        u64::from(p.tile.x),
        u64::from(p.tile.y),
        p.n_samples,
        p.class_counts[0],
        p.class_counts[1],
        p.class_counts[2],
        p.n_ice,
        p.ice_sum_m.to_bits(),
        p.min_freeboard_m.to_bits(),
        p.max_freeboard_m.to_bits(),
        p.n_cells,
        p.t_n,
        p.t_sum_m.to_bits(),
        p.t_w_sum.to_bits(),
        p.t_wt_sum.to_bits(),
    ]
}

fn summary_bits(s: &QuerySummary) -> [u64; 14] {
    [
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
    ]
}

/// Asserts the engine's partials equal the oracle's bit for bit, and
/// returns the flattened bits (for cross-catalog comparisons).
fn assert_same(what: &str, got: &[TilePartial], want: &[TilePartial]) -> Vec<u64> {
    let got_bits: Vec<[u64; 16]> = got.iter().map(partial_bits).collect();
    let want_bits: Vec<[u64; 16]> = want.iter().map(partial_bits).collect();
    assert_eq!(
        got_bits, want_bits,
        "{what}: partials differ from a full scan"
    );
    let summary = QuerySummary::from_partials(got.to_vec());
    assert_eq!(
        summary_bits(&summary),
        summary_bits(&QuerySummary::from_partials(want.to_vec())),
        "{what}: summary differs from a full scan"
    );
    summary.check_consistency().unwrap();
    got_bits.into_iter().flatten().collect()
}

/// Regions labelled for failure messages.
type Named<T> = Vec<(String, T)>;

/// The region battery: rects of every shape the classification has to
/// get right, the Ross Sea box, random boxes, and boxes and rects whose
/// edges pass exactly through a stored sample's coordinate.
fn regions(
    grid: &GridConfig,
    layers: &BTreeMap<(TileId, TimeKey), Tile>,
    seed: &str,
) -> (Named<MapRect>, Named<BoundingBox>) {
    let mut rng = proptest::test_rng(seed);
    let d = grid.domain();
    let (w, h) = (d.max.x - d.min.x, d.max.y - d.min.y);
    let tile = |x, y| grid.tile_rect(TileId { level: 3, x, y });
    let mut rects = vec![
        ("whole domain".to_string(), d),
        (
            "tile-aligned block".into(),
            MapRect::new(tile(1, 2).min, tile(5, 6).max),
        ),
        ("one tile exactly".into(), tile(3, 4)),
        (
            "sub-tile".into(),
            MapRect::new(
                MapPoint::new(tile(4, 3).min.x + 20_000.0, tile(4, 3).min.y + 30_000.0),
                MapPoint::new(tile(4, 3).min.x + 90_000.0, tile(4, 3).min.y + 75_000.0),
            ),
        ),
        (
            "disjoint, beyond the domain".into(),
            MapRect::new(
                MapPoint::new(d.max.x + 1_000.0, d.min.y),
                MapPoint::new(d.max.x + 50_000.0, d.max.y),
            ),
        ),
        ("degenerate point".into(), MapRect::new(d.min, d.min)),
        (
            "NaN bounds".into(),
            MapRect {
                min: MapPoint::new(f64::NAN, d.min.y),
                max: MapPoint::new(d.max.x, d.max.y),
            },
        ),
    ];
    for i in 0..16 {
        let a = MapPoint::new(d.min.x + unit(&mut rng) * w, d.min.y + unit(&mut rng) * h);
        let b = MapPoint::new(d.min.x + unit(&mut rng) * w, d.min.y + unit(&mut rng) * h);
        rects.push((format!("random rect {i}"), MapRect::new(a, b)));
    }
    let mut bboxes = vec![
        ("Ross Sea".to_string(), BoundingBox::ROSS_SEA),
        (
            "everything south of 60S".into(),
            BoundingBox {
                lon_min: -180.0,
                lon_max: 180.0,
                lat_min: -90.0,
                lat_max: -60.0,
            },
        ),
    ];
    for i in 0..16 {
        let (a, b) = (-82.0 + 16.0 * unit(&mut rng), -82.0 + 16.0 * unit(&mut rng));
        let (c, e) = (
            -180.0 + 360.0 * unit(&mut rng),
            -180.0 + 360.0 * unit(&mut rng),
        );
        bboxes.push((
            format!("random box {i}"),
            BoundingBox {
                lon_min: c.min(e),
                lon_max: c.max(e),
                lat_min: a.min(b),
                lat_max: a.max(b),
            },
        ));
    }
    // Edges through stored samples: a few samples drawn from the
    // layers, each bounding a rect and a box on every side.
    let all: Vec<&SampleRecord> = layers.values().flat_map(|t| t.samples()).collect();
    for k in 0..4 {
        let s = all[below(&mut rng, all.len())];
        let p = MapPoint::new(s.x_m, s.y_m);
        let g = GeoPoint::new(s.lat, s.lon);
        rects.push((
            format!("edge through sample {k}, below"),
            MapRect::new(d.min, p),
        ));
        rects.push((
            format!("edge through sample {k}, above"),
            MapRect::new(p, d.max),
        ));
        rects.push((format!("degenerate at sample {k}"), MapRect::new(p, p)));
        rects.push((
            format!("zero-width line through sample {k}"),
            MapRect::new(MapPoint::new(p.x, d.min.y), MapPoint::new(p.x, d.max.y)),
        ));
        bboxes.push((
            format!("box edge through sample {k}"),
            BoundingBox {
                lon_min: g.lon,
                lon_max: 180.0,
                lat_min: -90.0,
                lat_max: g.lat,
            },
        ));
    }
    // Edges through a layer's extreme samples — where its extent and
    // the region touch — and one ulp inside them.
    let layer_list: Vec<&Tile> = layers.values().filter(|t| t.samples().len() > 1).collect();
    let mut picks: Vec<&Tile> = (0..6)
        .map(|_| layer_list[below(&mut rng, layer_list.len())])
        .collect();
    picks.extend(
        layer_list
            .iter()
            .filter(|t| t.samples().iter().any(|s| s.lon > 90.0))
            .take(6),
    );
    for (k, t) in picks.into_iter().enumerate() {
        let by = |key: fn(&SampleRecord) -> f64| {
            let v = t.samples().iter().map(key).filter(|v| v.is_finite());
            (
                v.clone().fold(f64::INFINITY, f64::min),
                v.fold(f64::NEG_INFINITY, f64::max),
            )
        };
        let (x_lo, x_hi) = by(|s| s.x_m);
        let (lat_lo, lat_hi) = by(|s| s.lat);
        let (lon_lo, lon_hi) = by(|s| GeoPoint::new(s.lat, s.lon).lon);
        // East of 90°E, normalising a longitude rounds it: a box on the
        // stored (raw) extent may miss a normalised sample by an ulp.
        let raw_lon = by(|s| s.lon);
        for (name, lo, hi) in [
            ("", x_lo, x_hi),
            (", one ulp in", x_lo.next_up(), x_hi.next_down()),
        ] {
            rects.push((
                format!("rect up to layer {k}'s max x{name}"),
                MapRect::new(d.min, MapPoint::new(hi, d.max.y)),
            ));
            rects.push((
                format!("rect from layer {k}'s min x{name}"),
                MapRect::new(MapPoint::new(lo, d.min.y), d.max),
            ));
            rects.push((
                format!("rect from layer {k}'s max x{name}"),
                MapRect::new(MapPoint::new(hi, d.min.y), d.max),
            ));
        }
        for (name, lat, lon) in [
            ("", (lat_lo, lat_hi), (lon_lo, lon_hi)),
            (
                ", one ulp in",
                (lat_lo.next_up(), lat_hi.next_down()),
                (lon_lo.next_up(), lon_hi.next_down()),
            ),
            (", raw longitudes", (lat_lo, lat_hi), raw_lon),
        ] {
            bboxes.push((
                format!("box on layer {k}'s extent{name}"),
                BoundingBox {
                    lon_min: lon.0,
                    lon_max: lon.1,
                    lat_min: lat.0,
                    lat_max: lat.1,
                },
            ));
            bboxes.push((
                format!("box from layer {k}'s max lat{name}"),
                BoundingBox {
                    lon_min: -180.0,
                    lon_max: 180.0,
                    lat_min: lat.1,
                    lat_max: -60.0,
                },
            ));
        }
    }
    (rects, bboxes)
}

fn time_ranges(layers: &BTreeMap<(TileId, TimeKey), Tile>) -> Vec<TimeRange> {
    let keys: BTreeSet<TimeKey> = layers.keys().map(|(_, t)| *t).collect();
    let keys: Vec<TimeKey> = keys.into_iter().collect();
    let mut out = vec![TimeRange::all()];
    out.extend(keys.iter().map(|&k| TimeRange::only(k)));
    if keys.len() >= 3 {
        out.push(TimeRange {
            start: keys[1],
            end: keys[keys.len() - 1],
        });
    }
    out
}

/// Runs the whole battery against `catalog`, checking every answer
/// against the oracle over the catalog's own tile files. Returns the
/// flattened answer bits.
fn check_catalog(catalog: &Catalog, seed: &str) -> Vec<u64> {
    let grid = *catalog.grid();
    let layers = load_layers(catalog.dir());
    assert!(!layers.is_empty());
    let (rects, bboxes) = regions(&grid, &layers, seed);
    let all = TileScope::all();
    let mut bits = Vec::new();
    for time in time_ranges(&layers) {
        for (name, rect) in &rects {
            let candidates: BTreeSet<TileId> = grid.tiles_overlapping(rect).into_iter().collect();
            let want = oracle(&layers, Some(&candidates), time, |s| {
                rect.contains(MapPoint::new(s.x_m, s.y_m))
            });
            let got = catalog.query_rect_partials(rect, time, &all).unwrap();
            bits.extend(assert_same(&format!("rect {name} {time:?}"), &got, &want));
            let summary = catalog.query_rect(rect, time).unwrap();
            assert_eq!(
                summary_bits(&summary),
                summary_bits(&QuerySummary::from_partials(want))
            );
        }
        for (name, bbox) in &bboxes {
            let cover = grid.bbox_cover(bbox);
            let candidates: BTreeSet<TileId> = grid.tiles_overlapping(&cover).into_iter().collect();
            let want = oracle(&layers, Some(&candidates), time, |s| {
                bbox.contains(GeoPoint::new(s.lat, s.lon))
            });
            let got = catalog.query_bbox_partials(bbox, time, &all).unwrap();
            bits.extend(assert_same(&format!("bbox {name} {time:?}"), &got, &want));
        }
        let per_layer = catalog.query_time_range_partials(time, &all).unwrap();
        // A layer is listed iff the full scan finds samples in it: one
        // whose tiles hold only retention-frozen bases is omitted.
        let want_layers: BTreeSet<TimeKey> = layers
            .keys()
            .map(|(_, t)| *t)
            .filter(|t| time.contains(*t))
            .filter(|t| !oracle(&layers, None, TimeRange::only(*t), |_| true).is_empty())
            .collect();
        assert_eq!(
            per_layer.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            want_layers.iter().copied().collect::<Vec<_>>()
        );
        for (t, got) in &per_layer {
            let want = oracle(&layers, None, TimeRange::only(*t), |_| true);
            bits.extend(assert_same(&format!("time range {t:?}"), got, &want));
        }
    }
    catalog.validate().unwrap();
    bits
}

#[test]
fn cached_partials_match_a_full_scan_in_any_ingest_order() {
    let srcs = sources("interior sources", "010203", 40, 0.0);
    let mut answers = Vec::new();
    for (k, order_seed) in ["order a", "order b"].into_iter().enumerate() {
        let dir = temp_dir(&format!("order{k}"));
        let catalog = Catalog::create(&dir, grid()).unwrap();
        let mut order: Vec<&Source> = srcs.iter().collect();
        shuffle(&mut proptest::test_rng(order_seed), &mut order);
        for s in order {
            s.ingest(&catalog, IngestMode::Skip);
        }
        let layers = load_layers(&dir);
        assert!(
            layers
                .keys()
                .map(|(_, t)| *t)
                .collect::<BTreeSet<_>>()
                .len()
                == 4,
            "four monthly layers"
        );
        answers.push(check_catalog(&catalog, "interior regions"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(answers[0], answers[1], "ingest order changed an answer");
}

#[test]
fn replaced_and_retention_frozen_tiles_match_a_full_scan() {
    let dir = temp_dir("replace");
    let catalog = Catalog::create(&dir, grid()).unwrap();
    for s in sources("interior sources", "010203", 24, 0.0) {
        s.ingest(&catalog, IngestMode::Skip);
    }
    // Refresh a third of the sources with perturbed products (same
    // identities, different freeboards and tracks).
    let refreshed = sources("interior refresh", "010203", 24, 0.07);
    for s in refreshed.iter().step_by(3) {
        s.ingest(&catalog, IngestMode::Replace);
    }
    check_catalog(&catalog, "replace regions");

    // Retire September and October into frozen bases.
    let frozen = temp_dir("frozen");
    let mut cfg = CompactionConfig::rewrite(grid());
    cfg.retention = Some(TimeKey::new(2019, 11).unwrap());
    let report = compact(&dir, &frozen, &cfg).unwrap();
    assert!(report.n_retired > 0);
    let compacted = Catalog::open(&frozen).unwrap();
    let before = load_layers(&frozen);
    assert!(before.values().any(|t| !t.base().is_empty()));
    check_catalog(&compacted, "frozen regions");
    // Retention keeps bases out of summaries: a frozen layer answers
    // with no samples at all.
    let sept = TimeRange::only(TimeKey::new(2019, 9).unwrap());
    assert_eq!(
        compacted
            .query_rect(&compacted.grid().domain(), sept)
            .unwrap()
            .n_samples,
        0
    );

    // A new source merged on top of frozen bases: live samples only.
    for s in sources("interior late", "235959", 8, 0.0) {
        s.ingest(&compacted, IngestMode::Skip);
    }
    let after = load_layers(&frozen);
    assert!(after
        .values()
        .any(|t| !t.base().is_empty() && !t.samples().is_empty()));
    check_catalog(&compacted, "frozen plus live regions");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}

#[test]
fn non_finite_coordinates_are_refused_by_ingest_and_scanned_from_disk() {
    let dir = temp_dir("nonfinite");
    let catalog = Catalog::create(&dir, grid()).unwrap();
    for s in sources("interior sources", "010203", 12, 0.0) {
        s.ingest(&catalog, IngestMode::Skip);
    }
    // Ingest cannot store a non-finite coordinate: projection turns it
    // into NaN and the grid locates nothing.
    let c = BoundingBox::ROSS_SEA.center();
    let bad = FreeboardProduct {
        name: "non-finite".into(),
        points: [
            (f64::NAN, c.lon),
            (c.lat, f64::NAN),
            (c.lat, f64::INFINITY),
            (f64::NEG_INFINITY, c.lon),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(lat, lon))| FreeboardPoint {
            along_track_m: i as f64,
            lat,
            lon,
            freeboard_m: 0.3,
            class: SurfaceClass::ThickIce,
        })
        .collect(),
    };
    let before = catalog.stats().unwrap().n_samples;
    let report = catalog
        .ingest_beam("20191001000000_09990210", 0, &bad)
        .unwrap();
    assert_eq!(report.n_samples, 0);
    assert_eq!(report.n_out_of_domain, bad.points.len());
    assert_eq!(catalog.stats().unwrap().n_samples, before);
    drop(catalog);

    // A tile file can still carry one (written by hand here). Poison
    // the most populated layer: its extent, which ignores NaN, would
    // otherwise classify it as contained in the whole domain.
    let layers = load_layers(&dir);
    let (&(id, time), tile) = layers
        .iter()
        .max_by_key(|(_, t)| t.samples().len())
        .unwrap();
    let mut samples = tile.samples().to_vec();
    assert!(samples.len() >= 4);
    samples[0].x_m = f64::NAN;
    samples[1].lat = f64::NAN;
    samples[2].lon = f64::INFINITY;
    samples[3].y_m = f64::NEG_INFINITY;
    let mut poisoned = Tile::new(id, time);
    poisoned.merge(&samples);
    poisoned.version = tile.version + 1;
    let path = dir.join("tiles").join(format!(
        "{:04}{:02}_{}.tile",
        time.year,
        time.month,
        id.quadkey()
    ));
    assert!(path.exists());
    poisoned.save(&path).unwrap();

    let reopened = Catalog::open(&dir).unwrap();
    check_catalog(&reopened, "non-finite regions");
    // The poisoned samples are exactly the ones the predicates reject.
    let whole = reopened
        .query_rect_partials(
            &reopened.grid().domain(),
            TimeRange::only(time),
            &TileScope::all(),
        )
        .unwrap();
    let got = whole.iter().find(|p| p.tile == id).unwrap();
    assert_eq!(got.n_samples as usize, samples.len() - 2);
    let _ = std::fs::remove_dir_all(&dir);
}
