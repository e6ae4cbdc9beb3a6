//! The serve workloads: an in-process `CatalogServer` over a catalog of
//! 12 monthly layers built in set-up, driven over loopback TCP.
//!
//! - `serve_hot`: one thread, `min(nproc, 2)` connections x 4 requests
//!   in flight, large-area summaries against a tile cache that holds the
//!   whole working set (warmed before timing).
//! - `serve_churn`: one reader connection doing small-area reads at
//!   seeded random tiles and months, and one writer connection
//!   re-landing stored products with served `Replace` ingests, against a
//!   tile cache smaller than a tenth of the working set.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icesat_atl03::Beam;
use icesat_geo::{BoundingBox, GeoPoint, MapPoint, EPSG_3976};
use seaice::artifact::{Artifact, Codec, Writer};
use seaice::pipeline::Pipeline;
use seaice::{FleetDriver, FreeboardProduct};
use seaice_catalog::obs::{parse_exposition, Gauge, MetricRegistry};
use seaice_catalog::wire::{self, Request, Response, BATCH_RECORDS, MAX_BATCH_BYTES};
use seaice_catalog::{
    Catalog, CatalogClient, CatalogError, CatalogOptions, CatalogServer, CellSummary, ClientConfig,
    GridConfig, IngestMode, LeaseOptions, MapRect, Pending, QuerySummary, ServerConfig, Tile,
    TileId, TilePartial, TileScope, TimeKey, TimeRange,
};
use sparklite::Cluster;

use crate::inputs::{self, Rng};
use crate::report::{self, Outcome, READ_KINDS};
use crate::trace::Tracer;
use crate::Args;

/// Distinct granules classified per run.
const UNIQUE_GRANULES: usize = 12;
/// Monthly layers in the catalog.
const MONTHS: u8 = 12;
/// Granules landed per month: month `m` holds granules
/// `(m - 1 + k) % 12` for `k < 10`, so layers differ in content.
const GRANULES_PER_MONTH: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `serve_hot` tile cache: far above the working set.
const HOT_CACHE_TILES: usize = 16_384;
/// `serve_churn` tile cache: this fraction of the working set.
const CHURN_CACHE_DIVISOR: usize = 16;
/// Requests in flight per `serve_hot` connection.
const HOT_IN_FLIGHT: usize = 4;
/// Distinct small-area reads `serve_churn` cycles through.
const CHURN_POOL: usize = 2048;
/// `op_tail_us` percentile (both serve workloads run well over 1000
/// reads per run).
const TAIL_Q: f64 = 0.99;
/// Tile files decoded per probed read (`tile.decode_us`).
const DECODE_PROBE_TILES: usize = 4;

// ---------------------------------------------------------------------------
// Reads: the query, its one right answer, and what it touches.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Query {
    Rect(MapRect, TimeRange),
    Bbox(BoundingBox, TimeRange),
    Layers(TimeRange),
    Point(GeoPoint, TimeRange),
    Cells(MapRect, TimeRange),
}

impl Query {
    /// Index into [`READ_KINDS`] (the server's `kind` labels).
    fn kind(&self) -> usize {
        match self {
            Query::Rect(..) => 0,
            Query::Bbox(..) => 1,
            Query::Layers(..) => 2,
            Query::Point(..) => 3,
            Query::Cells(..) => 4,
        }
    }

    fn request(&self) -> Request {
        let scope = TileScope::all();
        match *self {
            Query::Rect(rect, time) => Request::QueryRect { rect, time, scope },
            Query::Bbox(bbox, time) => Request::QueryBbox { bbox, time, scope },
            Query::Layers(time) => Request::QueryTimeRange { time, scope },
            Query::Point(point, time) => Request::QueryPoint { point, time, scope },
            Query::Cells(rect, time) => Request::QueryCells { rect, time, scope },
        }
    }
}

#[derive(Debug, Clone)]
enum Answer {
    Summary(QuerySummary),
    Layers(Vec<(TimeKey, QuerySummary)>),
    Point(Option<CellSummary>),
    Cells(Vec<CellSummary>),
}

impl Answer {
    fn samples(&self) -> u64 {
        match self {
            Answer::Summary(s) => s.n_samples as u64,
            Answer::Layers(l) => l.iter().map(|(_, s)| s.n_samples as u64).sum(),
            Answer::Point(p) => p.map_or(0, |c| c.agg.n),
            Answer::Cells(c) => c.iter().map(|c| c.agg.n).sum(),
        }
    }
}

fn same_summary(a: &QuerySummary, b: &QuerySummary) -> bool {
    a.n_samples == b.n_samples
        && a.class_counts == b.class_counts
        && a.n_ice == b.n_ice
        && a.n_tiles == b.n_tiles
        && a.n_cells == b.n_cells
        && a.n_thickness == b.n_thickness
        && [
            (a.mean_ice_freeboard_m, b.mean_ice_freeboard_m),
            (a.min_freeboard_m, b.min_freeboard_m),
            (a.max_freeboard_m, b.max_freeboard_m),
            (a.mean_thickness_m, b.mean_thickness_m),
            (a.ivw_mean_thickness_m, b.ivw_mean_thickness_m),
            (a.thickness_sigma_m, b.thickness_sigma_m),
        ]
        .iter()
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Cells compare by their encoded bytes, which carry every float's bits.
fn cell_bytes<'a>(cells: impl IntoIterator<Item = &'a CellSummary>) -> Vec<u8> {
    let mut w = Writer::new();
    for c in cells {
        c.encode(&mut w);
    }
    w.finish().to_vec()
}

/// Bit-for-bit equality (`f64::to_bits`) of two answers.
fn same_bits(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Summary(x), Answer::Summary(y)) => same_summary(x, y),
        (Answer::Layers(x), Answer::Layers(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((tx, sx), (ty, sy))| tx == ty && same_summary(sx, sy))
        }
        (Answer::Point(x), Answer::Point(y)) => cell_bytes(x) == cell_bytes(y),
        (Answer::Cells(x), Answer::Cells(y)) => cell_bytes(x) == cell_bytes(y),
        _ => false,
    }
}

fn answer_local(catalog: &Catalog, q: &Query) -> Result<Answer, CatalogError> {
    Ok(match *q {
        Query::Rect(rect, time) => Answer::Summary(catalog.query_rect(&rect, time)?),
        Query::Bbox(bbox, time) => Answer::Summary(catalog.query_bbox(&bbox, time)?),
        Query::Layers(time) => Answer::Layers(catalog.query_time_range(time)?),
        Query::Point(p, time) => Answer::Point(catalog.query_point(p, time)?),
        Query::Cells(rect, time) => Answer::Cells(catalog.query_cells(&rect, time)?),
    })
}

fn answer_served(client: &mut CatalogClient, q: &Query) -> Result<Answer, CatalogError> {
    Ok(match *q {
        Query::Rect(rect, time) => Answer::Summary(client.query_rect(&rect, time)?),
        Query::Bbox(bbox, time) => Answer::Summary(client.query_bbox(&bbox, time)?),
        Query::Layers(time) => Answer::Layers(client.query_time_range(time)?),
        Query::Point(p, time) => Answer::Point(client.query_point(p, time)?),
        Query::Cells(rect, time) => Answer::Cells(client.query_cells(&rect, time)?),
    })
}

enum InFlight {
    Summary(Pending<QuerySummary>),
    Layers(Pending<Vec<(TimeKey, QuerySummary)>>),
    Point(Pending<Option<CellSummary>>),
    Cells(Pending<Vec<CellSummary>>),
}

fn submit(client: &mut CatalogClient, q: &Query) -> Result<InFlight, CatalogError> {
    Ok(match *q {
        Query::Rect(rect, time) => InFlight::Summary(client.submit_query_rect(&rect, time)?),
        Query::Bbox(bbox, time) => InFlight::Summary(client.submit_query_bbox(&bbox, time)?),
        Query::Layers(time) => InFlight::Layers(client.submit_query_time_range(time)?),
        Query::Point(p, time) => InFlight::Point(client.submit_query_point(p, time)?),
        Query::Cells(rect, time) => InFlight::Cells(client.submit_query_cells(&rect, time)?),
    })
}

fn wait(client: &mut CatalogClient, p: InFlight) -> Result<Answer, CatalogError> {
    Ok(match p {
        InFlight::Summary(p) => Answer::Summary(client.wait(p)?),
        InFlight::Layers(p) => Answer::Layers(client.wait(p)?),
        InFlight::Point(p) => Answer::Point(client.wait(p)?),
        InFlight::Cells(p) => Answer::Cells(client.wait(p)?),
    })
}

/// What the server streams for a query: the in-process records behind
/// the answer.
enum Records {
    Tiles(Vec<TilePartial>),
    Layers(Vec<(TimeKey, TilePartial)>),
    Point(Option<CellSummary>),
    Cells(Vec<CellSummary>),
}

fn records_local(catalog: &Catalog, q: &Query) -> Result<Records, CatalogError> {
    let all = TileScope::all();
    Ok(match *q {
        Query::Rect(rect, time) => Records::Tiles(catalog.query_rect_partials(&rect, time, &all)?),
        Query::Bbox(bbox, time) => Records::Tiles(catalog.query_bbox_partials(&bbox, time, &all)?),
        Query::Layers(time) => Records::Layers(
            catalog
                .query_time_range_partials(time, &all)?
                .into_iter()
                .flat_map(|(t, ps)| ps.into_iter().map(move |p| (t, p)))
                .collect(),
        ),
        Query::Point(p, time) => Records::Point(catalog.query_point_scoped(p, time, &all)?),
        Query::Cells(rect, time) => Records::Cells(catalog.query_cells_scoped(&rect, time, &all)?),
    })
}

/// The response messages the server sends for `records`: batches cut by
/// `wire::batch_ranges`, then a `Done` trailer (a point is one message).
fn responses(records: Records) -> Vec<Response> {
    fn stream<T: Codec + Clone>(records: Vec<T>, make: fn(Vec<T>) -> Response) -> Vec<Response> {
        let mut out: Vec<Response> = wire::batch_ranges(&records, BATCH_RECORDS, MAX_BATCH_BYTES)
            .into_iter()
            .map(|r| make(records[r].to_vec()))
            .collect();
        out.push(Response::Done {
            n_records: records.len() as u64,
        });
        out
    }
    match records {
        Records::Tiles(r) => stream(r, Response::TileBatch),
        Records::Layers(r) => stream(r, Response::LayerBatch),
        Records::Cells(r) => stream(r, Response::CellBatch),
        Records::Point(p) => vec![Response::Point(p)],
    }
}

/// The client's fold of decoded response messages into the answer.
fn fold(kind: usize, messages: Vec<Response>) -> Option<Answer> {
    let mut tiles = Vec::new();
    let mut layers: BTreeMap<TimeKey, Vec<TilePartial>> = BTreeMap::new();
    let mut cells = Vec::new();
    for m in messages {
        match m {
            Response::TileBatch(mut b) => tiles.append(&mut b),
            Response::LayerBatch(b) => {
                for (t, p) in b {
                    layers.entry(t).or_default().push(p);
                }
            }
            Response::CellBatch(mut b) => cells.append(&mut b),
            Response::Point(p) => return Some(Answer::Point(p)),
            Response::Done { .. } => {}
            _ => return None,
        }
    }
    Some(match kind {
        0 | 1 => Answer::Summary(QuerySummary::from_partials(tiles)),
        2 => Answer::Layers(
            layers
                .into_iter()
                .map(|(t, ps)| (t, QuerySummary::from_partials(ps)))
                .collect(),
        ),
        _ => Answer::Cells(cells),
    })
}

struct Read {
    query: Query,
    expected: Answer,
    /// (tile, layer) entries the query loads.
    touched: Vec<(TileId, TimeKey)>,
}

fn month(m: u8) -> TimeKey {
    TimeKey::new(inputs::YEAR, m).expect("benchmark months are valid")
}

fn touched(
    grid: &GridConfig,
    keys: &BTreeSet<(TileId, TimeKey)>,
    q: &Query,
) -> Vec<(TileId, TimeKey)> {
    let (tiles, time): (Option<Vec<TileId>>, TimeRange) = match *q {
        Query::Rect(rect, time) | Query::Cells(rect, time) => {
            (Some(grid.tiles_overlapping(&rect)), time)
        }
        Query::Bbox(bbox, time) => (Some(grid.tiles_overlapping(&grid.bbox_cover(&bbox))), time),
        Query::Layers(time) => (None, time),
        Query::Point(p, time) => (
            Some(
                grid.locate(EPSG_3976.forward(p))
                    .map(|(t, _)| t)
                    .into_iter()
                    .collect(),
            ),
            time,
        ),
    };
    let tiles: Option<BTreeSet<TileId>> = tiles.map(|t| t.into_iter().collect());
    keys.iter()
        .filter(|(t, layer)| time.contains(*layer) && tiles.as_ref().is_none_or(|s| s.contains(t)))
        .copied()
        .collect()
}

// ---------------------------------------------------------------------------
// The catalog: inputs, set-up, and shape.
// ---------------------------------------------------------------------------

/// One stored beam product: its month-tagged source identity and the
/// classified product it carries.
struct Entry {
    granule_id: String,
    beam_index: usize,
    product: usize,
    /// Samples the set-up ingest landed for it.
    samples: usize,
}

struct Fleet {
    products: Vec<FreeboardProduct>,
    entries: Vec<Entry>,
}

/// Classifies the unique granules once and assigns them to months.
fn classify_fleet(pipeline: &Pipeline, dir: &Path, nproc: usize) -> Result<Fleet, String> {
    let models = inputs::train(pipeline);
    let sources = inputs::write_fleet(pipeline, dir, UNIQUE_GRANULES, |_| 1)
        .map_err(|e| format!("fleet write: {e}"))?;
    let driver = FleetDriver::new(Cluster::new(1, nproc), &pipeline.cfg);
    let (beams, _) = driver.classify_run(&sources, &models);
    if beams.len() != 3 * UNIQUE_GRANULES {
        return Err(format!("classify_run returned {} beams", beams.len()));
    }
    let mut entries = Vec::new();
    for m in 1..=MONTHS {
        for k in 0..GRANULES_PER_MONTH {
            let g = (m as usize - 1 + k) % UNIQUE_GRANULES;
            for (b, beam) in Beam::STRONG.iter().enumerate() {
                entries.push(Entry {
                    granule_id: inputs::granule_id(m, 500 + g as u16),
                    beam_index: beam.index(),
                    product: 3 * g + b,
                    samples: 0,
                });
            }
        }
    }
    Ok(Fleet {
        products: beams.into_iter().map(|b| b.freeboard).collect(),
        entries,
    })
}

fn lease() -> LeaseOptions {
    LeaseOptions::new("perfbench")
}

struct Served {
    dir: PathBuf,
    catalog: Arc<Catalog>,
    server: CatalogServer,
    entries: usize,
    cache_tiles: usize,
    samples: usize,
}

/// The timed set-up: land every entry through a leased writer, reopen
/// the store with the workload's tile cache, warm it, and start the
/// server (workers = `nproc`).
fn build(
    dir: &Path,
    grid: GridConfig,
    fleet: &mut Fleet,
    churn: bool,
    nproc: usize,
) -> Result<Served, String> {
    let err = |what: &'static str| move |e: CatalogError| format!("{what}: {e}");
    let loader = Catalog::create_writer(
        dir,
        grid,
        CatalogOptions {
            cache_capacity: HOT_CACHE_TILES,
            ..CatalogOptions::default()
        },
        &lease(),
    )
    .map_err(err("catalog create"))?;
    for e in fleet.entries.iter_mut() {
        let r = loader
            .ingest_beam(&e.granule_id, e.beam_index, &fleet.products[e.product])
            .map_err(err("ingest"))?;
        e.samples = r.n_samples;
    }
    let stats = loader.stats().map_err(err("stats"))?;
    drop(loader);
    let cache_tiles = if churn {
        stats.n_tiles / CHURN_CACHE_DIVISOR
    } else {
        HOT_CACHE_TILES
    };
    let catalog = Arc::new(
        Catalog::open_writer(
            dir,
            CatalogOptions {
                cache_capacity: cache_tiles,
                ..CatalogOptions::default()
            },
            &lease(),
        )
        .map_err(err("catalog reopen"))?,
    );
    // Warm: the hot cache takes every entry; the churn cache reaches its
    // steady state of misses and evictions.
    catalog
        .query_time_range(TimeRange::all())
        .map_err(err("warm-up"))?;
    let server = CatalogServer::serve_with(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            workers: nproc,
            allow_writes: churn,
            idle_timeout: None,
        },
    )
    .map_err(err("serve"))?;
    Ok(Served {
        dir: dir.to_path_buf(),
        catalog,
        server,
        entries: stats.n_tiles,
        cache_tiles,
        samples: stats.n_samples,
    })
}

/// Every `(tile, layer)` entry with a tile file.
fn existing_keys(dir: &Path) -> BTreeSet<(TileId, TimeKey)> {
    let mut keys = BTreeSet::new();
    let Ok(entries) = std::fs::read_dir(dir.join("tiles")) else {
        return keys;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().to_string();
        let Some((ym, quadkey)) = name.strip_suffix(".tile").and_then(|s| s.split_once('_')) else {
            continue;
        };
        let (Some(y), Some(m)) = (ym.get(..4), ym.get(4..)) else {
            continue;
        };
        let (Ok(y), Ok(m)) = (y.parse::<u16>(), m.parse::<u8>()) else {
            continue;
        };
        if let (Ok(tile), Ok(time)) = (TileId::from_quadkey(quadkey), TimeKey::new(y, m)) {
            keys.insert((tile, time));
        }
    }
    keys
}

fn tile_path(dir: &Path, key: &(TileId, TimeKey)) -> PathBuf {
    dir.join("tiles").join(format!(
        "{:04}{:02}_{}.tile",
        key.1.year,
        key.1.month,
        key.0.quadkey()
    ))
}

// ---------------------------------------------------------------------------
// The request mixes.
// ---------------------------------------------------------------------------

/// `serve_hot`: the four quarter-domain rects, the Ross Sea bbox, and
/// the ten three-month windows, with their in-process answers; and a
/// seeded sequence over them (80% rects, 10% bbox, 10% windows).
fn hot_reads(
    grid: &GridConfig,
    reference: &Catalog,
    keys: &BTreeSet<(TileId, TimeKey)>,
    seed: u64,
) -> Result<(Vec<Read>, Vec<usize>), String> {
    let d = grid.domain();
    let c = MapPoint::new(0.5 * (d.min.x + d.max.x), 0.5 * (d.min.y + d.max.y));
    let all = TimeRange::all();
    let mut queries = vec![
        Query::Rect(MapRect::new(d.min, c), all),
        Query::Rect(
            MapRect::new(MapPoint::new(c.x, d.min.y), MapPoint::new(d.max.x, c.y)),
            all,
        ),
        Query::Rect(
            MapRect::new(MapPoint::new(d.min.x, c.y), MapPoint::new(c.x, d.max.y)),
            all,
        ),
        Query::Rect(MapRect::new(c, d.max), all),
        Query::Bbox(BoundingBox::ROSS_SEA, all),
    ];
    for m in 1..=MONTHS - 2 {
        queries.push(Query::Layers(TimeRange {
            start: month(m),
            end: month(m + 2),
        }));
    }
    let reads = finish_reads(grid, reference, keys, queries)?;
    let mut rng = Rng::new(seed ^ 0x407);
    let seq = (0..8192)
        .map(|_| match rng.unit() {
            x if x < 0.8 => rng.below(4),
            x if x < 0.9 => 4,
            _ => 5 + rng.below(MONTHS as usize - 2),
        })
        .collect();
    Ok((reads, seq))
}

/// `serve_churn`: small-area reads at seeded random populated tiles and
/// months — a point probe, a single-tile composite, or a half-tile rect
/// over one or two months. None covers a whole tile.
fn churn_reads(
    grid: &GridConfig,
    reference: &Catalog,
    keys: &BTreeSet<(TileId, TimeKey)>,
    fleet: &Fleet,
    seed: u64,
) -> Result<(Vec<Read>, Vec<usize>), String> {
    let mut rng = Rng::new(seed ^ 0xc4);
    let mut queries = Vec::with_capacity(CHURN_POOL);
    let per_month = fleet.entries.len() / MONTHS as usize;
    while queries.len() < CHURN_POOL {
        let m = 1 + rng.below(MONTHS as usize) as u8;
        let e = &fleet.entries[(m as usize - 1) * per_month + rng.below(per_month)];
        let points = &fleet.products[e.product].points;
        let p = points[rng.below(points.len())];
        let geo = GeoPoint::new(p.lat, p.lon);
        let at = EPSG_3976.forward(geo);
        let Some((tile, _)) = grid.locate(at) else {
            continue;
        };
        let q = match queries.len() % 3 {
            0 => Query::Point(geo, TimeRange::only(month(m))),
            1 => {
                let r = grid.tile_rect(tile).padded(-0.25 * grid.cell_size_m());
                Query::Cells(r, TimeRange::only(month(m)))
            }
            _ => {
                let h = 0.25 * grid.tile_size_m();
                let r = MapRect::new(
                    MapPoint::new(at.x - h, at.y - h),
                    MapPoint::new(at.x + h, at.y + h),
                );
                let time = TimeRange {
                    start: month(m),
                    end: month((m + 1).min(MONTHS)),
                };
                Query::Rect(r, time)
            }
        };
        queries.push(q);
    }
    let reads = finish_reads(grid, reference, keys, queries)?;
    let mut seq: Vec<usize> = (0..reads.len()).collect();
    rng.shuffle(&mut seq);
    Ok((reads, seq))
}

fn finish_reads(
    grid: &GridConfig,
    reference: &Catalog,
    keys: &BTreeSet<(TileId, TimeKey)>,
    queries: Vec<Query>,
) -> Result<Vec<Read>, String> {
    queries
        .into_iter()
        .map(|query| {
            let expected =
                answer_local(reference, &query).map_err(|e| format!("reference answer: {e}"))?;
            let touched = touched(grid, keys, &query);
            Ok(Read {
                query,
                expected,
                touched,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Load generation.
// ---------------------------------------------------------------------------

/// One completed op: its kind, when it completed (seconds into the
/// loop), its latency, and the samples it matched or wrote.
#[derive(Clone, Copy)]
struct Done {
    kind: usize,
    at_s: f64,
    us: f64,
    samples: u64,
}

#[derive(Default)]
struct LoopStats {
    attempted: u64,
    failed: u64,
    reads: Vec<Done>,
    writes: Vec<Done>,
    wall_s: f64,
    queue_max: i64,
}

impl LoopStats {
    fn read_us(&self) -> Vec<f64> {
        self.reads.iter().map(|d| d.us).collect()
    }

    fn write_ms(&self) -> Vec<f64> {
        self.writes.iter().map(|d| d.us / 1e3).collect()
    }

    fn matched(&self) -> u64 {
        self.reads.iter().map(|d| d.samples).sum()
    }

    fn written(&self) -> u64 {
        self.writes.iter().map(|d| d.samples).sum()
    }

    /// Reads per second, as the median over `RATE_WINDOWS` equal
    /// windows of the loop.
    fn reads_per_s(&self) -> f64 {
        report::windowed_rate(self.reads.iter().map(|d| (d.at_s, 1.0)), self.wall_s)
    }
}

/// What every load generator shares: the server's address, the read
/// mix, and the instruments it samples.
struct Ctx<'a> {
    addr: String,
    reads: &'a [Read],
    seq: &'a [usize],
    registry: MetricRegistry,
    queue_depth: Gauge,
}

impl Ctx<'_> {
    fn client(&self) -> Result<CatalogClient, String> {
        CatalogClient::connect_with(
            &self.addr,
            ClientConfig {
                registry: self.registry.clone(),
                ..ClientConfig::default()
            },
        )
        .map_err(|e| format!("connect: {e}"))
    }

    fn next_read(&self, cursor: &mut usize) -> &Read {
        let read = &self.reads[self.seq[*cursor % self.seq.len()]];
        *cursor += 1;
        read
    }
}

/// The samples a read matched, or `None` (counted as failed) unless it
/// completed with exactly the expected bits.
fn check_read(
    read: &Read,
    got: Result<Answer, CatalogError>,
    stats: &mut LoopStats,
) -> Option<u64> {
    match got {
        Ok(a) if same_bits(&a, &read.expected) => Some(a.samples()),
        Ok(_) => {
            eprintln!(
                "served answer differs from the in-process one: {:?}",
                read.query
            );
            stats.failed += 1;
            None
        }
        Err(e) => {
            eprintln!("read failed: {e}");
            stats.failed += 1;
            None
        }
    }
}

/// Records a completed read (and, traced, its client span and the
/// sampled worker-queue depth).
fn completed(
    ctx: &Ctx<'_>,
    read: &Read,
    (start, t0, done): (Instant, Instant, Instant),
    samples: u64,
    stats: &mut LoopStats,
    tracer: &mut Tracer,
) {
    let kind = read.query.kind();
    stats.reads.push(Done {
        kind,
        at_s: (done - start).as_secs_f64(),
        us: (done - t0).as_secs_f64() * 1e6,
        samples,
    });
    if tracer.enabled() {
        tracer.next_op();
        tracer.record(&format!("client.{}", READ_KINDS[kind]), t0, done);
        stats.queue_max = stats.queue_max.max(ctx.queue_depth.get());
    }
}

type Queue = VecDeque<(InFlight, usize, Instant)>;

/// `serve_hot`'s generator: one thread keeping `HOT_IN_FLIGHT` requests
/// outstanding on each connection; a read's latency runs from its submit
/// to its answer in hand.
fn hot_loop(
    ctx: &Ctx<'_>,
    conns: usize,
    budget: Duration,
    cursor: &mut usize,
    tracer: &mut Tracer,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let mut clients = (0..conns)
        .map(|_| ctx.client())
        .collect::<Result<Vec<_>, _>>()?;
    let mut queues: Vec<Queue> = (0..conns).map(|_| VecDeque::new()).collect();
    let send = |client: &mut CatalogClient,
                queue: &mut Queue,
                cursor: &mut usize,
                stats: &mut LoopStats| {
        let idx = ctx.seq[*cursor % ctx.seq.len()];
        *cursor += 1;
        stats.attempted += 1;
        let t0 = Instant::now();
        match submit(client, &ctx.reads[idx].query) {
            Ok(p) => queue.push_back((p, idx, t0)),
            Err(e) => {
                eprintln!("submit failed: {e}");
                stats.failed += 1;
            }
        }
    };
    let start = Instant::now();
    for (client, queue) in clients.iter_mut().zip(&mut queues) {
        for _ in 0..HOT_IN_FLIGHT {
            send(client, queue, cursor, &mut stats);
        }
    }
    let mut last = start;
    loop {
        let mut progressed = false;
        for (client, queue) in clients.iter_mut().zip(&mut queues) {
            let Some((p, idx, t0)) = queue.pop_front() else {
                continue;
            };
            progressed = true;
            let got = wait(client, p);
            let done = Instant::now();
            last = done;
            let read = &ctx.reads[idx];
            if let Some(samples) = check_read(read, got, &mut stats) {
                completed(ctx, read, (start, t0, done), samples, &mut stats, tracer);
            }
            if start.elapsed() < budget {
                send(client, queue, cursor, &mut stats);
            }
        }
        if !progressed {
            break;
        }
    }
    stats.wall_s = (last - start).as_secs_f64();
    Ok(stats)
}

/// `serve_churn`'s generator: a reader thread and a writer thread, one
/// connection and one request in flight each. The writer re-lands stored
/// products in `Replace` mode until the reader's budget is spent.
fn churn_loop(
    ctx: &Ctx<'_>,
    fleet: &Fleet,
    writes: &[usize],
    budget: Duration,
    cursors: &mut (usize, usize),
    tracer: &mut Tracer,
) -> Result<LoopStats, String> {
    let stop = AtomicBool::new(false);
    let mut reader_client = ctx.client()?;
    let mut writer_client = ctx.client()?;
    let mut writer_tracer = Tracer::new(tracer.enabled(), tracer.epoch());
    let mut write_cursor = cursors.1;
    let start = Instant::now();
    let (mut stats, writer) = std::thread::scope(|s| {
        let stop = &stop;
        let writer_tracer = &mut writer_tracer;
        let write_cursor = &mut write_cursor;
        let writer = s.spawn(move || {
            let mut stats = LoopStats::default();
            while !stop.load(Ordering::SeqCst) {
                let e = &fleet.entries[writes[*write_cursor % writes.len()]];
                *write_cursor += 1;
                stats.attempted += 1;
                let t0 = Instant::now();
                let got = writer_client.ingest_beam_with(
                    &e.granule_id,
                    e.beam_index,
                    &fleet.products[e.product],
                    IngestMode::Replace,
                );
                let done = Instant::now();
                // Identical products: every prior sample is replaced by
                // itself, so the report is known in advance.
                match got {
                    Ok(r) if r.n_samples == e.samples && r.n_replaced == e.samples => {
                        stats.writes.push(Done {
                            kind: 0,
                            at_s: (done - start).as_secs_f64(),
                            us: (done - t0).as_secs_f64() * 1e6,
                            samples: r.n_samples as u64,
                        });
                        writer_tracer.next_op();
                        writer_tracer.record("client.ingest_samples", t0, done);
                    }
                    Ok(r) => {
                        eprintln!(
                            "replace of {} beam {} reported {r:?}",
                            e.granule_id, e.beam_index
                        );
                        stats.failed += 1;
                    }
                    Err(err) => {
                        eprintln!("write failed: {err}");
                        stats.failed += 1;
                    }
                }
            }
            stats
        });
        let mut stats = LoopStats::default();
        while start.elapsed() < budget {
            let read = ctx.next_read(&mut cursors.0);
            stats.attempted += 1;
            let t0 = Instant::now();
            let got = answer_served(&mut reader_client, &read.query);
            let done = Instant::now();
            if let Some(samples) = check_read(read, got, &mut stats) {
                completed(ctx, read, (start, t0, done), samples, &mut stats, tracer);
            }
        }
        stats.wall_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        (stats, writer.join())
    });
    let writer = writer.map_err(|_| "writer thread panicked".to_string())?;
    cursors.1 = write_cursor;
    tracer.absorb(writer_tracer);
    stats.attempted += writer.attempted;
    stats.failed += writer.failed;
    stats.writes = writer.writes;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Per-layer probes and budget closure (traced run only).
// ---------------------------------------------------------------------------

/// Runs `f` and records it as a span named `name` under the open span;
/// returns its result and duration in µs.
fn timed<R>(t: &mut Tracer, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let s = Instant::now();
    let r = f();
    let e = Instant::now();
    t.record(name, s, e);
    (r, (e - s).as_secs_f64() * 1e6)
}

/// One read's layers, each timed in process through the layer's public
/// function.
struct Layers {
    query_us: f64,
    encode_us: f64,
    decode_us: f64,
    fold_us: f64,
    bytes: usize,
}

impl Layers {
    fn total_us(&self) -> f64 {
        self.query_us + self.encode_us + self.decode_us + self.fold_us
    }
}

/// Takes one read apart: request encode and decode, the store query on
/// the server's own catalog, response encode and decode
/// (`wire::encode_frame` / `try_extract_frame`), and the client fold.
/// Fails unless the reassembled answer equals the expected bits.
fn take_apart(catalog: &Catalog, read: &Read, t: &mut Tracer) -> Result<Layers, String> {
    let kind = read.query.kind();
    let (req, enc_req) = timed(t, "wire.encode", || {
        wire::encode_frame(&read.query.request().to_bytes(), 1, 0)
    });
    let req = req.map_err(|e| format!("request encode: {e}"))?;
    let (round_trip, dec_req) = timed(t, "wire.decode", || {
        wire::try_extract_frame(&req)
            .ok()
            .flatten()
            .and_then(|(f, _)| Request::from_bytes(&f.payload).ok())
    });
    if round_trip != Some(read.query.request()) {
        return Err("request frame does not round-trip".into());
    }
    let (records, query_us) = timed(t, &format!("store.query.{}", READ_KINDS[kind]), || {
        records_local(catalog, &read.query)
    });
    let records = records.map_err(|e| format!("probe query: {e}"))?;
    let (frames, enc_resp) = timed(t, "wire.encode", || {
        let mut buf = Vec::new();
        for r in responses(records) {
            buf.extend(wire::encode_frame(&r.to_bytes(), 1, 0)?);
        }
        Ok::<_, CatalogError>(buf)
    });
    let frames = frames.map_err(|e| format!("response encode: {e}"))?;
    let (messages, dec_resp) = timed(t, "wire.decode", || {
        let mut out = Vec::new();
        let mut at = 0usize;
        while let Ok(Some((f, used))) = wire::try_extract_frame(&frames[at..]) {
            at += used;
            out.push(Response::from_bytes(&f.payload).ok()?);
        }
        (at == frames.len()).then_some(out)
    });
    let messages = messages.ok_or("response frames do not round-trip")?;
    let (answer, fold_us) = timed(t, "store.fold", || fold(kind, messages));
    match answer {
        Some(a) if same_bits(&a, &read.expected) => Ok(Layers {
            query_us,
            encode_us: enc_req + enc_resp,
            decode_us: dec_req + dec_resp,
            fold_us,
            bytes: req.len() + frames.len(),
        }),
        _ => Err(format!("reassembled answer differs: {:?}", read.query)),
    }
}

#[derive(Default)]
struct Probe {
    count: [f64; 5],
    query_us: [f64; 5],
    encode_us: [f64; 5],
    decode_us: f64,
    fold_us: f64,
    bytes: f64,
    touched: f64,
    tile_us: Vec<f64>,
    tile_bytes: Vec<f64>,
}

/// Takes apart reads of the workload's own mix (continuing its
/// sequence) for `budget`, and decodes a few of each read's tile files.
fn probe_reads(
    ctx: &Ctx<'_>,
    served: &Served,
    budget: Duration,
    cursor: &mut usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Probe {
    let mut p = Probe::default();
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed() < budget || n < 30 {
        let read = ctx.next_read(cursor);
        n += 1;
        out.attempted += 1;
        tracer.next_op();
        let layers = tracer.span("probe.read", |t| {
            for key in read.touched.iter().take(DECODE_PROBE_TILES) {
                if let Ok(raw) = std::fs::read(tile_path(&served.dir, key)) {
                    let (tile, us) = timed(t, "tile.decode", || Tile::from_bytes(&raw));
                    if tile.is_ok() {
                        p.tile_us.push(us);
                        p.tile_bytes.push(raw.len() as f64);
                    }
                }
            }
            take_apart(&served.catalog, read, t)
        });
        match layers {
            Ok(l) => {
                let k = read.query.kind();
                p.count[k] += 1.0;
                p.query_us[k] += l.query_us;
                p.encode_us[k] += l.encode_us;
                p.decode_us += l.decode_us;
                p.fold_us += l.fold_us;
                p.bytes += l.bytes as f64;
                p.touched += read.touched.len() as f64;
            }
            Err(e) => {
                eprintln!("probe failed: {e}");
                out.failed += 1;
            }
        }
    }
    p
}

/// Budget closure: `read` served in isolation (one request in flight),
/// each time followed by its layers taken apart in process and a
/// loopback `Ping` round trip (transport and dispatch). Returns the
/// share of the mean served latency the layers' self times leave
/// unattributed, percent, and the mean ping.
fn closure(
    ctx: &Ctx<'_>,
    served: &Served,
    read: &Read,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let mut client = ctx.client()?;
    let (mut e2e, mut parts, mut pings) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget || e2e.len() < 30 {
        out.attempted += 1;
        tracer.next_op();
        let t0 = Instant::now();
        let got = answer_served(&mut client, &read.query);
        let done = Instant::now();
        tracer.record("closure.client", t0, done);
        if check_read(read, got, &mut LoopStats::default()).is_none() {
            out.failed += 1;
            continue;
        }
        let layers = tracer.span("closure.layers", |t| {
            let layers = take_apart(&served.catalog, read, t)?;
            let (pong, ping_us) = timed(t, "net.ping", || client.ping());
            pong.map_err(|e| format!("ping: {e}"))?;
            Ok::<_, String>((layers, ping_us))
        });
        match layers {
            Ok((l, ping_us)) => {
                e2e.push((done - t0).as_secs_f64() * 1e6);
                parts.push(l.total_us() + ping_us);
                pings.push(ping_us);
            }
            Err(e) => {
                eprintln!("closure probe failed: {e}");
                out.failed += 1;
            }
        }
    }
    let e2e_us = report::mean(&e2e);
    out.fact("closure_read", format!("{:?}", read.query));
    out.fact("closure_served_us", format!("{e2e_us:.1}"));
    out.fact("closure_layers_us", format!("{:.1}", report::mean(&parts)));
    Ok((
        100.0 * (e2e_us - report::mean(&parts)) / e2e_us,
        report::mean(&pings),
    ))
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// The server's instruments through `Introspect`: only exact
/// `_sum_us` / `_count` pairs and counters are read, never quantiles.
fn scrape(ctx: &Ctx<'_>) -> Result<BTreeMap<String, f64>, String> {
    let mut probe = ctx.client()?;
    let text = probe.introspect().map_err(|e| format!("introspect: {e}"))?;
    Ok(parse_exposition(&text))
}

fn delta(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, key: &str) -> f64 {
    b.get(key).copied().unwrap_or(0.0) - a.get(key).copied().unwrap_or(0.0)
}

/// `(Δ sum µs, Δ count)` of `server_request_us{kind}`.
fn server_delta(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, kind: &str) -> (f64, f64) {
    (
        delta(
            a,
            b,
            &format!("server_request_us_sum_us{{kind=\"{kind}\"}}"),
        ),
        delta(a, b, &format!("server_request_us_count{{kind=\"{kind}\"}}")),
    )
}

pub fn run(args: &Args, work: &Path, churn: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, work, churn, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(args: &Args, work: &Path, churn: bool, out: &mut Outcome) -> Result<(), String> {
    let nproc = inputs::nproc();
    let cfg = inputs::pipeline_config(args.seed);
    let grid = inputs::grid(&cfg);
    let pipeline = Pipeline::new(cfg);
    let conns = if churn { 2 } else { nproc.clamp(1, 2) };
    out.fact("nproc", nproc);
    out.fact("seed", args.seed);
    out.fact("workload", &args.workload);
    out.fact("generator_threads", if churn { 2 } else { 1 });
    out.fact("connections", conns);
    out.fact(
        "in_flight_per_connection",
        if churn { 1 } else { HOT_IN_FLIGHT },
    );
    out.fact("server_workers", nproc);

    // Inputs: classified products (not part of set-up).
    let t0 = Instant::now();
    let mut fleet = classify_fleet(&pipeline, &work.join("fleet"), nproc)?;
    out.fact("inputs_s", format!("{:.3}", t0.elapsed().as_secs_f64()));

    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = served.take() {
            old.server.shutdown();
            drop(old.catalog);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let dir = work.join(format!("catalog-{rep}"));
        let t0 = Instant::now();
        served = Some(build(&dir, grid, &mut fleet, churn, nproc)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");
    out.set("setup_s", report::median(&setup_s));
    let stats = served.catalog.stats().map_err(|e| format!("stats: {e}"))?;
    out.fact("catalog_layers", stats.n_layers);
    out.fact("catalog_entries", served.entries);
    out.fact("catalog_samples", served.samples);
    out.fact(
        "grid",
        format!(
            "level {}: {} x {} tiles of {} m, {} x {} cells each",
            grid.level,
            grid.tiles_per_side(),
            grid.tiles_per_side(),
            grid.tile_size_m(),
            grid.tile_cells,
            grid.tile_cells
        ),
    );
    out.fact(
        "tile_cache",
        format!(
            "{} tiles for a working set of {} entries",
            served.cache_tiles, served.entries
        ),
    );
    out.set(
        "disk_bytes_per_sample",
        report::dir_bytes(&served.dir) as f64 / served.samples as f64,
    );

    // Every read's one right answer, in process on the served catalog
    // before any load (for `serve_churn` this also brings its small
    // cache to the mix's steady state).
    let keys = existing_keys(&served.dir);
    let (reads, seq) = if churn {
        churn_reads(&grid, &served.catalog, &keys, &fleet, args.seed)?
    } else {
        hot_reads(&grid, &served.catalog, &keys, args.seed)?
    };
    let mut writes: Vec<usize> = (0..fleet.entries.len()).collect();
    Rng::new(args.seed ^ 0x3417e).shuffle(&mut writes);

    let ctx = Ctx {
        addr: served.server.addr().to_string(),
        reads: &reads,
        seq: &seq,
        registry: MetricRegistry::new(),
        queue_depth: served.catalog.registry().gauge("server_worker_queue_depth"),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut cursors = (0usize, 0usize);
    let mut tracer = Tracer::new(false, Instant::now());
    let run_loop = |budget: Duration, tracer: &mut Tracer, cursors: &mut (usize, usize)| {
        if churn {
            churn_loop(&ctx, &fleet, &writes, budget, cursors, tracer)
        } else {
            hot_loop(&ctx, conns, budget, &mut cursors.0, tracer)
        }
    };

    if !args.trace {
        let s = run_loop(budget, &mut tracer, &mut cursors)?;
        out.attempted += s.attempted;
        out.failed += s.failed;
        let lat = s.read_us();
        report::check_tail("op_tail_us", lat.len(), TAIL_Q);
        out.set("ops_per_s", s.reads_per_s());
        out.set("op_p50_us", report::median(&lat));
        out.set("op_tail_us", report::percentile(&lat, TAIL_Q));
        // Samples matched by reads (hot) or re-landed by writes (churn)
        // per second, median over the loop's windows.
        let moved = if churn { &s.writes } else { &s.reads };
        out.set(
            "samples_per_s",
            report::windowed_rate(moved.iter().map(|d| (d.at_s, d.samples as f64)), s.wall_s),
        );
        out.fact("peak_rss_mb", report::peak_rss_mb());
        out.fact("reads", lat.len());
        if churn {
            out.fact("writes", s.writes.len());
        }
        served.server.shutdown();
        return Ok(());
    }

    // Warm-up, then A: the untraced baseline for `trace.overhead_pct`.
    let warm = run_loop(budget.mul_f64(0.1), &mut tracer, &mut cursors)?;
    let a = run_loop(budget.mul_f64(0.3), &mut tracer, &mut cursors)?;
    // B: the same loop with client spans, the server's instrument
    // deltas, cache deltas, and the sampled worker-queue depth.
    tracer.set_enabled(true);
    let before = scrape(&ctx)?;
    let cache_before = served
        .catalog
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .cache;
    let retries = ctx.registry.counter("client_retries_total");
    let retries_before = retries.get();
    let b = run_loop(budget.mul_f64(0.3), &mut tracer, &mut cursors)?;
    let cache_after = served
        .catalog
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .cache;
    let after = scrape(&ctx)?;
    for s in [&warm, &a, &b] {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    let n_b = b.reads.len().max(1) as f64;

    let mut client_us = [0.0f64; 5];
    let mut client_n = [0.0f64; 5];
    for d in &b.reads {
        client_us[d.kind] += d.us;
        client_n[d.kind] += 1.0;
    }
    let mut server_us = [0.0f64; 5];
    let mut server_total = 0.0;
    for (k, kind) in READ_KINDS.iter().enumerate() {
        let (sum, count) = server_delta(&before, &after, kind);
        if client_n[k] > 0.0 {
            out.set(
                &format!("client.request_us.{kind}"),
                client_us[k] / client_n[k],
            );
        }
        if count > 0.0 {
            server_us[k] = sum / count;
            out.set(&format!("server.request_us.{kind}"), server_us[k]);
        }
        server_total += sum;
    }
    out.set(
        "net_client_us",
        (client_us.iter().sum::<f64>() - server_total) / n_b,
    );
    out.set("server.queue_depth_max", b.queue_max as f64);
    let hits = (cache_after.hits - cache_before.hits) as f64;
    let misses = (cache_after.misses - cache_before.misses) as f64;
    if hits + misses > 0.0 {
        out.set("cache.hit_ratio", hits / (hits + misses));
    }
    out.set("cache.misses", misses / n_b);
    out.set(
        "cache.evictions",
        (cache_after.evictions - cache_before.evictions) as f64 / n_b,
    );
    out.set(
        "client.retries",
        (retries.get() - retries_before) as f64 / n_b,
    );
    out.set(
        "server.errors",
        delta(&before, &after, "server_errors_total") / n_b,
    );
    out.set("store.samples_matched", b.matched() as f64 / n_b);
    if churn {
        let writes_n = b.writes.len().max(1) as f64;
        out.set("write.p50_ms", report::median(&b.write_ms()));
        out.set("write.p90_ms", report::percentile(&b.write_ms(), 0.9));
        out.set("store.samples_ingested", b.written() as f64 / writes_n);
        let (sum, count) = server_delta(&before, &after, "ingest_samples");
        if count > 0.0 {
            out.set("server.request_us.ingest_samples", sum / count);
        }
        for stage in ["project", "merge", "persist", "ledger"] {
            let key = format!("ingest_stage_us_sum_us{{stage=\"{stage}\"}}");
            out.set(
                &format!("store.ingest.{stage}_ms"),
                delta(&before, &after, &key) / 1e3 / writes_n,
            );
        }
    }
    out.set(
        "trace.overhead_pct",
        100.0 * (a.reads_per_s() / b.reads_per_s() - 1.0),
    );

    // C: the mix taken apart layer by layer.
    let probe = probe_reads(
        &ctx,
        &served,
        budget.mul_f64(0.15),
        &mut cursors.0,
        &mut tracer,
        out,
    );
    let mut wait_us = 0.0;
    for (k, kind) in READ_KINDS.iter().enumerate() {
        if probe.count[k] > 0.0 {
            let query = probe.query_us[k] / probe.count[k];
            let encode = probe.encode_us[k] / probe.count[k];
            out.set(&format!("store.query_us.{kind}"), query);
            wait_us += client_n[k] / n_b * (server_us[k] - query - encode);
        }
    }
    let n_p = probe.count.iter().sum::<f64>().max(1.0);
    out.set("server.wait_us", wait_us);
    out.set("store.fold_us", probe.fold_us / n_p);
    out.set("wire.encode_us", probe.encode_us.iter().sum::<f64>() / n_p);
    out.set("wire.decode_us", probe.decode_us / n_p);
    out.set("wire.bytes_per_read", probe.bytes / n_p);
    out.set("store.tiles_touched", probe.touched / n_p);
    out.set("tile.decode_us", report::mean(&probe.tile_us));
    out.set("tile.bytes", report::mean(&probe.tile_bytes));

    // D: budget closure for the mix's first rect read.
    let closure_read = reads
        .iter()
        .find(|r| matches!(r.query, Query::Rect(..)))
        .ok_or("no rect read in the mix")?;
    let (unattributed, ping_us) = closure(
        &ctx,
        &served,
        closure_read,
        budget.mul_f64(0.15),
        &mut tracer,
        out,
    )?;
    out.set("budget.unattributed_pct", unattributed);
    out.set("net.ping_us", ping_us);
    out.fact("untraced_reads", a.reads.len());
    out.fact("traced_reads", b.reads.len());
    out.fact("probed_reads", n_p);
    served.server.shutdown();
    tracer
        .write_jsonl(
            &crate::trace_path(args),
            &format!(
                "{{\"workload\":\"{}\",\"seed\":{}}}",
                args.workload, args.seed
            ),
        )
        .map_err(|e| format!("trace write: {e}"))?;
    Ok(())
}
