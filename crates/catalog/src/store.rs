//! The catalog store: sharded ingest, persisted tiles, and the
//! concurrent query engine.
//!
//! ## Ownership rules
//!
//! - Every tile key hashes (stably) to one **shard**; a shard's mutex
//!   serialises the read-modify-write ingest cycle for the keys it owns.
//!   Concurrent ingest calls into different shards proceed in parallel.
//! - Readers never take shard locks. They see tiles as immutable
//!   `Arc<Tile>` snapshots through the lock-striped LRU cache
//!   ([`crate::cache::TileCache`]), falling back to the on-disk artifact
//!   on a miss. Tile files are replaced atomically (write-temp + rename),
//!   so a reader observes a complete old or complete new tile, never a
//!   torn one.
//! - A racing reader that loads a just-superseded tile from disk cannot
//!   clobber the cache: inserts are version-guarded.
//!
//! Under these rules a query observes each tile at some merge version
//! that only moves forward — per-tile snapshot consistency, with
//! catalog-wide sample counts monotone across successive queries while
//! ingest is merge-only (the default [`IngestMode::Skip`]; a `Replace`
//! legitimately shrinks totals when the new product carries fewer
//! samples). The concurrent stress test (`tests/concurrent_stress.rs`)
//! pins both properties, plus ingest-order bit-invariance of query
//! results.
//!
//! Ingest is **idempotent**: every tile carries a ledger of the source
//! ids it holds, a per-layer sidecar ledger records completed ingests,
//! and [`IngestMode`] decides whether a re-ingested source is skipped
//! (byte-stable no-op, the default) or replaced (prior samples removed
//! first) — fleet re-runs refresh a catalog instead of doubling it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use icesat_atl03::Beam;
use icesat_geo::{BoundingBox, GeoPoint, MapPoint, EPSG_3976};
use rayon::prelude::*;
use seaice::artifact::Artifact;
use seaice::fleet::BeamProducts;
use seaice::freeboard::FreeboardProduct;
use seaice::stages::TrainedModels;
use seaice::FleetDriver;
use seaice_obs::{Counter, Histogram, MetricRegistry};
use seaice_products::{BeamThickness, SnowDepthModel, ThicknessRetrieval};
use sparklite::StageReport;

use crate::cache::{CacheStats, TileCache, TileKey};
use crate::grid::{GridConfig, MapRect, TileId, TileScope, TimeKey, TimeRange};
use crate::tile::{CatalogManifest, CellAggregate, LayerLedger, LayerPartial, SampleRecord, Tile};
use crate::wire::{Records, Request};
use crate::CatalogError;
use seaice::artifact::{ArtifactError, Codec, Reader, Writer};

/// Authoritative latest persisted state of one tile, kept in the index
/// so version floors and catalog-wide counters never need tile decodes.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Latest persisted merge version.
    version: u64,
    /// Samples in that version.
    n_samples: u64,
    /// Thickness-bearing samples in that version.
    n_thickness: u64,
}

/// What one per-tile merge cycle did (summed into the ingest report).
#[derive(Debug, Clone, Copy, Default)]
struct MergeOutcome {
    written: usize,
    skipped: usize,
    replaced: usize,
}

/// Concurrency/caching knobs (the grid itself lives in [`GridConfig`]
/// and is persisted; these are per-process).
#[derive(Debug, Clone)]
pub struct CatalogOptions {
    /// Ingest shards (write-lock stripes over tile ownership).
    pub shards: usize,
    /// Tiles held by the read cache.
    pub cache_capacity: usize,
    /// Lock stripes of the read cache.
    pub cache_stripes: usize,
    /// Fault-injection plan ([`crate::fault::FaultPlan`]) threaded into
    /// the persist path; `None` (the default) keeps every hook a no-op
    /// branch on an absent option. Scripted crash actions make the
    /// hooked operation return [`CatalogError::FaultInjected`] mid
    /// flight — test harness only.
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
    /// Metric registry the catalog records into. The default is a fresh
    /// registry private to this catalog; pass a shared clone to merge
    /// several components' metrics into one scrape (the served path does
    /// this: [`crate::server::CatalogServer`] registers its request
    /// counters and latency histograms into the catalog's registry).
    pub registry: MetricRegistry,
}

impl Default for CatalogOptions {
    fn default() -> Self {
        CatalogOptions {
            shards: 16,
            cache_capacity: 256,
            cache_stripes: 8,
            fault: None,
            registry: MetricRegistry::new(),
        }
    }
}

/// Pre-registered handles for the store's hot-path metrics, resolved
/// once at open so recording on the ingest path never touches the
/// registry's name map (a handle is a couple of `Arc`'d atomics).
struct StoreMetrics {
    ingest_calls: Counter,
    ingest_samples: Counter,
    ingest_skipped: Counter,
    stage_project_us: Histogram,
    stage_merge_us: Histogram,
    stage_persist_us: Histogram,
    stage_ledger_us: Histogram,
}

impl StoreMetrics {
    fn new(registry: &MetricRegistry) -> StoreMetrics {
        let stage = |s| registry.histogram_with("ingest_stage_us", &[("stage", s)]);
        StoreMetrics {
            ingest_calls: registry.counter("ingest_calls_total"),
            ingest_samples: registry.counter("ingest_samples_total"),
            ingest_skipped: registry.counter("ingest_samples_skipped_total"),
            stage_project_us: stage("project"),
            stage_merge_us: stage("merge"),
            stage_persist_us: stage("persist"),
            stage_ledger_us: stage("ledger"),
        }
    }
}

/// How an ingest call treats a source (`(granule, beam)`) the catalog
/// has seen before. Sources are identified by their stable id
/// ([`SampleRecord::source_id`]); both modes trust that id as content
/// identity — re-ingesting *different* data under the same granule and
/// beam is a [`IngestMode::Replace`] refresh, never a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// A source already ingested is left untouched — the re-run is a
    /// byte-stable no-op (tiles are not rewritten, versions do not
    /// move). The default: fleet re-runs cannot corrupt a catalog.
    #[default]
    Skip,
    /// A source's prior samples are removed (from every tile of the
    /// layer that holds them, including tiles the new product no longer
    /// reaches) before the new ones merge — re-ingest converges to the
    /// same queryable state as a fresh build from the new products.
    Replace,
}

/// What one ingest call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Samples written into tiles.
    pub n_samples: usize,
    /// Samples rejected because they fall outside the grid domain.
    pub n_out_of_domain: usize,
    /// Samples not written because their source was already ingested
    /// ([`IngestMode::Skip`]). When the per-layer ledger short-circuits
    /// the whole call, this counts the product's points (the
    /// out-of-domain split is unknown without projecting).
    pub n_skipped: usize,
    /// Prior samples removed before merging ([`IngestMode::Replace`]).
    pub n_replaced: usize,
    /// Distinct tiles written by this call.
    pub n_tiles: usize,
    /// Distinct temporal layers touched by this call.
    pub n_layers: usize,
}

impl IngestReport {
    /// Folds another report in. Sample-level dedup across calls is the
    /// store's job ([`IngestMode`]) and is already reflected in each
    /// report's counters; only `n_tiles`/`n_layers` remain per-call
    /// counts that add without deduplication.
    pub fn absorb(&mut self, other: &IngestReport) {
        self.n_samples += other.n_samples;
        self.n_out_of_domain += other.n_out_of_domain;
        self.n_skipped += other.n_skipped;
        self.n_replaced += other.n_replaced;
        self.n_tiles += other.n_tiles;
        self.n_layers += other.n_layers;
    }
}

/// Deterministic summary of the samples matched by a query.
///
/// All floating-point reductions run in the fixed order of the
/// [`TilePartial`] fold (samples canonical within a layer, layers
/// chronological within a tile, tiles by id), so two catalogs holding
/// the same products return bit-identical summaries regardless of
/// ingest order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySummary {
    /// Samples matched.
    pub n_samples: usize,
    /// Matched samples per surface class.
    pub class_counts: [usize; 3],
    /// Matched ice (thick + thin) samples.
    pub n_ice: usize,
    /// Mean ice freeboard, metres (0 when no ice matched).
    pub mean_ice_freeboard_m: f64,
    /// Minimum freeboard over matched samples (0 when none matched).
    pub min_freeboard_m: f64,
    /// Maximum freeboard over matched samples (0 when none matched).
    pub max_freeboard_m: f64,
    /// Distinct spatial tiles that contributed at least one matched
    /// sample (a tile populated in several temporal layers counts once).
    pub n_tiles: usize,
    /// Distinct grid cells that contributed at least one matched sample
    /// (deduplicated across temporal layers, like `n_tiles`).
    pub n_cells: usize,
    /// Matched thickness-bearing samples (`thickness_sigma_m > 0`;
    /// freeboard-only samples and open water never bear thickness).
    pub n_thickness: usize,
    /// Unweighted mean thickness over bearing samples, metres (0 when
    /// none matched).
    pub mean_thickness_m: f64,
    /// Inverse-variance-weighted mean thickness over bearing samples,
    /// metres (0 when none matched).
    pub ivw_mean_thickness_m: f64,
    /// Combined 1-sigma of the IVW mean, `sqrt(1 / Σ wᵢ)` with
    /// `wᵢ = 1/σᵢ²`, metres (0 when no bearing samples matched).
    pub thickness_sigma_m: f64,
}

/// Per-tile partial reduction of a summary query — the unit the serve
/// path ships and merges.
///
/// A [`QuerySummary`] is defined as a deterministic three-level fold
/// (`docs/PROTOCOL.md` §3.4):
///
/// 1. each temporal layer of a tile reduces its matched samples, in
///    canonical order, into layer moments starting from zero;
/// 2. the tile's layer moments add in chronological order into one
///    `TilePartial`, whose `n_cells` counts the union of the layers'
///    matched cells;
/// 3. the partials — sorted by tile id — fold left-to-right into the
///    summary ([`QuerySummary::from_partials`]).
///
/// Level 1 is what lets the engine cache a whole-layer partial with
/// every tile and scan only the layers a query region cuts through.
/// Levels 1–2 run only on the server that owns the tile; level 3 is the
/// *same code* locally and in the client-side shard router, so a query
/// fanned out over shard servers that partition the tiles returns
/// bit-identical results to the single-process answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilePartial {
    /// The tile this partial reduces.
    pub tile: TileId,
    /// Matched samples in the tile (always > 0 — empty tiles emit no
    /// partial).
    pub n_samples: u64,
    /// Matched samples per surface class.
    pub class_counts: [u64; 3],
    /// Matched ice (thick + thin) samples.
    pub n_ice: u64,
    /// Sum of matched ice freeboard, metres: per-layer sums over
    /// canonically ordered samples, added chronologically — the
    /// reduction order contract.
    pub ice_sum_m: f64,
    /// Minimum freeboard over matched samples.
    pub min_freeboard_m: f64,
    /// Maximum freeboard over matched samples.
    pub max_freeboard_m: f64,
    /// Distinct grid cells with at least one matched sample
    /// (deduplicated across the tile's temporal layers).
    pub n_cells: u64,
    /// Matched thickness-bearing samples.
    pub t_n: u64,
    /// Sum of matched bearing thickness, metres (same reduction order
    /// as `ice_sum_m`).
    pub t_sum_m: f64,
    /// Sum of inverse-variance weights `1/σᵢ²` over bearing samples.
    pub t_w_sum: f64,
    /// Inverse-variance-weighted thickness sum `Σ Tᵢ/σᵢ²`.
    pub t_wt_sum: f64,
}

impl TilePartial {
    /// The partial of `tile` matching nothing — where each level of
    /// the fold starts.
    pub(crate) fn empty(tile: TileId) -> TilePartial {
        TilePartial {
            tile,
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
        }
    }

    /// Adds the next layer's moments (level 2 of the fold: layers in
    /// chronological order). `n_cells` is left to the caller, which
    /// unions the layers' cell bitmaps.
    fn absorb(&mut self, layer: &TilePartial) {
        self.n_samples += layer.n_samples;
        for (mine, theirs) in self.class_counts.iter_mut().zip(&layer.class_counts) {
            *mine += *theirs;
        }
        self.n_ice += layer.n_ice;
        self.ice_sum_m += layer.ice_sum_m;
        self.min_freeboard_m = self.min_freeboard_m.min(layer.min_freeboard_m);
        self.max_freeboard_m = self.max_freeboard_m.max(layer.max_freeboard_m);
        self.t_n += layer.t_n;
        self.t_sum_m += layer.t_sum_m;
        self.t_w_sum += layer.t_w_sum;
        self.t_wt_sum += layer.t_wt_sum;
    }
}

impl Codec for TilePartial {
    fn encode(&self, w: &mut Writer) {
        self.tile.encode(w);
        w.put_u64(self.n_samples);
        self.class_counts.encode(w);
        w.put_u64(self.n_ice);
        w.put_f64(self.ice_sum_m);
        w.put_f64(self.min_freeboard_m);
        w.put_f64(self.max_freeboard_m);
        w.put_u64(self.n_cells);
        w.put_u64(self.t_n);
        w.put_f64(self.t_sum_m);
        w.put_f64(self.t_w_sum);
        w.put_f64(self.t_wt_sum);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(TilePartial {
            tile: TileId::decode(r)?,
            n_samples: r.take_u64()?,
            class_counts: <[u64; 3]>::decode(r)?,
            n_ice: r.take_u64()?,
            ice_sum_m: r.take_f64()?,
            min_freeboard_m: r.take_f64()?,
            max_freeboard_m: r.take_f64()?,
            n_cells: r.take_u64()?,
            t_n: r.take_u64()?,
            t_sum_m: r.take_f64()?,
            t_w_sum: r.take_f64()?,
            t_wt_sum: r.take_f64()?,
        })
    }
}

impl QuerySummary {
    /// Folds per-tile partials into the summary they define.
    ///
    /// The partials are sorted by tile id first, so any partition of the
    /// tiles (local, one server, many shards) folds in the same order
    /// and produces the same bits. Partials must cover disjoint tiles —
    /// the shard router enforces that via scope disjointness.
    pub fn from_partials(mut partials: Vec<TilePartial>) -> QuerySummary {
        partials.sort_unstable_by_key(|p| p.tile);
        let mut s = QuerySummary {
            n_samples: 0,
            class_counts: [0; 3],
            n_ice: 0,
            mean_ice_freeboard_m: 0.0,
            min_freeboard_m: f64::INFINITY,
            max_freeboard_m: f64::NEG_INFINITY,
            n_tiles: partials.len(),
            n_cells: 0,
            n_thickness: 0,
            mean_thickness_m: 0.0,
            ivw_mean_thickness_m: 0.0,
            thickness_sigma_m: 0.0,
        };
        let mut ice_sum = 0.0f64;
        let mut t_sum = 0.0f64;
        let mut t_w = 0.0f64;
        let mut t_wt = 0.0f64;
        for p in &partials {
            s.n_samples += p.n_samples as usize;
            for (mine, theirs) in s.class_counts.iter_mut().zip(&p.class_counts) {
                *mine += *theirs as usize;
            }
            s.n_ice += p.n_ice as usize;
            ice_sum += p.ice_sum_m;
            s.min_freeboard_m = s.min_freeboard_m.min(p.min_freeboard_m);
            s.max_freeboard_m = s.max_freeboard_m.max(p.max_freeboard_m);
            s.n_cells += p.n_cells as usize;
            s.n_thickness += p.t_n as usize;
            t_sum += p.t_sum_m;
            t_w += p.t_w_sum;
            t_wt += p.t_wt_sum;
        }
        if s.n_ice > 0 {
            s.mean_ice_freeboard_m = ice_sum / s.n_ice as f64;
        }
        if s.n_thickness > 0 {
            s.mean_thickness_m = t_sum / s.n_thickness as f64;
            s.ivw_mean_thickness_m = t_wt / t_w;
            s.thickness_sigma_m = (1.0 / t_w).sqrt();
        }
        if s.n_samples == 0 {
            s.min_freeboard_m = 0.0;
            s.max_freeboard_m = 0.0;
        }
        s
    }

    /// Internal-consistency invariants every reader snapshot must
    /// satisfy (asserted by the concurrent stress test).
    pub fn check_consistency(&self) -> Result<(), &'static str> {
        if self.class_counts.iter().sum::<usize>() != self.n_samples {
            return Err("class counts do not sum to sample count");
        }
        if self.class_counts[0] + self.class_counts[1] != self.n_ice {
            return Err("ice count inconsistent with class counts");
        }
        if self.n_samples > 0 {
            if self.min_freeboard_m > self.max_freeboard_m {
                return Err("min freeboard above max");
            }
            if self.n_ice > 0
                && (self.mean_ice_freeboard_m < self.min_freeboard_m
                    || self.mean_ice_freeboard_m > self.max_freeboard_m)
            {
                return Err("mean ice freeboard outside [min, max]");
            }
        }
        if self.n_cells > self.n_samples || self.n_tiles > self.n_cells.max(1) {
            return Err("cell/tile counts exceed samples");
        }
        if self.n_thickness > self.n_ice {
            return Err("more thickness-bearing samples than ice samples");
        }
        if self.n_thickness > 0
            && self.thickness_sigma_m.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            return Err("bearing samples require a positive combined sigma");
        }
        if self.n_thickness == 0
            && (self.mean_thickness_m != 0.0
                || self.ivw_mean_thickness_m != 0.0
                || self.thickness_sigma_m != 0.0)
        {
            return Err("thickness stats must be zero without bearing samples");
        }
        Ok(())
    }
}

/// One aggregated grid cell of a composite (the gridded product row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Owning tile.
    pub tile: TileId,
    /// Row-major cell index within the tile.
    pub cell: u32,
    /// Cell centre, EPSG-3976 metres.
    pub center: MapPoint,
    /// Aggregates over the queried time range (chronological merge).
    pub agg: CellAggregate,
}

/// Catalog-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CatalogStats {
    /// Temporal layers present.
    pub n_layers: usize,
    /// Tiles present.
    pub n_tiles: usize,
    /// Total samples stored.
    pub n_samples: usize,
    /// Thickness-bearing samples stored (0 until a thickness product
    /// is ingested).
    pub n_thickness: usize,
    /// Read-cache counters.
    pub cache: CacheStats,
}

/// The tiled, versioned, concurrently readable sea-ice product store.
///
/// **Write ownership.** Writers within one instance serialise through
/// per-shard locks and the authoritative version index; *across*
/// instances and processes, write ownership is coordinated by the
/// [`crate::lease`] writer-lease protocol (owner id + heartbeat mtime +
/// stale-lease takeover; specified in `docs/PROTOCOL.md` §4). Use
/// [`Catalog::create_writer`] / [`Catalog::open_writer`] to acquire the
/// directory's lease — exactly one leased writer exists at a time, a
/// losing contender gets the typed [`CatalogError::LeaseHeld`] error,
/// and a crashed writer's lease is taken over after its ttl without
/// corrupting the store (tile replacement is atomic and the version
/// index is rebuilt from tile headers on open). The unleased
/// [`Catalog::create`] / [`Catalog::open`] constructors remain for
/// read-only instances and single-process embedded use, where the
/// caller owns the no-second-writer guarantee. Any number of threads
/// may share one instance (`&Catalog` is `Sync`).
///
/// ```
/// use seaice_catalog::{Catalog, GridConfig, TimeRange};
/// use icesat_geo::MapPoint;
///
/// let dir = std::env::temp_dir().join(format!("catalog_doc_{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let grid = GridConfig::around(MapPoint::new(0.0, -1_000_000.0), 50_000.0);
/// let catalog = Catalog::create(&dir, grid).unwrap();
/// let whole = catalog
///     .query_rect(&catalog.grid().domain(), TimeRange::all())
///     .unwrap();
/// assert_eq!(whole.n_samples, 0); // empty store, well-defined answer
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
pub struct Catalog {
    grid: GridConfig,
    dir: PathBuf,
    tiles_dir: PathBuf,
    ledgers_dir: PathBuf,
    /// Authoritative map of every persisted tile to its latest merge
    /// version and size (time-major key order). Writers bump entries
    /// under their shard lock after the atomic file rename, so an index
    /// read establishes a floor no subsequent tile observation may fall
    /// below — the guard that makes stale cache resurrection harmless.
    index: RwLock<BTreeMap<TileKey, IndexEntry>>,
    /// Per-layer completed-source sets, mirroring the on-disk sidecar
    /// ledgers (`ledgers/YYYYMM.ledger`) — the [`IngestMode::Skip`]
    /// fast path. Entries are only ever added, and only after every
    /// tile merge of the recording ingest succeeded.
    layer_sources: RwLock<BTreeMap<TimeKey, BTreeSet<u64>>>,
    cache: TileCache,
    shard_locks: Vec<Mutex<()>>,
    /// The writer lease, when this instance was opened as a leased
    /// writer. Heartbeaten on ingest; released on drop.
    lease: Option<crate::lease::WriterLease>,
    /// Fault-injection plan from [`CatalogOptions::fault`]; `None` in
    /// production.
    fault: Option<Arc<crate::fault::FaultPlan>>,
    /// Metric registry from [`CatalogOptions::registry`] — shared with
    /// the server/clients when they are handed a clone.
    registry: MetricRegistry,
    /// Hot-path metric handles, pre-registered at open.
    metrics: StoreMetrics,
}

impl Catalog {
    /// Creates (or idempotently re-opens) a catalog at `dir` with the
    /// default options.
    pub fn create(dir: &Path, grid: GridConfig) -> Result<Catalog, CatalogError> {
        Catalog::create_with(dir, grid, CatalogOptions::default())
    }

    /// Creates a catalog at `dir`. If a manifest already exists its grid
    /// must match `grid` exactly (tile addresses are grid-relative).
    pub fn create_with(
        dir: &Path,
        grid: GridConfig,
        options: CatalogOptions,
    ) -> Result<Catalog, CatalogError> {
        std::fs::create_dir_all(dir.join("tiles"))?;
        let manifest_path = dir.join("catalog.manifest");
        if manifest_path.exists() {
            let manifest = CatalogManifest::load(&manifest_path)?;
            if manifest.grid != grid {
                return Err(CatalogError::GridMismatch);
            }
        } else {
            CatalogManifest { grid }.save(&manifest_path)?;
        }
        Catalog::assemble(dir, grid, options)
    }

    /// [`Catalog::create_with`], acquiring the directory's writer lease
    /// first. Fails with [`CatalogError::LeaseHeld`] while another
    /// writer's lease is fresh; takes over a stale one.
    pub fn create_writer(
        dir: &Path,
        grid: GridConfig,
        options: CatalogOptions,
        lease: &crate::lease::LeaseOptions,
    ) -> Result<Catalog, CatalogError> {
        let mut held = crate::lease::WriterLease::acquire(dir, lease)?;
        let mut catalog = Catalog::create_with(dir, grid, options)?;
        held.attach_metrics(catalog.registry());
        catalog.lease = Some(held);
        Ok(catalog)
    }

    /// Opens an existing catalog, taking the grid from its manifest.
    pub fn open(dir: &Path) -> Result<Catalog, CatalogError> {
        Catalog::open_with(dir, CatalogOptions::default())
    }

    /// [`Catalog::open`] with explicit options.
    pub fn open_with(dir: &Path, options: CatalogOptions) -> Result<Catalog, CatalogError> {
        let manifest = CatalogManifest::load(&dir.join("catalog.manifest"))?;
        Catalog::assemble(dir, manifest.grid, options)
    }

    /// [`Catalog::open_with`], acquiring the directory's writer lease
    /// first (see [`Catalog::create_writer`]).
    pub fn open_writer(
        dir: &Path,
        options: CatalogOptions,
        lease: &crate::lease::LeaseOptions,
    ) -> Result<Catalog, CatalogError> {
        let mut held = crate::lease::WriterLease::acquire(dir, lease)?;
        let mut catalog = Catalog::open_with(dir, options)?;
        held.attach_metrics(catalog.registry());
        catalog.lease = Some(held);
        Ok(catalog)
    }

    fn assemble(
        dir: &Path,
        grid: GridConfig,
        options: CatalogOptions,
    ) -> Result<Catalog, CatalogError> {
        let tiles_dir = dir.join("tiles");
        let mut index = BTreeMap::new();
        for entry in std::fs::read_dir(&tiles_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(key) = parse_tile_filename(&name) {
                let header = Tile::peek(&entry.path())?;
                if header.id != key.tile || header.time != key.time {
                    return Err(CatalogError::Corrupt("tile file key mismatch"));
                }
                index.insert(
                    key,
                    IndexEntry {
                        version: header.version,
                        n_samples: header.n_samples,
                        n_thickness: header.n_thickness,
                    },
                );
            }
        }
        // Sidecar ledgers are a cache, not ground truth: a missing
        // directory, an unreadable file, or a key mismatch only costs
        // the skip fast path (the per-tile ledgers remain
        // authoritative), so none of them fails the open.
        let ledgers_dir = dir.join("ledgers");
        let mut layer_sources: BTreeMap<TimeKey, BTreeSet<u64>> = BTreeMap::new();
        if ledgers_dir.is_dir() {
            for entry in std::fs::read_dir(&ledgers_dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(time) = parse_ledger_filename(&name) {
                    match LayerLedger::load(&entry.path()) {
                        Ok(ledger) if ledger.time == time => {
                            layer_sources.insert(time, ledger.sources.into_iter().collect());
                        }
                        // Corrupt or mismatched sidecar: ignore it; the
                        // next completed ingest rewrites it atomically.
                        Ok(_) | Err(_) => {}
                    }
                }
            }
        }
        let metrics = StoreMetrics::new(&options.registry);
        Ok(Catalog {
            grid,
            dir: dir.to_path_buf(),
            tiles_dir,
            ledgers_dir,
            index: RwLock::new(index),
            layer_sources: RwLock::new(layer_sources),
            cache: TileCache::new(options.cache_capacity, options.cache_stripes),
            shard_locks: (0..options.shards.max(1)).map(|_| Mutex::new(())).collect(),
            lease: None,
            fault: options.fault,
            registry: options.registry,
            metrics,
        })
    }

    /// Consults the injected fault plan (if any) at a persist-path site.
    /// Latency actions sleep in place; a scripted crash abandons the
    /// operation by returning [`CatalogError::FaultInjected`], modelling
    /// a process death at exactly that point. Socket-only actions
    /// (refuse/truncate/corrupt) are meaningless here and pass through.
    fn fault_hook(&self, site: &'static str) -> Result<(), CatalogError> {
        use crate::fault::FaultAction;
        let Some(plan) = &self.fault else {
            return Ok(());
        };
        match plan.next(site) {
            FaultAction::DelayMs(ms) | FaultAction::StallMs(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            FaultAction::Crash => Err(CatalogError::FaultInjected(site)),
            FaultAction::None
            | FaultAction::Refuse
            | FaultAction::Truncate(_)
            | FaultAction::Corrupt(_) => Ok(()),
        }
    }

    /// The writer-lease record this instance holds, if it was opened as
    /// a leased writer.
    pub fn lease(&self) -> Option<&crate::lease::LeaseRecord> {
        self.lease.as_ref().map(|l| l.record())
    }

    /// The metric registry this catalog records into (see
    /// [`CatalogOptions::registry`]). The served path shares it: a
    /// [`crate::server::CatalogServer`] clones this registry so one
    /// `Introspect` scrape covers serving, cache, ingest, and lease
    /// metrics together.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Full observability snapshot as sorted Prometheus-style text: the
    /// registry's exposition plus store-derived lines computed at scrape
    /// time — tile-cache hit/miss/eviction counters and index-level
    /// totals. Parse with [`seaice_obs::parse_exposition`]. The counter
    /// lines are monotone non-decreasing across successive scrapes (the
    /// cache counters are monotone atomics; `store_tiles` /
    /// `store_samples` are gauges that can shrink under
    /// [`IngestMode::Replace`]).
    pub fn expose(&self) -> String {
        let text = self.registry.expose();
        let mut lines: Vec<&str> = text.lines().collect();
        let cache = self.cache.stats();
        let index = self.index.read().unwrap_or_else(|e| e.into_inner());
        let n_tiles = index.len();
        let n_samples: u64 = index.values().map(|e| e.n_samples).sum();
        drop(index);
        let derived = [
            format!("store_samples {n_samples}"),
            format!("store_tiles {n_tiles}"),
            format!("tile_cache_evictions_total {}", cache.evictions),
            format!("tile_cache_hits_total {}", cache.hits),
            format!("tile_cache_misses_total {}", cache.misses),
        ];
        for line in &derived {
            lines.push(line);
        }
        lines.sort_unstable();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The grid tiles are addressed with.
    pub fn grid(&self) -> &GridConfig {
        &self.grid
    }

    /// The catalog's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Temporal layers present, chronological.
    pub fn layers(&self) -> Vec<TimeKey> {
        let index = self.index.read().unwrap_or_else(|e| e.into_inner());
        let mut layers: Vec<TimeKey> = index.keys().map(|k| k.time).collect();
        layers.dedup();
        layers
    }

    // -- Ingest --------------------------------------------------------

    /// Ingests one beam's freeboard product under an ATL03-style granule
    /// id (its leading `YYYYMM` selects the temporal layer), in the
    /// default [`IngestMode::Skip`] — re-ingesting a `(granule, beam)`
    /// the catalog already holds is an idempotent, byte-stable no-op.
    /// Projection of every point through EPSG-3976 runs rayon-parallel;
    /// the per-tile merges run one after another on the calling thread.
    pub fn ingest_beam(
        &self,
        granule_id: &str,
        beam_index: usize,
        product: &FreeboardProduct,
    ) -> Result<IngestReport, CatalogError> {
        self.ingest_beam_with(granule_id, beam_index, product, IngestMode::Skip)
    }

    /// [`Catalog::ingest_beam`] with an explicit re-ingest policy.
    ///
    /// Samples land without thickness (`thickness_m = thickness_sigma_m
    /// = 0`); use [`Catalog::ingest_thickness_beam_with`] to land a
    /// thickness-enriched product under the same source identity.
    pub fn ingest_beam_with(
        &self,
        granule_id: &str,
        beam_index: usize,
        product: &FreeboardProduct,
        mode: IngestMode,
    ) -> Result<IngestReport, CatalogError> {
        let grid = self.grid;
        let points = &product.points;
        self.ingest_source(granule_id, beam_index, points.len(), mode, |i, source| {
            let p = points[i];
            let m = EPSG_3976.forward(GeoPoint::new(p.lat, p.lon));
            grid.locate(m).map(|(tile, cell)| {
                (
                    tile,
                    SampleRecord {
                        source,
                        along_track_m: p.along_track_m,
                        lat: p.lat,
                        lon: p.lon,
                        x_m: m.x,
                        y_m: m.y,
                        freeboard_m: p.freeboard_m,
                        class: p.class,
                        cell,
                        thickness_m: 0.0,
                        thickness_sigma_m: 0.0,
                    },
                )
            })
        })
    }

    /// Ingests one beam's thickness-enriched product
    /// ([`BeamThickness`], from [`seaice_products::enrich_fleet`]) in
    /// the default [`IngestMode::Skip`]. The source identity is the
    /// same `(granule, beam)` id the plain freeboard ingest uses, so a
    /// catalog already holding the freeboard-only samples skips the
    /// enriched ones — re-land them with
    /// [`Catalog::ingest_thickness_beam_with`] and
    /// [`IngestMode::Replace`], which upgrades the source in place.
    pub fn ingest_thickness_beam(
        &self,
        beam: &BeamThickness,
    ) -> Result<IngestReport, CatalogError> {
        self.ingest_thickness_beam_with(beam, IngestMode::Skip)
    }

    /// [`Catalog::ingest_thickness_beam`] with an explicit re-ingest
    /// policy. Ice samples carry `(thickness_m, thickness_sigma_m)`
    /// from the hydrostatic retrieval; open-water samples land with
    /// both zero (not thickness-bearing), exactly as
    /// [`seaice_products::ProductSet`] derives them.
    pub fn ingest_thickness_beam_with(
        &self,
        beam: &BeamThickness,
        mode: IngestMode,
    ) -> Result<IngestReport, CatalogError> {
        let grid = self.grid;
        let points = &beam.points;
        self.ingest_source(
            &beam.granule_id,
            beam.beam.index(),
            points.len(),
            mode,
            |i, source| {
                let p = &points[i];
                let m = EPSG_3976.forward(GeoPoint::new(p.lat, p.lon));
                grid.locate(m).map(|(tile, cell)| {
                    (
                        tile,
                        SampleRecord {
                            source,
                            along_track_m: p.along_track_m,
                            lat: p.lat,
                            lon: p.lon,
                            x_m: m.x,
                            y_m: m.y,
                            freeboard_m: p.freeboard_m,
                            class: p.class,
                            cell,
                            thickness_m: p.thickness_m,
                            thickness_sigma_m: p.thickness_sigma_m,
                        },
                    )
                })
            },
        )
    }

    /// Shared ingest spine: lease heartbeat, the sidecar-ledger skip
    /// fast path, rayon projection fan-out through `locate`, grouped
    /// per-tile merges, the `Replace` sweep, and the completed-source
    /// record — everything except how a point becomes a
    /// [`SampleRecord`].
    fn ingest_source(
        &self,
        granule_id: &str,
        beam_index: usize,
        n_points: usize,
        mode: IngestMode,
        locate: impl Fn(usize, u64) -> Option<(TileId, SampleRecord)> + Sync,
    ) -> Result<IngestReport, CatalogError> {
        // Injected pause first, so a scripted stall longer than the
        // lease ttl is caught by the heartbeat below: the writer
        // self-fences with `LeaseLost` before touching any tile.
        self.fault_hook(crate::fault::FaultPlan::INGEST_PAUSE)?;
        // A leased writer proves ownership (and self-fences when it
        // cannot) before every batch.
        if let Some(lease) = &self.lease {
            lease.heartbeat_if_due()?;
        }
        self.metrics.ingest_calls.inc();
        let time = TimeKey::from_granule_id(granule_id)?;
        let source = SampleRecord::source_id(granule_id, beam_index);
        // Skip fast path: the layer's sidecar ledger records completed
        // ingests, so a whole re-run short-circuits before projecting a
        // single point — no tile is touched, no file rewritten.
        if mode == IngestMode::Skip && self.layer_has_source(time, source) {
            self.metrics.ingest_skipped.add(n_points as u64);
            return Ok(IngestReport {
                n_skipped: n_points,
                ..IngestReport::default()
            });
        }
        // A Replace invalidates the completed-ingest record up front:
        // if it crashes partway, the layer honestly reads as incomplete
        // for this source (re-running the Replace heals it — Skip
        // cannot, since per-tile ledgers intentionally skip the tiles
        // that still hold the old samples).
        if mode == IngestMode::Replace {
            self.unrecord_layer_source(time, source)?;
        }

        // Project + locate every sample (pure, order-preserving, parallel).
        let stage_t0 = Instant::now();
        let located: Vec<Option<(TileId, SampleRecord)>> = (0..n_points)
            .into_par_iter()
            .map(|i| locate(i, source))
            .collect();
        self.metrics.stage_project_us.record(stage_t0.elapsed());

        // Group by destination tile.
        let mut groups: BTreeMap<TileId, Vec<SampleRecord>> = BTreeMap::new();
        let mut n_out = 0usize;
        for slot in located {
            match slot {
                Some((tile, sample)) => {
                    groups.entry(tile).or_default().push(sample);
                }
                None => n_out += 1,
            }
        }

        // Apply merges one tile after another on this thread. Each ends
        // in a file write and a rename in the one tiles directory, and
        // two threads doing that contend in the kernel: on a 2-vCPU host
        // a parallel fan-out doubled the system time per ingest and made
        // it swing from run to run. (Shard locks still serialise
        // same-shard keys across concurrent ingest calls.)
        let groups: Vec<(TileId, Vec<SampleRecord>)> = groups.into_iter().collect();
        // The merge stage's wall clock covers every merge; the per-tile
        // persist histogram below it carves out the disk share.
        let stage_t0 = Instant::now();
        let results: Vec<Result<MergeOutcome, CatalogError>> = groups
            .iter()
            .map(|(tile, batch)| {
                self.apply_merge(TileKey { time, tile: *tile }, batch, source, mode)
            })
            .collect();
        self.metrics.stage_merge_us.record(stage_t0.elapsed());
        let mut n_samples = 0usize;
        let mut n_skipped = 0usize;
        let mut n_replaced = 0usize;
        let mut n_tiles = 0usize;
        for r in results {
            let outcome = r?;
            n_samples += outcome.written;
            n_skipped += outcome.skipped;
            n_replaced += outcome.replaced;
            n_tiles += usize::from(outcome.written > 0);
        }
        // Replace must also clear the source out of tiles the *new*
        // product no longer reaches (a perturbed track shifts samples
        // across tile boundaries), or stale samples would linger there.
        // The sweep runs parallel: most tiles answer `has_source =
        // false` from their ledger and are left alone, so it is mostly
        // decodes, not writes.
        if mode == IngestMode::Replace {
            let touched: BTreeSet<TileId> = groups.iter().map(|(t, _)| *t).collect();
            let sweep: Vec<TileKey> = self
                .keys_in(TimeRange::only(time), None, &TileScope::all())
                .into_iter()
                .filter(|key| !touched.contains(&key.tile))
                .collect();
            let removed: Vec<Result<usize, CatalogError>> = (0..sweep.len())
                .into_par_iter()
                .map(|i| self.apply_remove(sweep[i], source))
                .collect();
            for r in removed {
                n_replaced += r?;
            }
        }
        // Record the completed ingest in the sidecar ledger last, so a
        // crash anywhere above leaves the source unrecorded and the next
        // ingest heals the partial state tile by tile.
        let stage_t0 = Instant::now();
        self.record_layer_source(time, source)?;
        self.metrics.stage_ledger_us.record(stage_t0.elapsed());
        self.metrics.ingest_samples.add(n_samples as u64);
        self.metrics.ingest_skipped.add(n_skipped as u64);
        Ok(IngestReport {
            n_samples,
            n_out_of_domain: n_out,
            n_skipped,
            n_replaced,
            n_tiles,
            n_layers: usize::from(!groups.is_empty()),
        })
    }

    /// Ingests a fleet run's per-beam products in the default
    /// [`IngestMode::Skip`] (idempotent across fleet re-runs).
    pub fn ingest_products(&self, products: &[BeamProducts]) -> Result<IngestReport, CatalogError> {
        self.ingest_products_with(products, IngestMode::Skip)
    }

    /// [`Catalog::ingest_products`] with an explicit re-ingest policy.
    pub fn ingest_products_with(
        &self,
        products: &[BeamProducts],
        mode: IngestMode,
    ) -> Result<IngestReport, CatalogError> {
        let mut report = IngestReport::default();
        for p in products {
            let r = self.ingest_beam_with(&p.granule_id, p.beam.index(), &p.freeboard, mode)?;
            report.absorb(&r);
        }
        Ok(report)
    }

    /// Ingests a fleet run's thickness-enriched per-beam products in
    /// the default [`IngestMode::Skip`] (idempotent across re-runs).
    pub fn ingest_thickness_products(
        &self,
        beams: &[BeamThickness],
    ) -> Result<IngestReport, CatalogError> {
        self.ingest_thickness_products_with(beams, IngestMode::Skip)
    }

    /// [`Catalog::ingest_thickness_products`] with an explicit
    /// re-ingest policy.
    pub fn ingest_thickness_products_with(
        &self,
        beams: &[BeamThickness],
        mode: IngestMode,
    ) -> Result<IngestReport, CatalogError> {
        let mut report = IngestReport::default();
        for b in beams {
            let r = self.ingest_thickness_beam_with(b, mode)?;
            report.absorb(&r);
        }
        Ok(report)
    }

    /// The sources whose ingest into `time` completed, per the sidecar
    /// ledger (sorted). Absence only means the fast path is cold — the
    /// per-tile ledgers remain the ground truth.
    pub fn layer_ledger(&self, time: TimeKey) -> Vec<u64> {
        self.layer_sources
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&time)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    fn layer_has_source(&self, time: TimeKey, source: u64) -> bool {
        self.layer_sources
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&time)
            .is_some_and(|s| s.contains(&source))
    }

    /// Records a completed ingest in the per-layer sidecar ledger:
    /// in-memory set first, then an atomic file replace. Serialised by
    /// the write lock; a no-op when the source is already recorded.
    fn record_layer_source(&self, time: TimeKey, source: u64) -> Result<(), CatalogError> {
        let mut map = self
            .layer_sources
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let set = map.entry(time).or_default();
        if !set.insert(source) {
            return Ok(());
        }
        let ledger = LayerLedger {
            time,
            sources: set.iter().copied().collect(),
        };
        self.write_ledger_file(&ledger)
    }

    /// Drops a source from the completed-ingest sidecar (the first step
    /// of a `Replace`): while the replace is in flight the layer is not
    /// complete for this source, and a crash must leave it reading that
    /// way. A no-op when the source was never recorded.
    fn unrecord_layer_source(&self, time: TimeKey, source: u64) -> Result<(), CatalogError> {
        let mut map = self
            .layer_sources
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let Some(set) = map.get_mut(&time) else {
            return Ok(());
        };
        if !set.remove(&source) {
            return Ok(());
        }
        let ledger = LayerLedger {
            time,
            sources: set.iter().copied().collect(),
        };
        self.write_ledger_file(&ledger)
    }

    /// Installs a whole layer ledger (compaction's bulk path).
    pub(crate) fn install_layer_ledger(
        &self,
        time: TimeKey,
        sources: BTreeSet<u64>,
    ) -> Result<(), CatalogError> {
        if sources.is_empty() {
            return Ok(());
        }
        let mut map = self
            .layer_sources
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let set = map.entry(time).or_default();
        set.extend(sources.iter().copied());
        let ledger = LayerLedger {
            time,
            sources: set.iter().copied().collect(),
        };
        self.write_ledger_file(&ledger)
    }

    fn write_ledger_file(&self, ledger: &LayerLedger) -> Result<(), CatalogError> {
        std::fs::create_dir_all(&self.ledgers_dir)?;
        let path = self.ledgers_dir.join(format!(
            "{:04}{:02}.ledger",
            ledger.time.year, ledger.time.month
        ));
        let tmp = path.with_extension("ledger.tmp");
        std::fs::write(&tmp, ledger.to_bytes())?;
        // Crash here: tiles hold the source but the sidecar never
        // records it — the next Skip ingest redoes the (idempotent)
        // merges tile by tile and rewrites the sidecar.
        self.fault_hook(crate::fault::FaultPlan::LEDGER_BEFORE_RENAME)?;
        std::fs::rename(&tmp, &path)?;
        self.fault_hook(crate::fault::FaultPlan::LEDGER_AFTER_RENAME)?;
        Ok(())
    }

    /// One read-modify-write cycle for one tile, serialised per shard.
    ///
    /// The merge base is chosen against the authoritative index version,
    /// never trusted from the cache alone: a cached snapshot is only
    /// reused when its version matches the index exactly, otherwise the
    /// on-disk tile (which the shard lock makes this writer's private
    /// state) is reloaded. A stale cache entry — e.g. one resurrected by
    /// a racing reader after the fresh entry was LRU-evicted — can
    /// therefore never become a merge base and lose updates.
    ///
    /// The per-tile ledger decides what `mode` does here: under `Skip` a
    /// tile already holding `source` is left untouched (not even
    /// rewritten — byte stability is the contract); under `Replace` the
    /// source's prior samples are dropped before the batch merges.
    fn apply_merge(
        &self,
        key: TileKey,
        batch: &[SampleRecord],
        source: u64,
        mode: IngestMode,
    ) -> Result<MergeOutcome, CatalogError> {
        let _own = self
            .shard_lock(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut tile = self
            .writable_tile(&key)?
            .unwrap_or_else(|| Tile::new(key.tile, key.time));
        let mut outcome = MergeOutcome::default();
        match mode {
            IngestMode::Skip if tile.has_source(source) => {
                outcome.skipped = batch.len();
                return Ok(outcome);
            }
            IngestMode::Skip => {
                tile.merge(batch);
                outcome.written = batch.len();
            }
            IngestMode::Replace => {
                guard_not_archived(&tile, source)?;
                outcome.replaced = tile.replace_source(source, batch);
                outcome.written = batch.len();
            }
        }
        self.publish(key, tile).map(|()| outcome)
    }

    /// Removes `source` from one tile (the `Replace` sweep), a no-op
    /// when the tile never held it.
    fn apply_remove(&self, key: TileKey, source: u64) -> Result<usize, CatalogError> {
        let _own = self
            .shard_lock(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(mut tile) = self.writable_tile(&key)? else {
            return Ok(0);
        };
        if !tile.has_source(source) {
            return Ok(0);
        }
        guard_not_archived(&tile, source)?;
        let removed = tile.replace_source(source, &[]);
        self.publish(key, tile)?;
        Ok(removed)
    }

    /// The lock that serialises every write cycle of `key`'s shard.
    fn shard_lock(&self, key: &TileKey) -> &Mutex<()> {
        &self.shard_locks[(key.stable_hash() % self.shard_locks.len() as u64) as usize]
    }

    /// A private copy of the tile at its indexed version, `None` when the
    /// index has no entry. The cached snapshot is reused only when its
    /// version matches the index; otherwise the file is reloaded and must
    /// carry the key's identity and that version. Callers hold the key's
    /// shard lock.
    fn writable_tile(&self, key: &TileKey) -> Result<Option<Tile>, CatalogError> {
        let Some(version) = self.indexed_version(key) else {
            return Ok(None);
        };
        if let Some(hit) = self.cache.get(key) {
            if hit.version == version {
                return Ok(Some((*hit).clone()));
            }
        }
        let tile = Tile::load(&self.tile_path(key))?;
        if tile.id != key.tile || tile.time != key.time || tile.version != version {
            return Err(CatalogError::Corrupt("tile file behind its index entry"));
        }
        Ok(Some(tile))
    }

    /// Persists a modified tile and publishes it: file rename, then
    /// index entry, then cache install. The cache thus never serves a
    /// version the index has not recorded, which keeps index-derived
    /// totals (`stats`) an upper bound on anything a reader has already
    /// observed. Callers hold the key's shard lock.
    fn publish(&self, key: TileKey, tile: Tile) -> Result<(), CatalogError> {
        self.persist(&key, &tile)?;
        let entry = IndexEntry {
            version: tile.version,
            n_samples: tile.samples().len() as u64,
            n_thickness: tile.n_thickness(),
        };
        self.index
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, entry);
        self.cache.insert(key, Arc::new(tile));
        Ok(())
    }

    /// Installs a freshly built tile into an empty slot (compaction's
    /// write path). Fails if the key already exists — compaction always
    /// writes into a fresh directory.
    pub(crate) fn install_tile(&self, key: TileKey, tile: Tile) -> Result<(), CatalogError> {
        if let Some(lease) = &self.lease {
            lease.heartbeat_if_due()?;
        }
        let _own = self
            .shard_lock(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if self.indexed_version(&key).is_some() {
            return Err(CatalogError::Corrupt("install over an existing tile"));
        }
        self.publish(key, tile)
    }

    /// Every persisted tile key, time-major order (compaction's scan).
    pub(crate) fn all_keys(&self) -> Vec<TileKey> {
        self.keys_in(TimeRange::all(), None, &TileScope::all())
    }

    /// The latest persisted version of a tile per the index.
    fn indexed_version(&self, key: &TileKey) -> Option<u64> {
        self.index
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .map(|e| e.version)
    }

    fn tile_path(&self, key: &TileKey) -> PathBuf {
        self.tiles_dir.join(format!(
            "{:04}{:02}_{}.tile",
            key.time.year,
            key.time.month,
            key.tile.quadkey()
        ))
    }

    /// Atomic tile replacement: write a temp file, then rename over the
    /// final path, so concurrent readers see a complete old or new tile.
    fn persist(&self, key: &TileKey, tile: &Tile) -> Result<(), CatalogError> {
        let t0 = Instant::now();
        let path = self.tile_path(key);
        let tmp = path.with_extension("tile.tmp");
        std::fs::write(&tmp, tile.to_bytes())?;
        // Crash here: an orphaned `.tile.tmp` and the old tile intact.
        self.fault_hook(crate::fault::FaultPlan::TILE_BEFORE_RENAME)?;
        std::fs::rename(&tmp, &path)?;
        // Crash here: the new file is on disk but the index/cache bump
        // never happens — reopen must rebuild the same state from the
        // renamed file alone.
        self.fault_hook(crate::fault::FaultPlan::TILE_AFTER_RENAME)?;
        // Only completed persists are recorded: a fault-injected abort
        // models a process death, where no one is left to observe.
        self.metrics.stage_persist_us.record(t0.elapsed());
        Ok(())
    }

    /// Loads a tile snapshot through the cache (disk on miss), `None`
    /// when the index has never seen the tile.
    ///
    /// The index version read first is a floor: a cached snapshot below
    /// it is stale (resurrected by a racing reader after eviction) and
    /// is reloaded from disk. The file rename happens before the index
    /// bump, so a disk read started after the index read always observes
    /// at least the floor version — below it is corruption.
    pub(crate) fn load_tile(&self, key: &TileKey) -> Result<Option<Arc<Tile>>, CatalogError> {
        let Some(floor) = self.indexed_version(key) else {
            return Ok(None);
        };
        if let Some(hit) = self.cache.get(key) {
            if hit.version >= floor {
                return Ok(Some(hit));
            }
        }
        let tile = Tile::load(&self.tile_path(key))?;
        if tile.id != key.tile || tile.time != key.time {
            return Err(CatalogError::Corrupt("tile file key mismatch"));
        }
        if tile.version < floor {
            return Err(CatalogError::Corrupt("tile file behind its index entry"));
        }
        // A disk read can observe a rename an instant before the writer
        // publishes the matching index entry; wait for the index to
        // catch up so every snapshot handed out is already covered by a
        // subsequent `stats()` total. The writer's only step between
        // rename and publish is an in-memory map insert, so this is a
        // micro-wait; the bound guards against a corrupted store.
        let mut spins = 0u32;
        while self.indexed_version(key).unwrap_or(0) < tile.version {
            spins += 1;
            if spins > 1_000_000 {
                return Err(CatalogError::Corrupt("index never caught up to tile file"));
            }
            std::thread::yield_now();
        }
        let tile = Arc::new(tile);
        self.cache.insert(*key, Arc::clone(&tile));
        Ok(Some(tile))
    }

    /// Index snapshot of keys in `time`, optionally restricted to tiles
    /// in `candidates` (sorted, deduplicated) and to `scope`.
    fn keys_in(
        &self,
        time: TimeRange,
        candidates: Option<&[TileId]>,
        scope: &TileScope,
    ) -> Vec<TileKey> {
        let index = self.index.read().unwrap_or_else(|e| e.into_inner());
        index
            .keys()
            .filter(|k| time.contains(k.time))
            .filter(|k| candidates.is_none_or(|c| c.binary_search(&k.tile).is_ok()))
            .filter(|k| scope.matches(&k.tile))
            .copied()
            .collect()
    }

    // -- Queries -------------------------------------------------------

    /// Answers one query-path request — the five queries, `Stats`, and
    /// `Validate` — restricted to the request's [`TileScope`]: the one
    /// place a request kind meets the engine. The server streams the
    /// returned [`Records`]; the typed methods below fold them with the
    /// same `Records::into_*` the client and the shard router use.
    /// Requests outside the query path are a typed protocol error.
    pub fn execute(&self, request: &Request) -> Result<Records, CatalogError> {
        let keys = |time: &TimeRange, scope| {
            self.keys_in(*time, request.footprint(&self.grid).as_deref(), scope)
        };
        Ok(match request {
            Request::QueryRect { rect, time, scope } => {
                Records::Tiles(self.partials(keys(time, scope), Region::Rect(rect))?)
            }
            Request::QueryBbox { bbox, time, scope } => {
                Records::Tiles(self.partials(keys(time, scope), Region::Bbox(bbox))?)
            }
            Request::QueryPoint { point, time, scope } => {
                Records::Point(self.point_cell(*point, *time, scope)?)
            }
            Request::QueryTimeRange { time, scope } => {
                Records::Layers(self.layer_partials(keys(time, scope))?)
            }
            Request::QueryCells { rect, time, scope } => {
                Records::Cells(self.composite(rect, keys(time, scope))?)
            }
            Request::Stats { scope } => {
                let (stats, layers) = self.scoped_stats(scope);
                Records::Stats { stats, layers }
            }
            Request::Validate { scope } => Records::Checked(self.validate_scoped(scope)? as u64),
            other => return Err(crate::wire::not_a_query(other)),
        })
    }

    /// Summary of every sample whose projected position falls in `rect`
    /// within the time range.
    pub fn query_rect(
        &self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<QuerySummary, CatalogError> {
        let partials = self.query_rect_partials(rect, time, &TileScope::all())?;
        Ok(QuerySummary::from_partials(partials))
    }

    /// The per-tile partials behind [`Catalog::query_rect`], restricted
    /// to `scope` — what a shard server streams to the client router.
    pub fn query_rect_partials(
        &self,
        rect: &MapRect,
        time: TimeRange,
        scope: &TileScope,
    ) -> Result<Vec<TilePartial>, CatalogError> {
        let scope = scope.clone();
        self.execute(&Request::QueryRect {
            rect: *rect,
            time,
            scope,
        })?
        .into_tiles()
    }

    /// Summary of every sample inside a geographic bounding box within
    /// the time range. Candidate tiles come from a conservative
    /// projected cover; each sample is then filtered exactly.
    pub fn query_bbox(
        &self,
        bbox: &BoundingBox,
        time: TimeRange,
    ) -> Result<QuerySummary, CatalogError> {
        let partials = self.query_bbox_partials(bbox, time, &TileScope::all())?;
        Ok(QuerySummary::from_partials(partials))
    }

    /// The per-tile partials behind [`Catalog::query_bbox`], restricted
    /// to `scope`.
    pub fn query_bbox_partials(
        &self,
        bbox: &BoundingBox,
        time: TimeRange,
        scope: &TileScope,
    ) -> Result<Vec<TilePartial>, CatalogError> {
        let scope = scope.clone();
        self.execute(&Request::QueryBbox {
            bbox: *bbox,
            time,
            scope,
        })?
        .into_tiles()
    }

    /// The aggregated cell under a geographic point, `None` when the
    /// point is outside the domain or has no data. Layers in range merge
    /// chronologically.
    pub fn query_point(
        &self,
        p: GeoPoint,
        time: TimeRange,
    ) -> Result<Option<CellSummary>, CatalogError> {
        self.query_point_scoped(p, time, &TileScope::all())
    }

    /// [`Catalog::query_point`] restricted to `scope` (`None` when the
    /// owning tile is outside the scope).
    pub fn query_point_scoped(
        &self,
        point: GeoPoint,
        time: TimeRange,
        scope: &TileScope,
    ) -> Result<Option<CellSummary>, CatalogError> {
        let scope = scope.clone();
        self.execute(&Request::QueryPoint { point, time, scope })?
            .into_point()
    }

    /// Per-layer whole-domain summaries over the range, chronological.
    /// Layers with no samples (only retention-frozen bases) are omitted.
    pub fn query_time_range(
        &self,
        time: TimeRange,
    ) -> Result<Vec<(TimeKey, QuerySummary)>, CatalogError> {
        let scope = TileScope::all();
        self.execute(&Request::QueryTimeRange { time, scope })?
            .into_layers()
    }

    /// The per-layer, per-tile partials behind
    /// [`Catalog::query_time_range`], restricted to `scope`,
    /// chronological.
    pub fn query_time_range_partials(
        &self,
        time: TimeRange,
        scope: &TileScope,
    ) -> Result<Vec<(TimeKey, Vec<TilePartial>)>, CatalogError> {
        let scope = scope.clone();
        self.execute(&Request::QueryTimeRange { time, scope })?
            .into_layer_partials()
    }

    /// The gridded composite: per-cell aggregates over `rect`, layers in
    /// range merged chronologically, sorted by `(tile, cell)`.
    ///
    /// Membership is by **cell centre**: a cell belongs to the composite
    /// iff its centre lies in `rect`, and then contributes its *whole*
    /// aggregate — so on rect boundaries this intentionally differs from
    /// [`Catalog::query_rect`], which filters individual samples exactly
    /// (composites are cell-resolution products; summaries are
    /// sample-resolution).
    pub fn query_cells(
        &self,
        rect: &MapRect,
        time: TimeRange,
    ) -> Result<Vec<CellSummary>, CatalogError> {
        self.query_cells_scoped(rect, time, &TileScope::all())
    }

    /// [`Catalog::query_cells`] restricted to `scope`. Cells of one tile
    /// merge their layers chronologically, so as long as a scope keeps
    /// all of a tile's layers together (scopes are purely spatial — they
    /// always do) shard results concatenate without any numeric merge.
    pub fn query_cells_scoped(
        &self,
        rect: &MapRect,
        time: TimeRange,
        scope: &TileScope,
    ) -> Result<Vec<CellSummary>, CatalogError> {
        let scope = scope.clone();
        self.execute(&Request::QueryCells {
            rect: *rect,
            time,
            scope,
        })?
        .into_cells()
    }

    /// Catalog-wide counters, read straight off the authoritative index
    /// — O(index), no tile decodes, no cache pollution. Across
    /// successive calls the totals are monotone non-decreasing while
    /// merge-only ingest runs (index entries only grow, under writer
    /// shard locks); an [`IngestMode::Replace`] may legitimately shrink
    /// them when the refreshed product carries fewer samples.
    pub fn stats(&self) -> Result<CatalogStats, CatalogError> {
        let scope = TileScope::all();
        self.execute(&Request::Stats { scope })?.into_stats()
    }

    /// Full scan validating every tile's internal invariants — sorted
    /// samples, aggregates consistent with samples.
    pub fn validate(&self) -> Result<(), CatalogError> {
        let scope = TileScope::all();
        self.execute(&Request::Validate { scope })?
            .into_checked()
            .map(|_| ())
    }

    /// The point probe behind [`Catalog::execute`]: the cell under `p`,
    /// layers in range merged chronologically.
    fn point_cell(
        &self,
        p: GeoPoint,
        time: TimeRange,
        scope: &TileScope,
    ) -> Result<Option<CellSummary>, CatalogError> {
        let m = EPSG_3976.forward(p);
        let Some((tile, cell)) = self.grid.locate(m) else {
            return Ok(None);
        };
        if !scope.matches(&tile) {
            return Ok(None);
        }
        let mut agg: Option<CellAggregate> = None;
        for key in self.keys_in(time, Some(&[tile]), scope) {
            if let Some(snapshot) = self.load_tile(&key)? {
                if let Some(c) = snapshot.cells().get(&cell) {
                    match &mut agg {
                        Some(a) => a.merge(c),
                        None => agg = Some(*c),
                    }
                }
            }
        }
        Ok(agg.map(|agg| CellSummary {
            tile,
            cell,
            center: self.grid.cell_center(tile, cell),
            agg,
        }))
    }

    /// Per-tile partials of `keys`, each layer reduced on its own. A
    /// layer with no partials (its tiles hold only retention-frozen
    /// bases) is omitted, as it is from every served and routed answer,
    /// which stream no records for it.
    fn layer_partials(
        &self,
        keys: Vec<TileKey>,
    ) -> Result<BTreeMap<TimeKey, Vec<TilePartial>>, CatalogError> {
        let mut layers: BTreeMap<TimeKey, Vec<TileKey>> = BTreeMap::new();
        for key in keys {
            layers.entry(key.time).or_default().push(key);
        }
        let mut out = BTreeMap::new();
        for (time, keys) in layers {
            let partials = self.partials(keys, Region::All)?;
            if !partials.is_empty() {
                out.insert(time, partials);
            }
        }
        Ok(out)
    }

    /// The composite behind [`Catalog::query_cells`] over `keys`.
    fn composite(
        &self,
        rect: &MapRect,
        keys: Vec<TileKey>,
    ) -> Result<Vec<CellSummary>, CatalogError> {
        let mut merged: BTreeMap<(TileId, u32), CellAggregate> = BTreeMap::new();
        for key in keys {
            let Some(snapshot) = self.load_tile(&key)? else {
                continue;
            };
            for (&cell, agg) in snapshot.cells() {
                if !rect.contains(self.grid.cell_center(key.tile, cell)) {
                    continue;
                }
                merged
                    .entry((key.tile, cell))
                    .and_modify(|a| a.merge(agg))
                    .or_insert(*agg);
            }
        }
        Ok(merged
            .into_iter()
            .map(|((tile, cell), agg)| CellSummary {
                tile,
                cell,
                center: self.grid.cell_center(tile, cell),
                agg,
            })
            .collect())
    }

    /// Store counters restricted to `scope`, plus the scoped layer list
    /// (chronological) — shard servers return both so the router can
    /// merge layer sets exactly.
    fn scoped_stats(&self, scope: &TileScope) -> (CatalogStats, Vec<TimeKey>) {
        let index = self.index.read().unwrap_or_else(|e| e.into_inner());
        let mut n_samples = 0usize;
        let mut n_thickness = 0usize;
        let mut n_tiles = 0usize;
        let mut layers: Vec<TimeKey> = Vec::new();
        for (key, entry) in index.iter() {
            if !scope.matches(&key.tile) {
                continue;
            }
            n_tiles += 1;
            n_samples += entry.n_samples as usize;
            n_thickness += entry.n_thickness as usize;
            if layers.last() != Some(&key.time) {
                layers.push(key.time);
            }
        }
        (
            CatalogStats {
                n_layers: layers.len(),
                n_tiles,
                n_samples,
                n_thickness,
                cache: self.cache.stats(),
            },
            layers,
        )
    }

    /// Validates every tile in `scope`; returns the number checked.
    fn validate_scoped(&self, scope: &TileScope) -> Result<usize, CatalogError> {
        let mut checked = 0usize;
        for key in self.keys_in(TimeRange::all(), None, scope) {
            let Some(snapshot) = self.load_tile(&key)? else {
                continue;
            };
            snapshot
                .check_consistency()
                .map_err(CatalogError::Corrupt)?;
            checked += 1;
        }
        Ok(checked)
    }

    /// Deterministic per-tile reduction over the samples of `keys` that
    /// fall in `region`, emitted in tile-id order: levels 1–2 of the
    /// [`TilePartial`] fold. [`QuerySummary::from_partials`] is level 3 —
    /// shared verbatim with the shard router so distributed answers are
    /// bit-identical.
    ///
    /// Each layer is classified by its cached [`LayerPartial`]'s extent:
    /// a layer outside the region is skipped, a layer inside it
    /// contributes the cached partial, and only a layer the region's
    /// edge cuts through is scanned — into one reused scratch partial,
    /// through the same [`LayerPartial::push`] that built the cache, so
    /// both paths yield the same bits.
    fn partials(
        &self,
        mut keys: Vec<TileKey>,
        region: Region<'_>,
    ) -> Result<Vec<TilePartial>, CatalogError> {
        // Group a tile's layers together, chronological within the tile.
        keys.sort_unstable_by_key(|k| (k.tile, k.time));
        let Some(first) = keys.first() else {
            return Ok(Vec::new());
        };
        let words = (self.grid.tile_cells as usize).pow(2).div_ceil(64);
        let mut scratch = LayerPartial::new(first.tile, words);
        let mut cells_hit = vec![0u64; words];
        let mut out: Vec<TilePartial> = Vec::new();
        let mut i = 0usize;
        while i < keys.len() {
            let tile = keys[i].tile;
            let mut p = TilePartial::empty(tile);
            cells_hit.fill(0);
            while i < keys.len() && keys[i].tile == tile {
                if let Some(snapshot) = self.load_tile(&keys[i])? {
                    let cached = snapshot.partial();
                    let layer = match region.overlap(cached) {
                        Overlap::Disjoint => None,
                        Overlap::Contained => Some(cached),
                        Overlap::Boundary => {
                            scratch.reset(tile);
                            region.scan_into(snapshot.samples(), &mut scratch);
                            Some(&scratch)
                        }
                    };
                    if let Some(layer) = layer {
                        p.absorb(&layer.moments);
                        layer.or_cells_into(&mut cells_hit);
                    }
                }
                i += 1;
            }
            if p.n_samples > 0 {
                p.n_cells = cells_hit.iter().map(|w| u64::from(w.count_ones())).sum();
                out.push(p);
            }
        }
        Ok(out)
    }
}

/// The sample filter of a summary query.
#[derive(Debug, Clone, Copy)]
enum Region<'a> {
    /// Samples whose projected position lies in the rect (edges
    /// inclusive).
    Rect(&'a MapRect),
    /// Samples whose geographic position lies in the box (edges
    /// inclusive, longitudes normalised by [`GeoPoint::new`]).
    Bbox(&'a BoundingBox),
    /// Every sample.
    All,
}

/// How a region meets one layer's samples.
enum Overlap {
    /// No sample can match.
    Disjoint,
    /// Every sample matches.
    Contained,
    /// Undecided by the extent alone: scan.
    Boundary,
}

impl Region<'_> {
    /// Whether one sample matches.
    fn contains(&self, s: &SampleRecord) -> bool {
        match self {
            Region::Rect(rect) => rect.contains(MapPoint::new(s.x_m, s.y_m)),
            Region::Bbox(bbox) => bbox.contains(GeoPoint::new(s.lat, s.lon)),
            Region::All => true,
        }
    }

    /// Classifies a layer by its partial's extent. Both predicates are
    /// closed intervals per axis, so comparing the extent's ends against
    /// the region's decides every sample at once; a NaN region bound
    /// fails every comparison and lands on `Boundary`.
    fn overlap(&self, layer: &LayerPartial) -> Overlap {
        if layer.moments.n_samples == 0 {
            return Overlap::Disjoint;
        }
        // Per axis: (extent min, extent max, region min, region max).
        let axes = match self {
            Region::All => return Overlap::Contained,
            _ if layer.non_finite => return Overlap::Boundary,
            Region::Rect(r) => {
                let e = &layer.map;
                [
                    (e.min.x, e.max.x, r.min.x, r.max.x),
                    (e.min.y, e.max.y, r.min.y, r.max.y),
                ]
            }
            Region::Bbox(b) => {
                let e = &layer.geo;
                [
                    (e.lon_min, e.lon_max, b.lon_min, b.lon_max),
                    (e.lat_min, e.lat_max, b.lat_min, b.lat_max),
                ]
            }
        };
        if axes.iter().any(|&(lo, hi, min, max)| hi < min || lo > max) {
            Overlap::Disjoint
        } else if axes
            .iter()
            .all(|&(lo, hi, min, max)| lo >= min && hi <= max)
        {
            Overlap::Contained
        } else {
            Overlap::Boundary
        }
    }

    /// The boundary scan: pushes every sample of `samples` the region
    /// contains into `out`, in order. Allocation-free once `out`'s
    /// bitmap covers the tile's cells.
    fn scan_into(&self, samples: &[SampleRecord], out: &mut LayerPartial) {
        for s in samples {
            if self.contains(s) {
                out.push(s);
            }
        }
    }
}

impl CellAggregate {
    /// Chronological layer merge used by point/cell queries.
    ///
    /// Thickness sums and the IVW accumulators add exactly; the p95
    /// combines as a `max` (the nearest-rank p95 is not foldable, and
    /// thickness is non-negative so `max` is exact whenever one side is
    /// empty and a conservative upper envelope otherwise — the same rule
    /// [`crate::tile`]'s base-freeze and compaction use).
    pub fn merge(&mut self, later: &CellAggregate) {
        self.n += later.n;
        for (mine, theirs) in self.class_counts.iter_mut().zip(&later.class_counts) {
            *mine += *theirs;
        }
        self.ice_n += later.ice_n;
        self.ice_sum_m += later.ice_sum_m;
        self.min_freeboard_m = self.min_freeboard_m.min(later.min_freeboard_m);
        self.max_freeboard_m = self.max_freeboard_m.max(later.max_freeboard_m);
        self.t_n += later.t_n;
        self.t_sum_m += later.t_sum_m;
        self.t_w_sum += later.t_w_sum;
        self.t_wt_sum += later.t_wt_sum;
        self.t_p95_m = self.t_p95_m.max(later.t_p95_m);
    }
}

/// Refuses a `Replace` against a retention-archived source: the ledger
/// holds the source, the tile carries frozen base aggregates, and no
/// live sample of the source remains — its contribution lives only in
/// the inseparable base, so removal is impossible and a re-merge would
/// double-count. (Samples are canonically source-major, so the live
/// check is a binary search.)
fn guard_not_archived(tile: &Tile, source: u64) -> Result<(), CatalogError> {
    if !tile.base().is_empty()
        && tile.has_source(source)
        && tile
            .samples()
            .binary_search_by(|s| s.source.cmp(&source))
            .is_err()
    {
        return Err(CatalogError::ArchivedSource { source });
    }
    Ok(())
}

fn parse_ledger_filename(name: &str) -> Option<TimeKey> {
    let ym = name.strip_suffix(".ledger")?;
    if ym.len() != 6 || !ym.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    TimeKey::new(ym[..4].parse().ok()?, ym[4..6].parse().ok()?).ok()
}

fn parse_tile_filename(name: &str) -> Option<TileKey> {
    let stem = name.strip_suffix(".tile")?;
    let (ym, quadkey) = stem.split_once('_')?;
    if ym.len() != 6 || !ym.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let time = TimeKey::new(ym[..4].parse().ok()?, ym[4..6].parse().ok()?).ok()?;
    let tile = TileId::from_quadkey(quadkey).ok()?;
    Some(TileKey { time, tile })
}

// ---------------------------------------------------------------------------
// Fleet integration.
// ---------------------------------------------------------------------------

/// Catalog sink for [`FleetDriver`]: classify a fleet and land the
/// products in a catalog in one call. (Lives here, not in `seaice`,
/// because the catalog sits above the fleet layer in the crate graph.)
pub trait CatalogSink {
    /// Runs [`FleetDriver::classify_run`] over `sources` and ingests
    /// every resulting beam product into `catalog`.
    fn classify_into_catalog(
        &self,
        sources: &[(PathBuf, Beam)],
        models: &TrainedModels,
        catalog: &Catalog,
    ) -> Result<(IngestReport, StageReport), CatalogError>;

    /// [`CatalogSink::classify_into_catalog`] extended through the
    /// product family: classifies the fleet, enriches every beam with
    /// snow depth and hydrostatic thickness + 1-sigma
    /// ([`seaice_products::enrich_fleet`]), and lands the
    /// thickness-bearing samples in `catalog` — freeboard → thickness →
    /// served queries in one call. Enrichment rejecting its inputs
    /// ([`CatalogError::Product`]) aborts before anything is written.
    fn classify_thickness_into_catalog(
        &self,
        sources: &[(PathBuf, Beam)],
        models: &TrainedModels,
        snow: &dyn SnowDepthModel,
        retrieval: &ThicknessRetrieval,
        catalog: &Catalog,
    ) -> Result<(IngestReport, StageReport), CatalogError>;
}

impl CatalogSink for FleetDriver {
    fn classify_into_catalog(
        &self,
        sources: &[(PathBuf, Beam)],
        models: &TrainedModels,
        catalog: &Catalog,
    ) -> Result<(IngestReport, StageReport), CatalogError> {
        let (products, report) = self.classify_run(sources, models);
        let ingest = catalog.ingest_products(&products)?;
        Ok((ingest, report))
    }

    fn classify_thickness_into_catalog(
        &self,
        sources: &[(PathBuf, Beam)],
        models: &TrainedModels,
        snow: &dyn SnowDepthModel,
        retrieval: &ThicknessRetrieval,
        catalog: &Catalog,
    ) -> Result<(IngestReport, StageReport), CatalogError> {
        let (products, report) = self.classify_run(sources, models);
        let enriched = seaice_products::enrich_fleet(&products, snow, retrieval)
            .map_err(CatalogError::Product)?;
        let ingest = catalog.ingest_thickness_products(&enriched)?;
        Ok((ingest, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icesat_scene::SurfaceClass;
    use seaice::freeboard::FreeboardPoint;

    fn grid() -> GridConfig {
        GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
    }

    /// A synthetic beam product: `n` points on a straight map-space line
    /// starting at `(x0, y0)` stepping `(dx, dy)`, geographic coordinates
    /// via inverse projection (so ingest's forward projection recovers
    /// the intended map position).
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
            name: "test line".into(),
            points,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seaice_catalog_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_then_query_roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let catalog = Catalog::create(&dir, grid()).unwrap();
        let product = line_product(400, -304_000.0, -1_304_000.0, 20.0, 15.0, 0.2);
        let report = catalog
            .ingest_beam("20191104195311_05000210", 1, &product)
            .unwrap();
        assert_eq!(report.n_samples, 400);
        assert_eq!(report.n_out_of_domain, 0);
        assert!(report.n_tiles >= 1);

        let all = catalog
            .query_rect(&catalog.grid().domain(), TimeRange::all())
            .unwrap();
        all.check_consistency().unwrap();
        assert_eq!(all.n_samples, 400);
        assert_eq!(all.n_ice, all.class_counts[0] + all.class_counts[1]);
        assert!(all.mean_ice_freeboard_m > 0.19);

        // A half-domain rect sees a strict subset.
        let half = MapRect::new(
            MapPoint::new(-310_000.0, -1_310_000.0),
            MapPoint::new(-300_000.0, -1_300_000.0),
        );
        let sub = catalog.query_rect(&half, TimeRange::all()).unwrap();
        sub.check_consistency().unwrap();
        assert!(sub.n_samples > 0 && sub.n_samples < 400);

        // Reopen from disk: identical answers, bit for bit.
        let reopened = Catalog::open(&dir).unwrap();
        let all2 = reopened
            .query_rect(&reopened.grid().domain(), TimeRange::all())
            .unwrap();
        assert_eq!(all2, all);
        assert_eq!(
            all2.mean_ice_freeboard_m.to_bits(),
            all.mean_ice_freeboard_m.to_bits()
        );
        reopened.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temporal_layers_separate_and_merge() {
        let dir = temp_dir("layers");
        let catalog = Catalog::create(&dir, grid()).unwrap();
        let product = line_product(120, -302_000.0, -1_302_000.0, 25.0, 0.0, 0.3);
        catalog
            .ingest_beam("20190915010203_05000210", 0, &product)
            .unwrap();
        catalog
            .ingest_beam("20191104195311_05010210", 1, &product)
            .unwrap();

        assert_eq!(
            catalog.layers(),
            vec![
                TimeKey::new(2019, 9).unwrap(),
                TimeKey::new(2019, 11).unwrap()
            ]
        );
        let sept = catalog
            .query_rect(
                &catalog.grid().domain(),
                TimeRange::only(TimeKey::new(2019, 9).unwrap()),
            )
            .unwrap();
        assert_eq!(sept.n_samples, 120);
        let both = catalog.query_time_range(TimeRange::all()).unwrap();
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].0, TimeKey::new(2019, 9).unwrap());
        assert_eq!(both[0].1.n_samples, 120);
        assert_eq!(both[1].1.n_samples, 120);

        // Point query merges layers chronologically: the first point of
        // the line was ingested into both layers.
        let g = EPSG_3976.inverse(MapPoint::new(-302_000.0, -1_302_000.0));
        let cell = catalog.query_point(g, TimeRange::all()).unwrap().unwrap();
        assert!(cell.agg.n >= 2);
        assert!(catalog
            .query_point(GeoPoint::new(-60.0, 10.0), TimeRange::all())
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bbox_query_filters_exactly() {
        let dir = temp_dir("bbox");
        let catalog = Catalog::create(&dir, grid()).unwrap();
        let product = line_product(300, -305_000.0, -1_305_000.0, 30.0, 22.0, 0.25);
        catalog
            .ingest_beam("20191104195311_05000210", 2, &product)
            .unwrap();
        // A bbox spanning the whole domain matches everything…
        let dom = catalog.grid().domain();
        let sw = EPSG_3976.inverse(dom.min);
        let ne = EPSG_3976.inverse(dom.max);
        let se = EPSG_3976.inverse(MapPoint::new(dom.max.x, dom.min.y));
        let nw = EPSG_3976.inverse(MapPoint::new(dom.min.x, dom.max.y));
        let lats = [sw.lat, ne.lat, se.lat, nw.lat];
        let lons = [sw.lon, ne.lon, se.lon, nw.lon];
        let wide = BoundingBox {
            lon_min: lons.iter().cloned().fold(f64::INFINITY, f64::min),
            lon_max: lons.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            lat_min: lats.iter().cloned().fold(f64::INFINITY, f64::min),
            lat_max: lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        };
        let all = catalog.query_bbox(&wide, TimeRange::all()).unwrap();
        assert_eq!(all.n_samples, 300);
        // …and the exact per-sample filter agrees with a manual count
        // for a narrower box.
        let narrow = BoundingBox {
            lat_min: wide.lat_min,
            lat_max: 0.5 * (wide.lat_min + wide.lat_max),
            lon_min: wide.lon_min,
            lon_max: wide.lon_max,
        };
        let got = catalog.query_bbox(&narrow, TimeRange::all()).unwrap();
        let expect = product
            .points
            .iter()
            .filter(|p| narrow.contains(GeoPoint::new(p.lat, p.lon)))
            .count();
        assert_eq!(got.n_samples, expect);
        got.check_consistency().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_domain_samples_are_counted_not_stored() {
        let dir = temp_dir("oob");
        let catalog = Catalog::create(&dir, grid()).unwrap();
        // Line that starts inside and walks out of the 10 km half-extent.
        let product = line_product(200, -300_500.0, -1_300_000.0, 120.0, 0.0, 0.2);
        let report = catalog
            .ingest_beam("20191104195311_05000210", 1, &product)
            .unwrap();
        assert!(report.n_out_of_domain > 0);
        assert_eq!(report.n_samples + report.n_out_of_domain, 200);
        let stats = catalog.stats().unwrap();
        assert_eq!(stats.n_samples, report.n_samples);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gridded_cells_compose_the_domain() {
        let dir = temp_dir("cells");
        let catalog = Catalog::create(&dir, grid()).unwrap();
        let product = line_product(256, -303_000.0, -1_303_000.0, 24.0, 24.0, 0.3);
        catalog
            .ingest_beam("20191104195311_05000210", 0, &product)
            .unwrap();
        let cells = catalog
            .query_cells(&catalog.grid().domain(), TimeRange::all())
            .unwrap();
        assert!(!cells.is_empty());
        let total: u64 = cells.iter().map(|c| c.agg.n).sum();
        assert_eq!(total, 256);
        for c in &cells {
            assert!(catalog.grid().domain().contains(c.center));
            assert!(c.agg.min_freeboard_m <= c.agg.max_freeboard_m);
        }
        // Sorted by (tile, cell).
        assert!(cells
            .windows(2)
            .all(|w| (w[0].tile, w[0].cell) < (w[1].tile, w[1].cell)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_grid_is_rejected() {
        let dir = temp_dir("mismatch");
        let _first = Catalog::create(&dir, grid()).unwrap();
        let other =
            GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 20_000.0, 2, 8).unwrap();
        assert!(matches!(
            Catalog::create(&dir, other),
            Err(CatalogError::GridMismatch)
        ));
        // Same grid re-creates fine (idempotent open).
        assert!(Catalog::create(&dir, grid()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_granule_id_is_rejected() {
        let dir = temp_dir("badid");
        let catalog = Catalog::create(&dir, grid()).unwrap();
        let product = line_product(4, -300_000.0, -1_300_000.0, 10.0, 0.0, 0.1);
        assert!(matches!(
            catalog.ingest_beam("granule-x", 0, &product),
            Err(CatalogError::BadGranuleId(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a reader that faults a tile in from disk and installs
    /// it after the writer's newer version was LRU-evicted used to hand
    /// the next merge a stale base, silently dropping the intervening
    /// batch. The authoritative version index must make that impossible.
    #[test]
    fn stale_cache_resurrection_cannot_lose_updates() {
        let dir = temp_dir("stale");
        // Level-0 grid: every sample lands in the single root tile; one
        // cache slot so eviction is trivial to force.
        let g = GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 0, 8).unwrap();
        let catalog = Catalog::create_with(
            &dir,
            g,
            CatalogOptions {
                shards: 1,
                cache_capacity: 1,
                cache_stripes: 1,
                ..CatalogOptions::default()
            },
        )
        .unwrap();
        let product = line_product(50, -302_000.0, -1_302_000.0, 20.0, 0.0, 0.2);
        catalog
            .ingest_beam("20191104195311_05000210", 0, &product)
            .unwrap();
        let key = *catalog
            .index
            .read()
            .unwrap()
            .keys()
            .next()
            .expect("one tile");
        let stale = catalog.load_tile(&key).unwrap().expect("v1 snapshot");
        assert_eq!(stale.version, 1);

        catalog
            .ingest_beam("20191104195311_05010210", 1, &product)
            .unwrap();
        // Evict v2 from the single cache slot, then resurrect the stale
        // v1 snapshot the way a racing reader would.
        let other = TileKey {
            time: TimeKey::new(2020, 1).unwrap(),
            tile: key.tile,
        };
        catalog
            .cache
            .insert(other, Arc::new(Tile::new(other.tile, other.time)));
        catalog.cache.insert(key, stale);

        // The next merge must base itself on the authoritative v2, and
        // readers must not serve the resurrected v1 either.
        catalog
            .ingest_beam("20191104195311_05020210", 2, &product)
            .unwrap();
        let whole = catalog
            .query_rect(&catalog.grid().domain(), TimeRange::all())
            .unwrap();
        assert_eq!(whole.n_samples, 150, "a batch was lost to a stale base");
        assert_eq!(catalog.stats().unwrap().n_samples, 150);
        catalog.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filename_parse_roundtrip() {
        let key = TileKey {
            time: TimeKey::new(2019, 11).unwrap(),
            tile: TileId::new(4, 9, 3).unwrap(),
        };
        let name = format!("201911_{}.tile", key.tile.quadkey());
        assert_eq!(parse_tile_filename(&name), Some(key));
        assert_eq!(parse_tile_filename("201911_0123.tmp"), None);
        assert_eq!(parse_tile_filename("20191_0123.tile"), None);
        assert_eq!(parse_tile_filename("201913_0123.tile"), None);
    }
}
