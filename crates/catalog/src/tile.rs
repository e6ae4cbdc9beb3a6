//! Tile contents: segment-level samples, per-cell aggregates, and the
//! per-tile **source ledger** that makes ingest idempotent.
//!
//! A tile is the unit of storage, caching, and atomic update. It carries
//! every ingested sample (segment-level detail for re-gridding and exact
//! bbox filtering) **canonically sorted**, and per-cell aggregates
//! derived from that order. Canonical order is what makes the catalog
//! ingest-order invariant: a tile's samples are a set, the sort gives the
//! set one byte-exact representation, and every floating-point reduction
//! (cell sums, query summaries) runs in that order — so two catalogs
//! built from the same granules in any order answer queries bit
//! identically.
//!
//! Beside the samples, a tile (`SIT1` v4) carries two more sections:
//!
//! - the **ledger**, in the header before the samples: the sorted
//!   stable source ids (`(granule, beam)` FNV hashes) whose samples
//!   this tile holds. It is what lets a re-ingest be skipped
//!   (`IngestMode::Skip`) or replaced (`IngestMode::Replace`) per tile,
//!   with crash-atomicity inherited from the atomic tile replacement,
//!   and [`Tile::peek`] reads it without touching the samples, so the
//!   store's index knows every tile's ledger from the moment it opens;
//! - the **base aggregates**, after the samples: frozen per-cell
//!   contributions of samples dropped by a compaction retention
//!   horizon. The effective cell aggregates are defined as the base
//!   plus the live samples pushed in canonical order, so a tile keeps
//!   answering cell/point queries bit identically after its
//!   segment-level detail is retired.
//!
//! The format carries the thickness product family:
//!
//! - every [`SampleRecord`] has `thickness_m` / `thickness_sigma_m`
//!   fields. A sample **bears** thickness iff `thickness_sigma_m > 0`
//!   (every real retrieval has a positive σ; see `seaice-products`) —
//!   freeboard-only ingests carry `0/0`, the documented "absent"
//!   encoding;
//! - every [`CellAggregate`] has thickness statistics over bearing
//!   samples: count/sum (plain mean), inverse-variance weights (IVW
//!   mean + combined σ), and a nearest-rank p95;
//! - the tile header has a bearing-sample count (`n_thickness`) so the
//!   store index can answer thickness stats without decoding payloads.
//!
//! Only the current format decodes: a file of any other version fails
//! with a typed [`ArtifactError::BadVersion`] (see DESIGN.md, "Current
//! format only").
//!
//! Live cell aggregates remain derived data rebuilt on decode, which
//! doubles as a consistency check. So is the tile's `LayerPartial`
//! (the whole-layer summary partial that lets a summary query skip the
//! sample scan); it is computed in the same pass and never persisted.

use std::collections::{BTreeMap, BTreeSet};

use icesat_geo::{BoundingBox, GeoPoint, MapPoint};
use icesat_scene::SurfaceClass;
use seaice::artifact::{Artifact, ArtifactError, Codec, Reader, Writer};

use crate::grid::{MapRect, TileId, TimeKey, MAX_TILE_CELLS};
use crate::store::TilePartial;

/// One classified, freeboard-carrying 2 m segment inside a tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRecord {
    /// Stable hash of `(granule id, beam)` — the ingest source.
    pub source: u64,
    /// Along-track position within the source beam, metres.
    pub along_track_m: f64,
    /// Geodetic latitude, degrees.
    pub lat: f64,
    /// Longitude, degrees.
    pub lon: f64,
    /// EPSG-3976 easting, metres.
    pub x_m: f64,
    /// EPSG-3976 northing, metres.
    pub y_m: f64,
    /// Freeboard, metres.
    pub freeboard_m: f64,
    /// Classified surface type.
    pub class: SurfaceClass,
    /// Row-major aggregate-cell index within the owning tile.
    pub cell: u32,
    /// Retrieved ice thickness, metres (0 when not thickness-bearing).
    pub thickness_m: f64,
    /// 1-σ thickness uncertainty, metres. `> 0` iff the sample bears a
    /// retrieved thickness; freeboard-only ingests carry 0.
    pub thickness_sigma_m: f64,
}

impl SampleRecord {
    /// Stable source id for a `(granule, beam)` pair: FNV-1a over the
    /// granule id bytes and the beam index. Independent of ingest order
    /// (unlike an interning table), so sorted tiles are too.
    pub fn source_id(granule_id: &str, beam_index: usize) -> u64 {
        crate::fnv1a(granule_id.bytes().chain((beam_index as u64).to_le_bytes()))
    }

    /// Whether this sample bears a retrieved thickness (see the module
    /// docs — `sigma > 0` is the marker).
    pub fn bears_thickness(&self) -> bool {
        self.thickness_sigma_m > 0.0
    }

    /// The canonical total order tiles are sorted by. Every field
    /// participates, so ties are byte-identical records and any sort
    /// produces the same sequence.
    pub fn canonical_cmp(a: &SampleRecord, b: &SampleRecord) -> std::cmp::Ordering {
        a.source
            .cmp(&b.source)
            .then_with(|| a.along_track_m.total_cmp(&b.along_track_m))
            .then_with(|| a.freeboard_m.total_cmp(&b.freeboard_m))
            .then_with(|| a.class.index().cmp(&b.class.index()))
            .then_with(|| a.cell.cmp(&b.cell))
            .then_with(|| a.lat.total_cmp(&b.lat))
            .then_with(|| a.lon.total_cmp(&b.lon))
            .then_with(|| a.x_m.total_cmp(&b.x_m))
            .then_with(|| a.y_m.total_cmp(&b.y_m))
            .then_with(|| a.thickness_m.total_cmp(&b.thickness_m))
            .then_with(|| a.thickness_sigma_m.total_cmp(&b.thickness_sigma_m))
    }
}

impl Codec for SampleRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.source);
        w.put_f64(self.along_track_m);
        w.put_f64(self.lat);
        w.put_f64(self.lon);
        w.put_f64(self.x_m);
        w.put_f64(self.y_m);
        w.put_f64(self.freeboard_m);
        self.class.encode(w);
        w.put_u32(self.cell);
        w.put_f64(self.thickness_m);
        w.put_f64(self.thickness_sigma_m);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        // One bounds check for the whole record; every field then sits
        // at a constant offset of a fixed-size array.
        let rec = r.take_array::<RECORD_BYTES>()?;
        let f64_at = |at: usize| f64::from_le_bytes(field(rec, at));
        Ok(SampleRecord {
            source: u64::from_le_bytes(field(rec, 0)),
            along_track_m: f64_at(8),
            lat: f64_at(16),
            lon: f64_at(24),
            x_m: f64_at(32),
            y_m: f64_at(40),
            freeboard_m: f64_at(48),
            class: SurfaceClass::from_index(usize::from(rec[56]))
                .ok_or(ArtifactError::Invalid("surface class"))?,
            cell: u32::from_le_bytes(field(rec, 57)),
            thickness_m: f64_at(61),
            thickness_sigma_m: f64_at(69),
        })
    }
}

/// Encoded size of one [`SampleRecord`], in field order: source(8),
/// along-track, lat, lon, x, y and freeboard (8 each), class(1),
/// cell(4), thickness and its σ (8 each).
const RECORD_BYTES: usize = 8 + 6 * 8 + 1 + 4 + 2 * 8;

/// The `N` bytes at `at` of a record. Every caller passes a constant
/// offset into the fixed-size array, so once inlined the optimizer
/// drops the slice bounds check.
#[inline]
fn field<const N: usize>(rec: &[u8; RECORD_BYTES], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&rec[at..at + N]);
    out
}

/// Freeboard/ice-type/thickness aggregates of one grid cell, derived
/// from the owning tile's canonically sorted samples.
///
/// The thickness statistics (`t_*`) cover **bearing** samples only
/// (`thickness_sigma_m > 0`): the incremental fields accumulate in
/// canonical order like the freeboard sums, and `t_p95_m` is a
/// nearest-rank percentile computed over the cell's live bearing
/// thicknesses during the rebuild ([`seaice::stats`]'s shared helper).
/// Across layer/compaction merges the p95 combines as `max` — exact
/// whenever one side has no bearing samples (the common case), an upper
/// nearest-rank approximation otherwise; the associative/commutative
/// `max` is what keeps merged answers deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAggregate {
    /// Samples in the cell.
    pub n: u64,
    /// Samples per surface class (thick, thin, open water).
    pub class_counts: [u64; 3],
    /// Ice samples (thick + thin).
    pub ice_n: u64,
    /// Sum of ice freeboard, metres (canonical-order reduction).
    pub ice_sum_m: f64,
    /// Minimum freeboard over all samples, metres.
    pub min_freeboard_m: f64,
    /// Maximum freeboard over all samples, metres.
    pub max_freeboard_m: f64,
    /// Thickness-bearing samples in the cell.
    pub t_n: u64,
    /// Sum of bearing thickness, metres (canonical-order reduction).
    pub t_sum_m: f64,
    /// Sum of inverse variances `Σ 1/σ²`, 1/m².
    pub t_w_sum: f64,
    /// Inverse-variance-weighted thickness sum `Σ T/σ²`, 1/m.
    pub t_wt_sum: f64,
    /// Nearest-rank p95 of bearing thickness, metres (0 when none).
    pub t_p95_m: f64,
}

impl CellAggregate {
    fn empty() -> CellAggregate {
        CellAggregate {
            n: 0,
            class_counts: [0; 3],
            ice_n: 0,
            ice_sum_m: 0.0,
            min_freeboard_m: f64::INFINITY,
            max_freeboard_m: f64::NEG_INFINITY,
            t_n: 0,
            t_sum_m: 0.0,
            t_w_sum: 0.0,
            t_wt_sum: 0.0,
            t_p95_m: 0.0,
        }
    }

    fn push(&mut self, s: &SampleRecord) {
        self.n += 1;
        self.class_counts[s.class.index()] += 1;
        if s.class != SurfaceClass::OpenWater {
            self.ice_n += 1;
            self.ice_sum_m += s.freeboard_m;
        }
        self.min_freeboard_m = self.min_freeboard_m.min(s.freeboard_m);
        self.max_freeboard_m = self.max_freeboard_m.max(s.freeboard_m);
        if s.bears_thickness() {
            self.t_n += 1;
            self.t_sum_m += s.thickness_m;
            let w = 1.0 / (s.thickness_sigma_m * s.thickness_sigma_m);
            self.t_w_sum += w;
            self.t_wt_sum += w * s.thickness_m;
        }
    }

    /// Mean ice freeboard, metres (0 when the cell holds no ice).
    pub fn mean_ice_freeboard_m(&self) -> f64 {
        if self.ice_n == 0 {
            0.0
        } else {
            self.ice_sum_m / self.ice_n as f64
        }
    }

    /// Mean thickness over bearing samples, metres (0 when none).
    pub fn mean_thickness_m(&self) -> f64 {
        if self.t_n == 0 {
            0.0
        } else {
            self.t_sum_m / self.t_n as f64
        }
    }

    /// Inverse-variance-weighted mean thickness, metres (0 when no
    /// bearing samples) — the minimum-variance combination of the
    /// cell's per-sample retrievals.
    pub fn ivw_mean_thickness_m(&self) -> f64 {
        if self.t_n == 0 {
            0.0
        } else {
            self.t_wt_sum / self.t_w_sum
        }
    }

    /// Combined 1-σ of the IVW mean, metres: `sqrt(1/Σ(1/σ²))` (0 when
    /// no bearing samples).
    pub fn thickness_sigma_m(&self) -> f64 {
        if self.t_n == 0 {
            0.0
        } else {
            (1.0 / self.t_w_sum).sqrt()
        }
    }

    /// The most populated class (ties break toward the lower index,
    /// matching `SurfaceClass::ALL` order).
    pub fn dominant_class(&self) -> SurfaceClass {
        let mut best = 0usize;
        for i in 1..3 {
            if self.class_counts[i] > self.class_counts[best] {
                best = i;
            }
        }
        SurfaceClass::from_index(best).expect("index in 0..3")
    }
}

impl Codec for CellAggregate {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.n);
        self.class_counts.encode(w);
        w.put_u64(self.ice_n);
        w.put_f64(self.ice_sum_m);
        w.put_f64(self.min_freeboard_m);
        w.put_f64(self.max_freeboard_m);
        w.put_u64(self.t_n);
        w.put_f64(self.t_sum_m);
        w.put_f64(self.t_w_sum);
        w.put_f64(self.t_wt_sum);
        w.put_f64(self.t_p95_m);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CellAggregate {
            n: r.take_u64()?,
            class_counts: <[u64; 3]>::decode(r)?,
            ice_n: r.take_u64()?,
            ice_sum_m: r.take_f64()?,
            min_freeboard_m: r.take_f64()?,
            max_freeboard_m: r.take_f64()?,
            t_n: r.take_u64()?,
            t_sum_m: r.take_f64()?,
            t_w_sum: r.take_f64()?,
            t_wt_sum: r.take_f64()?,
            t_p95_m: r.take_f64()?,
        })
    }
}

/// Summary partial of one tile layer's samples: the [`TilePartial`]
/// moments, the set of cells they occupy, and their extents.
///
/// Every [`Tile`] carries one over its live samples (retention bases
/// stay out, as they always have for summaries), derived when the tile
/// is built or decoded. A summary query whose region contains the
/// layer's extent uses it as is; a region that cuts through the layer
/// pushes the matching samples into a scratch `LayerPartial` instead.
/// Both go through [`LayerPartial::push`], so the cached partial is
/// exactly what a scan matching every sample would produce.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerPartial {
    /// Moments over the pushed samples, in push (canonical) order.
    /// `n_cells` stays 0: a tile's cell count is the popcount of its
    /// layers' OR'd bitmaps.
    pub(crate) moments: TilePartial,
    /// One bit per row-major cell index holding a pushed sample. Grows
    /// to cover the highest cell pushed — at most `tile_cells²` bits.
    cells: Vec<u64>,
    /// Map-space extent of the pushed samples (min = +∞ when empty).
    pub(crate) map: MapRect,
    /// Geographic extent of the pushed samples, longitudes normalised
    /// exactly as [`GeoPoint::new`] normalises them for bbox filtering.
    pub(crate) geo: BoundingBox,
    /// Some pushed sample has a non-finite coordinate, so the extents
    /// cannot classify the layer and a region query must scan it.
    pub(crate) non_finite: bool,
}

impl LayerPartial {
    /// An empty partial of `tile` with room for `cell_words` bitmap
    /// words.
    pub(crate) fn new(tile: TileId, cell_words: usize) -> LayerPartial {
        LayerPartial {
            moments: TilePartial::empty(tile),
            cells: vec![0; cell_words],
            map: MapRect {
                min: MapPoint::new(f64::INFINITY, f64::INFINITY),
                max: MapPoint::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            },
            geo: BoundingBox {
                lon_min: f64::INFINITY,
                lon_max: f64::NEG_INFINITY,
                lat_min: f64::INFINITY,
                lat_max: f64::NEG_INFINITY,
            },
            non_finite: false,
        }
    }

    /// Empties the partial for reuse as `tile`'s scan scratch, keeping
    /// the bitmap's allocation.
    pub(crate) fn reset(&mut self, tile: TileId) {
        let mut cells = std::mem::take(&mut self.cells);
        cells.fill(0);
        *self = LayerPartial {
            cells,
            ..LayerPartial::new(tile, 0)
        };
    }

    /// Accumulates one sample — the single definition of step 1 of the
    /// summary fold (`docs/PROTOCOL.md` §3.4).
    pub(crate) fn push(&mut self, s: &SampleRecord) {
        let m = &mut self.moments;
        m.n_samples += 1;
        m.class_counts[s.class.index()] += 1;
        if s.class != SurfaceClass::OpenWater {
            m.n_ice += 1;
            m.ice_sum_m += s.freeboard_m;
        }
        m.min_freeboard_m = m.min_freeboard_m.min(s.freeboard_m);
        m.max_freeboard_m = m.max_freeboard_m.max(s.freeboard_m);
        if s.bears_thickness() {
            let w = 1.0 / (s.thickness_sigma_m * s.thickness_sigma_m);
            m.t_n += 1;
            m.t_sum_m += s.thickness_m;
            m.t_w_sum += w;
            m.t_wt_sum += s.thickness_m * w;
        }
        let word = (s.cell / 64) as usize;
        if word >= self.cells.len() {
            self.cells.resize(word + 1, 0);
        }
        self.cells[word] |= 1u64 << (s.cell % 64);
        let g = GeoPoint::new(s.lat, s.lon);
        self.non_finite |=
            !(s.x_m.is_finite() && s.y_m.is_finite() && g.lat.is_finite() && g.lon.is_finite());
        self.map.min.x = self.map.min.x.min(s.x_m);
        self.map.max.x = self.map.max.x.max(s.x_m);
        self.map.min.y = self.map.min.y.min(s.y_m);
        self.map.max.y = self.map.max.y.max(s.y_m);
        self.geo.lat_min = self.geo.lat_min.min(g.lat);
        self.geo.lat_max = self.geo.lat_max.max(g.lat);
        self.geo.lon_min = self.geo.lon_min.min(g.lon);
        self.geo.lon_max = self.geo.lon_max.max(g.lon);
    }

    /// ORs this partial's cell bitmap into `acc`, growing it if needed.
    pub(crate) fn or_cells_into(&self, acc: &mut Vec<u64>) {
        if acc.len() < self.cells.len() {
            acc.resize(self.cells.len(), 0);
        }
        for (a, c) in acc.iter_mut().zip(&self.cells) {
            *a |= c;
        }
    }
}

/// Cells in the largest tile any grid allows; a decoded sample's cell
/// index must fall below it (which also bounds the bitmap above).
const MAX_CELLS: u32 = MAX_TILE_CELLS as u32 * MAX_TILE_CELLS as u32;

/// The one cell-aggregate fold: `base` (frozen reduction prefix) plus
/// the live samples pushed in canonical order, then each cell's
/// thickness p95 over its live bearing thicknesses (sorted, shared
/// nearest-rank helper) combined with the frozen base p95 via `max`.
/// The same pass pushes every live sample into the tile's
/// [`LayerPartial`]. Used verbatim by the rebuild after every
/// merge/decode *and* by [`Tile::check_consistency`], so the invariant
/// checked is exactly the one maintained.
///
/// Canonical order is source-major, so a tile's samples come in runs of
/// one cell (a track crossing it). The fold looks a cell up once per
/// run, not once per sample; runs stay in canonical order, so each cell
/// still receives its samples in that order and every aggregate keeps
/// its bits.
fn fold_cells(
    id: TileId,
    base: &BTreeMap<u32, CellAggregate>,
    samples: &[SampleRecord],
) -> (BTreeMap<u32, CellAggregate>, LayerPartial) {
    let mut cells = base.clone();
    let mut layer = LayerPartial::new(id, 0);
    let mut bearing: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for run in samples.chunk_by(|a, b| a.cell == b.cell) {
        let cell = run[0].cell;
        let agg = cells.entry(cell).or_insert_with(CellAggregate::empty);
        for s in run {
            agg.push(s);
            layer.push(s);
        }
        if run.iter().any(SampleRecord::bears_thickness) {
            let thick = run.iter().filter(|s| s.bears_thickness());
            bearing
                .entry(cell)
                .or_default()
                .extend(thick.map(|s| s.thickness_m));
        }
    }
    for (cell, mut v) in bearing {
        // A total order, so the sorted sequence (and the p95) does not
        // depend on the order runs appended their values.
        v.sort_by(|a, b| a.total_cmp(b));
        let p95 = seaice::stats::percentile_nearest_rank(&v, 0.95);
        let agg = cells.get_mut(&cell).expect("bearing cell was pushed");
        agg.t_p95_m = agg.t_p95_m.max(p95);
    }
    (cells, layer)
}

/// One versioned tile of one temporal layer.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Spatial address.
    pub id: TileId,
    /// Temporal layer.
    pub time: TimeKey,
    /// Merge counter: bumped on every ingest batch applied to the tile.
    /// Diagnostic only — deliberately excluded from query results, since
    /// it depends on how ingest batches were grouped.
    pub version: u64,
    /// Samples in canonical order (see [`SampleRecord::canonical_cmp`]).
    samples: Vec<SampleRecord>,
    /// Sorted source ids whose samples this tile holds (or held, for
    /// sources whose detail was retired into `base` by retention).
    /// Always a superset of the distinct sources in `samples`; exactly
    /// equal to them while `base` is empty.
    ledger: Vec<u64>,
    /// Frozen per-cell contributions of retention-dropped samples.
    /// Empty for every tile that still carries full segment detail.
    base: BTreeMap<u32, CellAggregate>,
    /// Effective per-cell aggregates, keyed by row-major cell index:
    /// `base` plus the live samples pushed in canonical order. Derived;
    /// rebuilt after every merge and on decode.
    cells: BTreeMap<u32, CellAggregate>,
    /// Summary partial over the live samples. Derived alongside `cells`.
    partial: LayerPartial,
}

impl Tile {
    /// An empty tile.
    pub fn new(id: TileId, time: TimeKey) -> Tile {
        Tile {
            id,
            time,
            version: 0,
            samples: Vec::new(),
            ledger: Vec::new(),
            base: BTreeMap::new(),
            cells: BTreeMap::new(),
            partial: LayerPartial::new(id, 0),
        }
    }

    /// The canonically sorted samples.
    pub fn samples(&self) -> &[SampleRecord] {
        &self.samples
    }

    /// The effective per-cell aggregates (ascending cell index): frozen
    /// base contributions plus live samples.
    pub fn cells(&self) -> &BTreeMap<u32, CellAggregate> {
        &self.cells
    }

    /// The summary partial over the live samples.
    pub(crate) fn partial(&self) -> &LayerPartial {
        &self.partial
    }

    /// The sorted source-id ledger.
    pub fn sources(&self) -> &[u64] {
        &self.ledger
    }

    /// `true` when `source` appears in the ledger.
    pub fn has_source(&self, source: u64) -> bool {
        self.ledger.binary_search(&source).is_ok()
    }

    /// The frozen base aggregates (empty unless a compaction retention
    /// horizon retired this tile's segment detail).
    pub fn base(&self) -> &BTreeMap<u32, CellAggregate> {
        &self.base
    }

    /// Samples retired into the base by retention (no longer stored
    /// segment-level).
    pub fn n_dropped(&self) -> u64 {
        self.base.values().map(|c| c.n).sum()
    }

    /// Merges an ingest batch: sorts the incoming batch, merges the two
    /// canonically sorted runs in one linear pass (ties are
    /// byte-identical records, so run order cannot matter), records the
    /// batch's sources in the ledger, and rebuilds every cell aggregate
    /// from the result (the full rebuild keeps the reduction order
    /// independent of merge history). O(N + m·log m) per batch instead
    /// of re-sorting all N accumulated samples.
    pub fn merge(&mut self, batch: &[SampleRecord]) {
        let mut incoming = batch.to_vec();
        incoming.sort_unstable_by(SampleRecord::canonical_cmp);
        for s in &incoming {
            if let Err(at) = self.ledger.binary_search(&s.source) {
                self.ledger.insert(at, s.source);
            }
        }
        let old = std::mem::take(&mut self.samples);
        self.samples = Vec::with_capacity(old.len() + incoming.len());
        let (mut a, mut b) = (old.into_iter().peekable(), incoming.into_iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if SampleRecord::canonical_cmp(x, y) != std::cmp::Ordering::Greater {
                        self.samples.push(a.next().expect("peeked"));
                    } else {
                        self.samples.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => self.samples.push(a.next().expect("peeked")),
                (None, Some(_)) => self.samples.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.rebuild_cells();
        self.version += 1;
    }

    /// Removes every live sample of `source` and merges `batch` in its
    /// place, as one version bump — the per-tile half of
    /// [`crate::store::IngestMode::Replace`]. Returns the number of
    /// samples removed. Base contributions are frozen and cannot be
    /// replaced; `source` stays in the ledger while the base is
    /// non-empty. (Replacing a retention-*archived* source — ledger
    /// entry backed only by base — would double-count it; the store
    /// refuses that case with `CatalogError::ArchivedSource` before
    /// calling here.)
    pub fn replace_source(&mut self, source: u64, batch: &[SampleRecord]) -> usize {
        let before = self.samples.len();
        self.samples.retain(|s| s.source != source);
        let removed = before - self.samples.len();
        if self.base.is_empty() && batch.is_empty() {
            if let Ok(at) = self.ledger.binary_search(&source) {
                self.ledger.remove(at);
            }
        }
        // `merge` rebuilds the aggregates and bumps the version even for
        // an empty batch (a removal is a real state change).
        self.merge(batch);
        removed
    }

    /// Retires the tile's segment-level detail: the current effective
    /// cell aggregates become the frozen base, the samples are dropped,
    /// and the ledger is kept (so idempotent re-ingest still recognises
    /// the retired sources). Returns the number of samples dropped.
    /// Used by `catalog::compact`'s retention horizon.
    pub fn freeze_detail(&mut self) -> usize {
        let dropped = self.samples.len();
        if dropped > 0 {
            self.base = self.cells.clone();
            self.samples.clear();
            self.rebuild_cells();
        }
        dropped
    }

    /// Assembles a tile from already-canonical parts (compaction's
    /// constructor). `samples` must be canonically sorted; `ledger` must
    /// be sorted, deduplicated, and cover the samples' sources.
    pub(crate) fn from_parts(
        id: TileId,
        time: TimeKey,
        version: u64,
        samples: Vec<SampleRecord>,
        ledger: Vec<u64>,
        base: BTreeMap<u32, CellAggregate>,
    ) -> Tile {
        let mut tile = Tile {
            id,
            time,
            version,
            samples,
            ledger,
            base,
            cells: BTreeMap::new(),
            partial: LayerPartial::new(id, 0),
        };
        tile.rebuild_cells();
        tile
    }

    /// Live samples bearing a retrieved thickness (σ > 0). O(n); the
    /// store caches the value in its index at publish time.
    pub fn n_thickness(&self) -> u64 {
        self.samples.iter().filter(|s| s.bears_thickness()).count() as u64
    }

    /// Effective aggregates and the summary partial: the shared
    /// [`fold_cells`] over base + live samples.
    fn rebuild_cells(&mut self) {
        (self.cells, self.partial) = fold_cells(self.id, &self.base, &self.samples);
    }

    /// Checks the tile's internal invariants — what concurrent readers
    /// assert about every snapshot they observe: samples in canonical
    /// order, the ledger sorted and covering every sample's source
    /// (exactly, while no base is frozen), and cell aggregates and the
    /// summary partial exactly consistent with base + samples.
    pub fn check_consistency(&self) -> Result<(), &'static str> {
        if !self
            .samples
            .windows(2)
            .all(|w| SampleRecord::canonical_cmp(&w[0], &w[1]) != std::cmp::Ordering::Greater)
        {
            return Err("samples out of canonical order");
        }
        if !self.ledger.windows(2).all(|w| w[0] < w[1]) {
            return Err("ledger out of order or duplicated");
        }
        let sample_sources: BTreeSet<u64> = self.samples.iter().map(|s| s.source).collect();
        if !sample_sources.iter().all(|s| self.has_source(*s)) {
            return Err("sample source missing from ledger");
        }
        if self.base.is_empty() && self.ledger.len() != sample_sources.len() {
            return Err("ledger lists a source with no samples and no base");
        }
        let (cells, partial) = fold_cells(self.id, &self.base, &self.samples);
        if cells != self.cells {
            return Err("cell aggregates inconsistent with base + samples");
        }
        if partial != self.partial {
            return Err("summary partial inconsistent with samples");
        }
        let total: u64 = self.cells.values().map(|c| c.n).sum();
        if total != self.samples.len() as u64 + self.n_dropped() {
            return Err("cell counts do not cover samples");
        }
        Ok(())
    }
}

impl Codec for Tile {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.time.encode(w);
        w.put_u64(self.version);
        w.put_u64(self.n_thickness());
        self.ledger.encode(w);
        self.samples.encode(w);
        let base_cells: Vec<(u32, CellAggregate)> =
            self.base.iter().map(|(&c, &a)| (c, a)).collect();
        base_cells.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let id = TileId::decode(r)?;
        let time = TimeKey::decode(r)?;
        let version = r.take_u64()?;
        // The header carries the bearing-sample count and the ledger
        // before the samples (so `peek` can index them); both are
        // validated against the payload below.
        let n_thickness = r.take_u64()?;
        let ledger = decode_ledger(r)?;
        let n = usize::decode(r)?;
        if n > r.remaining() {
            return Err(ArtifactError::Truncated);
        }
        // One pass validates every record as it is read: the cell bound,
        // canonical order against the previous record, ledger coverage
        // at each change of source (canonical order is source-major),
        // and the bearing count. `check_consistency` remains the full
        // audit for `validate()`; the rebuild below derives the
        // aggregates.
        let mut samples: Vec<SampleRecord> = Vec::with_capacity(n);
        let mut counted = 0u64;
        let mut n_sources = 0usize;
        for _ in 0..n {
            let s = SampleRecord::decode(r)?;
            if s.cell >= MAX_CELLS {
                return Err(ArtifactError::Invalid("sample cell beyond any grid"));
            }
            counted += u64::from(s.bears_thickness());
            let new_source = match samples.last() {
                Some(prev) if SampleRecord::canonical_cmp(prev, &s).is_gt() => {
                    return Err(ArtifactError::Invalid("tile samples out of order"));
                }
                Some(prev) => prev.source != s.source,
                None => true,
            };
            if new_source {
                n_sources += 1;
                if ledger.binary_search(&s.source).is_err() {
                    return Err(ArtifactError::Invalid("sample source missing from ledger"));
                }
            }
            samples.push(s);
        }
        if counted != n_thickness {
            return Err(ArtifactError::Invalid(
                "header thickness count inconsistent with samples",
            ));
        }
        let base_cells: Vec<(u32, CellAggregate)> = Vec::decode(r)?;
        if !base_cells.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(ArtifactError::Invalid("tile base cells out of order"));
        }
        if base_cells.is_empty() && ledger.len() != n_sources {
            return Err(ArtifactError::Invalid(
                "ledger lists a source with no samples and no base",
            ));
        }
        let mut tile = Tile {
            id,
            time,
            version,
            samples,
            ledger,
            base: base_cells.into_iter().collect(),
            cells: BTreeMap::new(),
            partial: LayerPartial::new(id, 0),
        };
        tile.rebuild_cells();
        Ok(tile)
    }
}

impl Artifact for Tile {
    const TAG: [u8; 4] = *b"SIT1";
    const VERSION: u16 = 4;
}

/// The header's ledger section: sorted, deduplicated source ids.
fn decode_ledger(r: &mut Reader<'_>) -> Result<Vec<u64>, ArtifactError> {
    let ledger: Vec<u64> = Vec::decode(r)?;
    if !ledger.windows(2).all(|w| w[0] < w[1]) {
        return Err(ArtifactError::Invalid("tile ledger out of order"));
    }
    Ok(ledger)
}

/// Header of a persisted tile, readable without decoding samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileHeader {
    /// Spatial address.
    pub id: TileId,
    /// Temporal layer.
    pub time: TimeKey,
    /// Merge counter.
    pub version: u64,
    /// Stored sample count.
    pub n_samples: u64,
    /// Thickness-bearing sample count.
    pub n_thickness: u64,
    /// Sorted source ids the tile holds ([`Tile::sources`]).
    pub ledger: Vec<u64>,
}

impl Tile {
    /// Reads only the framed header of a tile file, ledger included.
    /// The catalog uses this to bootstrap its authoritative
    /// version/size/ledger index on open without decoding any sample
    /// payload; a file of another format version fails here, typed, so
    /// a store holding one never opens.
    pub fn peek(path: &std::path::Path) -> Result<TileHeader, ArtifactError> {
        use std::io::Read;
        // tag(4) + format version(2) + id(9) + time(3) + merge
        // counter(8) + thickness count(8) + ledger length(8), then the
        // ledger and the sample-vec length(8). Both reads are bounded
        // by the file, so a length that runs past its end decodes as
        // `Truncated` without allocating what it claims.
        const FIXED: u64 = 42;
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut buf = Vec::with_capacity(FIXED as usize);
        Read::take(&mut file, FIXED).read_to_end(&mut buf)?;
        let mut r = Reader::new(&buf);
        let tag = r.take_slice(4)?;
        if tag != Self::TAG {
            return Err(ArtifactError::BadMagic);
        }
        let format = r.take_u16()?;
        if format != Self::VERSION {
            return Err(ArtifactError::BadVersion(format));
        }
        let id = TileId::decode(&mut r)?;
        let time = TimeKey::decode(&mut r)?;
        let version = r.take_u64()?;
        let n_thickness = r.take_u64()?;
        let n_ledger = r.take_u64()?;
        let rest = n_ledger.saturating_mul(8).saturating_add(8);
        Read::take(&mut file, rest).read_to_end(&mut buf)?;
        let mut r = Reader::new(&buf[FIXED as usize - 8..]);
        let ledger = decode_ledger(&mut r)?;
        Ok(TileHeader {
            id,
            time,
            version,
            n_samples: r.take_u64()?,
            n_thickness,
            ledger,
        })
    }
}

/// The catalog manifest: pins the grid every tile was addressed with.
///
/// Its version tracks the tile format (`SICM` v4 ↔ `SIT1` v4), so a
/// build opening a store of another format fails fast at open instead
/// of per tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogManifest {
    /// The catalog's tiling.
    pub grid: crate::grid::GridConfig,
}

impl Codec for CatalogManifest {
    fn encode(&self, w: &mut Writer) {
        self.grid.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CatalogManifest {
            grid: crate::grid::GridConfig::decode(r)?,
        })
    }
}

impl Artifact for CatalogManifest {
    const TAG: [u8; 4] = *b"SICM";
    const VERSION: u16 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(source: u64, along: f64, fb: f64, class: SurfaceClass, cell: u32) -> SampleRecord {
        SampleRecord {
            source,
            along_track_m: along,
            lat: -74.0,
            lon: -160.0,
            x_m: 1.0,
            y_m: 2.0,
            freeboard_m: fb,
            class,
            cell,
            thickness_m: 0.0,
            thickness_sigma_m: 0.0,
        }
    }

    fn thick_sample(
        source: u64,
        along: f64,
        fb: f64,
        cell: u32,
        t: f64,
        sigma: f64,
    ) -> SampleRecord {
        SampleRecord {
            thickness_m: t,
            thickness_sigma_m: sigma,
            ..sample(source, along, fb, SurfaceClass::ThickIce, cell)
        }
    }

    fn batch_a() -> Vec<SampleRecord> {
        vec![
            sample(2, 10.0, 0.30, SurfaceClass::ThickIce, 5),
            sample(2, 12.0, 0.02, SurfaceClass::OpenWater, 5),
            sample(1, 4.0, 0.10, SurfaceClass::ThinIce, 9),
        ]
    }

    fn batch_b() -> Vec<SampleRecord> {
        vec![
            sample(1, 2.0, 0.40, SurfaceClass::ThickIce, 9),
            sample(3, 8.0, 0.25, SurfaceClass::ThickIce, 1),
        ]
    }

    #[test]
    fn merge_order_does_not_change_tile_bytes() {
        let id = TileId::new(2, 1, 3).unwrap();
        let t = TimeKey::new(2019, 11).unwrap();
        let mut ab = Tile::new(id, t);
        ab.merge(&batch_a());
        ab.merge(&batch_b());
        let mut ba = Tile::new(id, t);
        ba.merge(&batch_b());
        ba.merge(&batch_a());
        assert_eq!(ab.samples(), ba.samples());
        assert_eq!(ab.cells(), ba.cells());
        assert_eq!(ab.to_bytes(), ba.to_bytes());
        ab.check_consistency().unwrap();
    }

    #[test]
    fn cell_aggregates_match_samples() {
        let mut tile = Tile::new(
            TileId::new(1, 0, 0).unwrap(),
            TimeKey::new(2020, 3).unwrap(),
        );
        tile.merge(&batch_a());
        let c5 = tile.cells()[&5];
        assert_eq!(c5.n, 2);
        assert_eq!(c5.class_counts, [1, 0, 1]);
        assert_eq!(c5.ice_n, 1);
        assert!((c5.mean_ice_freeboard_m() - 0.30).abs() < 1e-15);
        assert_eq!(c5.min_freeboard_m, 0.02);
        assert_eq!(c5.max_freeboard_m, 0.30);
        assert_eq!(c5.dominant_class(), SurfaceClass::ThickIce);
        tile.check_consistency().unwrap();
    }

    #[test]
    fn tile_roundtrips_and_rejects_unsorted_buffers() {
        let mut tile = Tile::new(
            TileId::new(3, 7, 2).unwrap(),
            TimeKey::new(2019, 9).unwrap(),
        );
        tile.merge(&batch_a());
        tile.merge(&batch_b());
        let bytes = tile.to_bytes();
        let back = Tile::from_bytes(&bytes).unwrap();
        assert_eq!(back.samples(), tile.samples());
        assert_eq!(back.cells(), tile.cells());
        assert_eq!(back.version, tile.version);

        // Corrupt: swap two samples so the canonical order breaks. The
        // sample section starts after tag(4)+version(2)+id(9)+time(3)+
        // merge counter(8)+thickness count(8)+ledger(8+3*8)+len(8); one
        // record is 8+6*8+1+4+2*8 = 77 bytes.
        let mut corrupt = bytes.to_vec();
        let start = 4 + 2 + 9 + 3 + 8 + 8 + (8 + 3 * 8) + 8;
        let (a, b) = (start, start + 77);
        let tmp: Vec<u8> = corrupt[a..a + 77].to_vec();
        corrupt.copy_within(b..b + 77, a);
        corrupt[b..b + 77].copy_from_slice(&tmp);
        assert!(matches!(
            Tile::from_bytes(&corrupt),
            Err(ArtifactError::Invalid(_))
        ));
    }

    #[test]
    fn ledger_tracks_merge_replace_and_remove() {
        let mut tile = Tile::new(
            TileId::new(2, 1, 3).unwrap(),
            TimeKey::new(2019, 11).unwrap(),
        );
        tile.merge(&batch_a());
        tile.merge(&batch_b());
        assert_eq!(tile.sources(), &[1, 2, 3]);
        assert!(tile.has_source(2) && !tile.has_source(4));
        tile.check_consistency().unwrap();

        // Replace source 2 with a perturbed pair of samples.
        let newer = vec![
            sample(2, 11.0, 0.33, SurfaceClass::ThickIce, 5),
            sample(2, 13.0, 0.01, SurfaceClass::OpenWater, 6),
        ];
        let removed = tile.replace_source(2, &newer);
        assert_eq!(removed, 2);
        assert_eq!(tile.sources(), &[1, 2, 3]);
        assert_eq!(tile.samples().iter().filter(|s| s.source == 2).count(), 2);
        tile.check_consistency().unwrap();

        // Replacing with nothing removes the source from the ledger.
        let removed = tile.replace_source(2, &[]);
        assert_eq!(removed, 2);
        assert_eq!(tile.sources(), &[1, 3]);
        tile.check_consistency().unwrap();

        // Replace equals a fresh build of the same content, bit for bit
        // (versions aside).
        let mut fresh = Tile::new(tile.id, tile.time);
        fresh.merge(&batch_a());
        fresh.merge(&batch_b());
        let newer2 = newer.clone();
        fresh.replace_source(2, &newer2);
        fresh.replace_source(2, &[]);
        assert_eq!(fresh.samples(), tile.samples());
        assert_eq!(fresh.cells(), tile.cells());
    }

    #[test]
    fn freeze_detail_preserves_cells_and_survives_roundtrip() {
        let mut tile = Tile::new(
            TileId::new(3, 7, 2).unwrap(),
            TimeKey::new(2019, 9).unwrap(),
        );
        tile.merge(&batch_a());
        tile.merge(&batch_b());
        let cells_before = tile.cells().clone();
        let ledger_before = tile.sources().to_vec();
        let dropped = tile.freeze_detail();
        assert_eq!(dropped, 5);
        assert!(tile.samples().is_empty());
        assert_eq!(tile.n_dropped(), 5);
        assert_eq!(tile.cells(), &cells_before, "aggregates survive retention");
        assert_eq!(tile.sources(), &ledger_before[..]);
        tile.check_consistency().unwrap();

        // A roundtrip keeps the frozen base.
        let back = Tile::from_bytes(&tile.to_bytes()).unwrap();
        assert_eq!(back.cells(), &cells_before);
        assert_eq!(back.n_dropped(), 5);
        assert_eq!(back.sources(), &ledger_before[..]);

        // New samples still merge on top of the frozen base.
        let mut merged = back.clone();
        merged.merge(&[sample(9, 1.0, 0.5, SurfaceClass::ThickIce, 5)]);
        merged.check_consistency().unwrap();
        assert_eq!(merged.cells()[&5].n, cells_before[&5].n + 1);
    }

    /// Thickness aggregates: canonical-order sums, IVW combination, and
    /// the nearest-rank p95 over bearing samples only.
    #[test]
    fn thickness_aggregates_cover_bearing_samples_only() {
        let mut tile = Tile::new(
            TileId::new(2, 1, 3).unwrap(),
            TimeKey::new(2019, 11).unwrap(),
        );
        let batch = vec![
            thick_sample(1, 2.0, 0.30, 5, 2.0, 0.5),
            thick_sample(1, 4.0, 0.35, 5, 3.0, 0.25),
            // Freeboard-only sample in the same cell: counted in n,
            // invisible to thickness stats.
            sample(1, 6.0, 0.10, SurfaceClass::ThinIce, 5),
        ];
        tile.merge(&batch);
        tile.check_consistency().unwrap();
        assert_eq!(tile.n_thickness(), 2);
        let c = tile.cells()[&5];
        assert_eq!(c.n, 3);
        assert_eq!(c.t_n, 2);
        assert!((c.mean_thickness_m() - 2.5).abs() < 1e-15);
        // IVW: weights 1/0.25 = 4 and 1/0.0625 = 16 → (8 + 48)/20 = 2.8.
        assert!((c.ivw_mean_thickness_m() - 2.8).abs() < 1e-12);
        assert!((c.thickness_sigma_m() - (1.0f64 / 20.0).sqrt()).abs() < 1e-12);
        // p95 of [2.0, 3.0] is the 2nd nearest-rank value.
        assert_eq!(c.t_p95_m, 3.0);

        // Ingest order does not change the bytes (thickness included).
        let mut rev = Tile::new(tile.id, tile.time);
        rev.merge(&[batch[2], batch[1]]);
        rev.merge(&[batch[0]]);
        assert_eq!(rev.samples(), tile.samples());
        assert_eq!(rev.cells(), tile.cells());

        // Freezing detail preserves the thickness aggregates and the
        // p95 survives as the frozen base's.
        let cells_before = tile.cells().clone();
        tile.freeze_detail();
        assert_eq!(tile.cells(), &cells_before);
        assert_eq!(tile.n_thickness(), 0, "bearing count covers live samples");
        let back = Tile::from_bytes(&tile.to_bytes()).unwrap();
        assert_eq!(back.cells(), &cells_before);
        back.check_consistency().unwrap();
    }

    /// The cached summary partial covers the live samples only, is
    /// rebuilt by every merge and decode, and a drifted copy fails the
    /// consistency check.
    #[test]
    fn layer_partial_tracks_live_samples_and_is_checked() {
        let mut tile = Tile::new(
            TileId::new(2, 1, 3).unwrap(),
            TimeKey::new(2019, 11).unwrap(),
        );
        tile.merge(&batch_a());
        tile.merge(&[thick_sample(4, 20.0, 0.5, 70, 2.5, 0.5)]);
        let p = tile.partial().clone();
        assert_eq!(p.moments.n_samples, 4);
        assert_eq!(p.moments.class_counts, [2, 1, 1]);
        assert_eq!(p.moments.t_n, 1);
        assert_eq!(p.moments.t_w_sum, 4.0);
        let mut cells = vec![0u64; 1];
        p.or_cells_into(&mut cells);
        assert_eq!(cells, vec![1 << 5 | 1 << 9, 1 << 6], "cells 5, 9 and 70");
        assert_eq!((p.map.min.x, p.map.max.y), (1.0, 2.0));
        assert_eq!((p.geo.lat_min, p.geo.lon_max), (-74.0, -160.0));
        assert!(!p.non_finite);

        let back = Tile::from_bytes(&tile.to_bytes()).unwrap();
        assert_eq!(back.partial(), &p, "decode rebuilds the same partial");

        let mut drifted = tile.clone();
        drifted.partial.moments.ice_sum_m += 1e-12;
        assert_eq!(
            drifted.check_consistency(),
            Err("summary partial inconsistent with samples")
        );

        // Retention freezes the cells but empties the partial.
        tile.freeze_detail();
        assert_eq!(tile.partial().moments.n_samples, 0);
        tile.check_consistency().unwrap();

        // A non-finite coordinate is flagged; the extents skip it.
        let mut odd = sample(5, 1.0, 0.2, SurfaceClass::ThinIce, 2);
        odd.lon = f64::NAN;
        tile.merge(&[odd]);
        assert!(tile.partial().non_finite);
        assert_eq!(tile.partial().geo.lon_min, f64::INFINITY);
        tile.check_consistency().unwrap();
    }

    #[test]
    fn sample_cells_beyond_any_grid_are_rejected_on_decode() {
        let mut tile = Tile::new(
            TileId::new(2, 1, 3).unwrap(),
            TimeKey::new(2019, 11).unwrap(),
        );
        tile.merge(&[sample(1, 0.0, 0.1, SurfaceClass::ThickIce, MAX_CELLS)]);
        assert!(matches!(
            Tile::from_bytes(&tile.to_bytes()),
            Err(ArtifactError::Invalid(_))
        ));
    }

    #[test]
    fn source_id_is_stable_and_spread() {
        let a = SampleRecord::source_id("20191104195311_05000210", 1);
        let b = SampleRecord::source_id("20191104195311_05000210", 1);
        let c = SampleRecord::source_id("20191104195311_05010210", 1);
        let d = SampleRecord::source_id("20191104195311_05000210", 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn peek_reads_header_without_samples() {
        let mut tile = Tile::new(
            TileId::new(3, 5, 1).unwrap(),
            TimeKey::new(2019, 10).unwrap(),
        );
        tile.merge(&batch_a());
        tile.merge(&batch_b());
        tile.merge(&[thick_sample(4, 20.0, 0.5, 7, 2.5, 0.3)]);
        let path = std::env::temp_dir().join(format!("seaice_tile_peek_{}", std::process::id()));
        tile.save(&path).unwrap();
        let header = Tile::peek(&path).unwrap();
        assert_eq!(header.id, tile.id);
        assert_eq!(header.time, tile.time);
        assert_eq!(header.version, 3);
        assert_eq!(header.n_samples, tile.samples().len() as u64);
        assert_eq!(header.n_thickness, 1);
        assert_eq!(header.ledger, vec![1, 2, 3, 4]);
        assert_eq!(header.ledger, tile.sources());
        // A truncated header errors rather than panics.
        let bytes = tile.to_bytes();
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(Tile::peek(&path).is_err());
        // A ledger length running past the end of the file fails typed,
        // before anything of the claimed length is allocated.
        let mut long = bytes[..50].to_vec();
        long[34..42].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        std::fs::write(&path, &long).unwrap();
        assert!(matches!(Tile::peek(&path), Err(ArtifactError::Truncated)));
        let _ = std::fs::remove_file(&path);
    }

    /// Offset of the first sample record in a tile of `n_ledger`
    /// sources: tag(4) + format version(2) + id(9) + time(3) + merge
    /// counter(8) + thickness count(8) + ledger(8 + 8·n) + sample
    /// count(8).
    fn samples_at(n_ledger: usize) -> usize {
        4 + 2 + 9 + 3 + 8 + 8 + (8 + 8 * n_ledger) + 8
    }

    /// Sources 1, 2 and 3 with one bearing sample, so every header
    /// field and record field holds something non-trivial.
    fn small_tile() -> Tile {
        let mut tile = Tile::new(
            TileId::new(3, 7, 2).unwrap(),
            TimeKey::new(2019, 9).unwrap(),
        );
        tile.merge(&batch_a());
        tile.merge(&batch_b());
        tile.merge(&[thick_sample(3, 9.0, 0.45, 2, 2.25, 0.4)]);
        tile
    }

    fn decode_err(bytes: &[u8]) -> ArtifactError {
        match Tile::from_bytes(bytes) {
            Ok(_) => panic!("corrupt tile decoded"),
            Err(e) => e,
        }
    }

    /// The encoded format, pinned: a change to any byte of a tile's
    /// encoding (field order, width, endianness, section layout) moves
    /// these hashes.
    #[test]
    fn tile_bytes_are_pinned() {
        let tile = small_tile();
        let bytes = tile.to_bytes();
        assert_eq!(bytes.len(), samples_at(3) + 6 * 77 + 8);
        assert_eq!(crate::fnv1a(bytes.iter().copied()), 0xfb33_bd05_85f0_884e);

        let mut frozen = tile;
        frozen.freeze_detail();
        frozen.merge(&[thick_sample(9, 1.0, 0.5, 5, 1.75, 0.3)]);
        let bytes = frozen.to_bytes();
        assert_eq!(crate::fnv1a(bytes.iter().copied()), 0x70ed_8c79_5d7d_3e5b);
        assert_eq!(Tile::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn header_thickness_count_off_by_one_is_rejected() {
        let bytes = small_tile().to_bytes();
        let count = u64::from_le_bytes(bytes[26..34].try_into().unwrap());
        assert_eq!(count, 1);
        for wrong in [count - 1, count + 1] {
            let mut corrupt = bytes.to_vec();
            corrupt[26..34].copy_from_slice(&wrong.to_le_bytes());
            assert!(matches!(
                decode_err(&corrupt),
                ArtifactError::Invalid("header thickness count inconsistent with samples")
            ));
        }
    }

    #[test]
    fn sample_source_missing_from_ledger_is_rejected() {
        for missing in [1, 2, 3] {
            let mut tile = small_tile();
            tile.ledger.retain(|&s| s != missing);
            assert!(matches!(
                decode_err(&tile.to_bytes()),
                ArtifactError::Invalid("sample source missing from ledger")
            ));
        }
    }

    #[test]
    fn ledger_source_without_samples_or_base_is_rejected() {
        for extra in [0, 4] {
            let mut tile = small_tile();
            let at = tile.ledger.binary_search(&extra).unwrap_err();
            tile.ledger.insert(at, extra);
            assert!(matches!(
                decode_err(&tile.to_bytes()),
                ArtifactError::Invalid("ledger lists a source with no samples and no base")
            ));
        }
        // With a frozen base the same ledger entry is a retired source.
        let mut frozen = small_tile();
        frozen.freeze_detail();
        frozen.ledger.push(4);
        Tile::from_bytes(&frozen.to_bytes()).unwrap();
    }

    #[test]
    fn base_cells_out_of_order_are_rejected() {
        let mut tile = small_tile();
        tile.freeze_detail();
        assert_eq!(tile.base().len(), 4);
        // The base section ends the file: a count, then one
        // cell(4) + aggregate(104) entry per cell. Swap the last two.
        let bytes = tile.to_bytes();
        let entry = 4 + 104;
        let b = bytes.len() - entry;
        let a = b - entry;
        let mut corrupt = bytes.to_vec();
        let tmp = corrupt[a..b].to_vec();
        corrupt.copy_within(b.., a);
        corrupt[b..].copy_from_slice(&tmp);
        assert!(matches!(
            decode_err(&corrupt),
            ArtifactError::Invalid("tile base cells out of order")
        ));
        // A duplicated cell is out of order too.
        let mut dup = bytes.to_vec();
        dup.copy_within(a..a + 4, b);
        assert!(matches!(
            decode_err(&dup),
            ArtifactError::Invalid("tile base cells out of order")
        ));
    }

    #[test]
    fn class_byte_beyond_the_classes_is_rejected() {
        let bytes = small_tile().to_bytes();
        for record in 0..6 {
            let class_at = samples_at(3) + 77 * record + 56;
            for class in [3u8, 255] {
                let mut corrupt = bytes.to_vec();
                corrupt[class_at] = class;
                assert!(matches!(
                    decode_err(&corrupt),
                    ArtifactError::Invalid("surface class")
                ));
            }
        }
    }

    #[test]
    fn records_cut_at_every_length_are_truncated() {
        let bytes = small_tile().to_bytes();
        for record in [0, 5] {
            let start = samples_at(3) + 77 * record;
            for len in 0..77 {
                assert!(matches!(
                    decode_err(&bytes[..start + len]),
                    ArtifactError::Truncated
                ));
            }
        }
    }

    /// Per-sample reference for [`fold_cells`]: one map lookup per
    /// sample, every cell's bearing thicknesses sorted for the p95.
    fn reference_fold(
        id: TileId,
        base: &BTreeMap<u32, CellAggregate>,
        samples: &[SampleRecord],
    ) -> (BTreeMap<u32, CellAggregate>, LayerPartial) {
        let mut cells = base.clone();
        let mut layer = LayerPartial::new(id, 0);
        let mut bearing: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in samples {
            cells
                .entry(s.cell)
                .or_insert_with(CellAggregate::empty)
                .push(s);
            layer.push(s);
            if s.bears_thickness() {
                bearing.entry(s.cell).or_default().push(s.thickness_m);
            }
        }
        for (cell, mut v) in bearing {
            v.sort_by(|a, b| a.total_cmp(b));
            let p95 = seaice::stats::percentile_nearest_rank(&v, 0.95);
            let agg = cells.get_mut(&cell).unwrap();
            agg.t_p95_m = agg.t_p95_m.max(p95);
        }
        (cells, layer)
    }

    fn aggregate_bits(c: &CellAggregate) -> [u64; 13] {
        [
            c.n,
            c.class_counts[0],
            c.class_counts[1],
            c.class_counts[2],
            c.ice_n,
            c.ice_sum_m.to_bits(),
            c.min_freeboard_m.to_bits(),
            c.max_freeboard_m.to_bits(),
            c.t_n,
            c.t_sum_m.to_bits(),
            c.t_w_sum.to_bits(),
            c.t_wt_sum.to_bits(),
            c.t_p95_m.to_bits(),
        ]
    }

    fn partial_bits(p: &LayerPartial) -> Vec<u64> {
        let m = &p.moments;
        let mut bits = vec![
            m.n_samples,
            m.class_counts[0],
            m.class_counts[1],
            m.class_counts[2],
            m.n_ice,
            m.ice_sum_m.to_bits(),
            m.min_freeboard_m.to_bits(),
            m.max_freeboard_m.to_bits(),
            m.t_n,
            m.t_sum_m.to_bits(),
            m.t_w_sum.to_bits(),
            m.t_wt_sum.to_bits(),
            p.map.min.x.to_bits(),
            p.map.min.y.to_bits(),
            p.map.max.x.to_bits(),
            p.map.max.y.to_bits(),
            p.geo.lat_min.to_bits(),
            p.geo.lat_max.to_bits(),
            p.geo.lon_min.to_bits(),
            p.geo.lon_max.to_bits(),
            u64::from(p.non_finite),
        ];
        bits.extend(&p.cells);
        bits
    }

    /// Two sources cross cell 7, so canonical (source-major) order
    /// visits it in two separate runs, each holding bearing samples.
    /// The fold over runs equals the per-sample reference bit for bit,
    /// the p95 included, with and without a frozen base.
    #[test]
    fn fold_per_run_matches_per_sample_reference() {
        let mut batch = Vec::new();
        for (source, cells) in [(11u64, [3u32, 7, 7, 9]), (12, [1, 7, 7, 7])] {
            for (i, &cell) in cells.iter().enumerate() {
                let along = i as f64 * 2.0;
                let fb = 0.1 + 0.07 * (source as f64 - 10.0) + 0.013 * i as f64;
                let mut s = thick_sample(
                    source,
                    along,
                    fb,
                    cell,
                    1.0 + fb * 7.3,
                    0.2 + 0.05 * i as f64,
                );
                s.lat = -74.0 - 0.001 * i as f64;
                s.lon = -160.0 + 0.002 * source as f64;
                s.x_m = 1.0e5 + along;
                s.y_m = -2.0e5 - fb;
                if i == 1 {
                    s = SampleRecord {
                        thickness_m: 0.0,
                        thickness_sigma_m: 0.0,
                        class: SurfaceClass::OpenWater,
                        ..s
                    };
                }
                batch.push(s);
            }
        }
        let mut tile = Tile::new(
            TileId::new(4, 2, 9).unwrap(),
            TimeKey::new(2019, 10).unwrap(),
        );
        tile.merge(&batch);
        let runs: Vec<(u64, u32)> = tile
            .samples()
            .chunk_by(|a, b| a.cell == b.cell)
            .map(|run| (run[0].source, run[0].cell))
            .collect();
        assert_eq!(runs.iter().filter(|&&(_, c)| c == 7).count(), 2);
        let c7: Vec<&SampleRecord> = tile.samples().iter().filter(|s| s.cell == 7).collect();
        assert!(c7.iter().any(|s| s.source == 11 && s.bears_thickness()));
        assert!(c7.iter().any(|s| s.source == 12 && s.bears_thickness()));

        let check = |tile: &Tile| {
            let (cells, partial) = reference_fold(tile.id, &tile.base, tile.samples());
            let got: Vec<(u32, [u64; 13])> = tile
                .cells()
                .iter()
                .map(|(&c, a)| (c, aggregate_bits(a)))
                .collect();
            let want: Vec<(u32, [u64; 13])> =
                cells.iter().map(|(&c, a)| (c, aggregate_bits(a))).collect();
            assert_eq!(got, want);
            assert_eq!(partial_bits(tile.partial()), partial_bits(&partial));
            tile.check_consistency().unwrap();
            let back = Tile::from_bytes(&tile.to_bytes()).unwrap();
            assert_eq!(back.cells(), tile.cells());
            assert_eq!(partial_bits(back.partial()), partial_bits(&partial));
        };
        check(&tile);
        assert_eq!(tile.cells()[&7].t_n, 3);

        // A frozen base under cell 7, then both sources again on top.
        tile.freeze_detail();
        let again: Vec<SampleRecord> = batch
            .iter()
            .map(|s| SampleRecord {
                along_track_m: s.along_track_m + 1.0,
                thickness_m: s.thickness_m * 1.5,
                ..*s
            })
            .collect();
        tile.merge(&again);
        check(&tile);
    }

    #[test]
    fn manifest_roundtrip() {
        let m = CatalogManifest {
            grid: crate::grid::GridConfig::ross_sea(),
        };
        let back = CatalogManifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }
}
