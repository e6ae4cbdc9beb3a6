//! Offline catalog compaction: re-gridding, layer merging, and
//! retention.
//!
//! A live catalog only ever grows, and its grid is pinned by the
//! manifest (`GridMismatch` on open). [`compact`] is the offline escape
//! hatch: it rewrites a whole catalog into a **fresh directory** under
//! the destination's writer lease, and in one pass can
//!
//! - **re-grid** — re-bin every sample into a different [`GridConfig`]
//!   (level / cell-size / domain change) using the stored EPSG-3976
//!   coordinates, no re-projection needed;
//! - **merge layers** — fold monthly [`TimeKey`] layers into seasonal
//!   ones ([`LayerMap::Seasonal`]), southern-hemisphere meteorological
//!   seasons keyed by their starting month;
//! - **retire detail** — apply a retention horizon that drops
//!   segment-level samples from layers before a cutoff while freezing
//!   their per-cell aggregates into the tiles' base sections
//!   ([`crate::Tile::base`]), so cell/point composites keep answering
//!   bit-identically after the samples are gone.
//!
//! The identity compaction (same grid, [`LayerMap::Monthly`], no
//! retention) is pinned to answer `query_cells` / `stats` / the summary
//! queries **bit-identically** to the source catalog — compaction is a
//! rewrite, never a reinterpretation. Tile assembly runs rayon-parallel
//! over target tiles; every floating-point fold is deterministically
//! ordered (source layers chronological, samples canonical), so a
//! compaction of the same source is reproducible bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use rayon::prelude::*;

use crate::cache::TileKey;
use crate::grid::{GridConfig, TileId, TimeKey};
use crate::lease::LeaseOptions;
use crate::store::{Catalog, CatalogOptions};
use crate::tile::{CellAggregate, SampleRecord, Tile};
use crate::CatalogError;

/// How source layers map onto destination layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayerMap {
    /// Keep monthly layers as they are.
    #[default]
    Monthly,
    /// Fold months into southern-hemisphere meteorological seasons,
    /// keyed by the season's starting month: Dec–Feb → December of the
    /// starting year (January 2020 joins December 2019), Mar–May →
    /// March, Jun–Aug → June, Sep–Nov → September.
    Seasonal,
}

impl LayerMap {
    /// The destination layer for a source layer.
    pub fn map(&self, t: TimeKey) -> TimeKey {
        match self {
            LayerMap::Monthly => t,
            LayerMap::Seasonal => match t.month {
                12 => TimeKey {
                    year: t.year,
                    month: 12,
                },
                1 | 2 => TimeKey {
                    year: t.year.saturating_sub(1),
                    month: 12,
                },
                m => TimeKey {
                    year: t.year,
                    month: m - (m - 3) % 3,
                },
            },
        }
    }
}

/// What a compaction run should produce.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// The destination grid. Samples are re-binned through their stored
    /// projected coordinates; base aggregates move wholesale to the cell
    /// containing their source cell's centre.
    pub grid: GridConfig,
    /// Destination layer mapping.
    pub layers: LayerMap,
    /// Retention horizon: destination layers strictly before this key
    /// drop their segment-level samples and keep frozen per-cell
    /// aggregates (and their ledgers). `None` keeps every sample.
    pub retention: Option<TimeKey>,
    /// Concurrency options for the destination catalog.
    pub options: CatalogOptions,
    /// Writer-lease options for the destination directory.
    pub lease: LeaseOptions,
}

impl CompactionConfig {
    /// The identity rewrite for `grid`: monthly layers, no retention,
    /// default options, and a lease owned by `"compaction"`.
    pub fn rewrite(grid: GridConfig) -> CompactionConfig {
        CompactionConfig {
            grid,
            layers: LayerMap::Monthly,
            retention: None,
            options: CatalogOptions::default(),
            lease: LeaseOptions::new("compaction"),
        }
    }
}

/// What one compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Tiles read from the source.
    pub n_source_tiles: usize,
    /// Tiles written to the destination.
    pub n_target_tiles: usize,
    /// Temporal layers in the source.
    pub n_layers_in: usize,
    /// Temporal layers in the destination.
    pub n_layers_out: usize,
    /// Samples read from the source.
    pub n_samples_in: usize,
    /// Samples carried into the destination segment-level.
    pub n_samples_out: usize,
    /// Samples retired into frozen base aggregates by retention.
    pub n_retired: usize,
    /// Samples dropped because they fall outside the destination grid.
    pub n_out_of_domain: usize,
}

/// One source tile's contribution to one destination tile.
struct Contribution {
    src: TileKey,
    samples: Vec<SampleRecord>,
    base: Vec<(u32, CellAggregate)>,
    ledger: Vec<u64>,
}

impl Contribution {
    fn empty(src: TileKey, ledger: &[u64]) -> Contribution {
        Contribution {
            src,
            samples: Vec::new(),
            base: Vec::new(),
            ledger: ledger.to_vec(),
        }
    }
}

/// Rewrites the catalog at `src_dir` into a fresh `dst_dir` according
/// to `cfg`, holding the destination's writer lease for the duration.
///
/// `dst_dir` must not already contain a catalog. The source is opened
/// read-only and is not modified; compacting a live store is safe to
/// *read* but the result snapshots whatever tiles the scan observed, so
/// run it against a quiesced source for a meaningful artifact.
pub fn compact(
    src_dir: &Path,
    dst_dir: &Path,
    cfg: &CompactionConfig,
) -> Result<CompactionReport, CatalogError> {
    if dst_dir.join("catalog.manifest").exists() {
        return Err(CatalogError::Corrupt(
            "compaction destination already holds a catalog",
        ));
    }
    let src = Catalog::open(src_dir)?;
    let dst = Catalog::create_writer(dst_dir, cfg.grid, cfg.options.clone(), &cfg.lease)?;

    let keys = src.all_keys();
    let mut report = CompactionReport {
        n_source_tiles: keys.len(),
        n_samples_in: src.stats()?.n_samples,
        ..CompactionReport::default()
    };
    report.n_layers_in = {
        let mut layers: Vec<TimeKey> = keys.iter().map(|k| k.time).collect();
        layers.dedup();
        layers.len()
    };

    // Pass 1 — parallel over source tiles: re-bin every sample (and
    // relocate every frozen base cell) into destination addresses.
    type TileContributions = (TimeKey, Vec<(TileId, Contribution)>, usize);
    let contributions: Vec<Result<TileContributions, CatalogError>> = (0..keys.len())
        .into_par_iter()
        .map(|i| {
            let key = &keys[i];
            let Some(tile) = src.load_tile(key)? else {
                return Ok((cfg.layers.map(key.time), Vec::new(), 0));
            };
            let mut n_out = 0usize;
            let mut per_target: BTreeMap<TileId, Contribution> = BTreeMap::new();
            for s in tile.samples() {
                match cfg.grid.locate(icesat_geo::MapPoint::new(s.x_m, s.y_m)) {
                    Some((target, cell)) => {
                        let mut s = *s;
                        s.cell = cell;
                        per_target
                            .entry(target)
                            .or_insert_with(|| Contribution::empty(*key, tile.sources()))
                            .samples
                            .push(s);
                    }
                    None => n_out += 1,
                }
            }
            // A base aggregate has no per-sample positions left; it
            // moves wholesale to the destination cell containing its
            // source cell's centre (aggregates are cell-resolution
            // products — documented precision of re-gridding them).
            for (&cell, agg) in tile.base() {
                let centre = src.grid().cell_center(key.tile, cell);
                match cfg.grid.locate(centre) {
                    Some((target, tcell)) => per_target
                        .entry(target)
                        .or_insert_with(|| Contribution::empty(*key, tile.sources()))
                        .base
                        .push((tcell, *agg)),
                    None => n_out += agg.n as usize,
                }
            }
            Ok((
                cfg.layers.map(key.time),
                per_target.into_iter().collect(),
                n_out,
            ))
        })
        .collect();

    // Group contributions by destination key, in deterministic source
    // order (the par_iter preserved `keys`' time-major order).
    let mut groups: BTreeMap<TileKey, Vec<Contribution>> = BTreeMap::new();
    for item in contributions {
        let (time, parts, n_out) = item?;
        report.n_out_of_domain += n_out;
        for (tile, c) in parts {
            groups.entry(TileKey { time, tile }).or_default().push(c);
        }
    }

    // Pass 2 — parallel over destination tiles: assemble and install.
    let groups: Vec<(TileKey, Vec<Contribution>)> = groups.into_iter().collect();
    let outcomes: Vec<Result<Option<(usize, usize)>, CatalogError>> = (0..groups.len())
        .into_par_iter()
        .map(|i| {
            let (key, contributions) = &groups[i];
            let mut contributions: Vec<&Contribution> = contributions.iter().collect();
            contributions.sort_by_key(|c| c.src);
            let mut samples: Vec<SampleRecord> = Vec::new();
            let mut base: BTreeMap<u32, CellAggregate> = BTreeMap::new();
            let mut union: BTreeSet<u64> = BTreeSet::new();
            for c in &contributions {
                samples.extend_from_slice(&c.samples);
                for (cell, agg) in &c.base {
                    base.entry(*cell)
                        .and_modify(|a| a.merge(agg))
                        .or_insert(*agg);
                }
                union.extend(c.ledger.iter().copied());
            }
            samples.sort_unstable_by(SampleRecord::canonical_cmp);
            let retire = cfg.retention.is_some_and(|cutoff| key.time < cutoff);
            // While no base is frozen the ledger must be exactly the
            // samples' sources (re-gridding can split a source tile
            // across targets its samples never reach); once a base
            // exists the union is the only sound superset.
            let ledger: Vec<u64> = if base.is_empty() && !retire {
                samples
                    .iter()
                    .map(|s| s.source)
                    .collect::<BTreeSet<u64>>()
                    .into_iter()
                    .collect()
            } else {
                union.into_iter().collect()
            };
            let mut tile = Tile::from_parts(key.tile, key.time, 1, samples, ledger, base);
            let mut retired = 0usize;
            if retire {
                retired = tile.freeze_detail();
            }
            let written = tile.samples().len();
            if written == 0 && tile.cells().is_empty() {
                // Nothing survived (an empty source tile): skip the file.
                return Ok(None);
            }
            dst.install_tile(*key, tile)?;
            Ok(Some((written, retired)))
        })
        .collect();
    for o in outcomes {
        if let Some((written, retired)) = o? {
            report.n_samples_out += written;
            report.n_retired += retired;
            report.n_target_tiles += 1;
        }
    }

    report.n_layers_out = dst.layers().len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_map_folds_months_into_season_starts() {
        let k = |y, m| TimeKey::new(y, m).unwrap();
        let map = LayerMap::Seasonal;
        assert_eq!(map.map(k(2019, 12)), k(2019, 12));
        assert_eq!(map.map(k(2020, 1)), k(2019, 12));
        assert_eq!(map.map(k(2020, 2)), k(2019, 12));
        assert_eq!(map.map(k(2020, 3)), k(2020, 3));
        assert_eq!(map.map(k(2020, 5)), k(2020, 3));
        assert_eq!(map.map(k(2020, 6)), k(2020, 6));
        assert_eq!(map.map(k(2020, 8)), k(2020, 6));
        assert_eq!(map.map(k(2020, 9)), k(2020, 9));
        assert_eq!(map.map(k(2020, 11)), k(2020, 9));
        assert_eq!(LayerMap::Monthly.map(k(2020, 7)), k(2020, 7));
    }
}
