//! Seeded inputs shared by the workloads: the pipeline configuration,
//! the grid, the trained models, and month-tagged granule fleets. The
//! same seed always gives the same inputs.

use std::path::{Path, PathBuf};

use icesat_atl03::{
    io as granule_io, Atl03Generator, Beam, GeneratorConfig, GranuleMeta, TrackConfig,
};
use seaice::pipeline::{Pipeline, PipelineConfig};
use seaice::stages::{CuratedTrack, LabeledDataset, TrainedModels};
use seaice_catalog::GridConfig;

/// Acquisition year of every granule.
pub const YEAR: u16 = 2019;

/// Quadtree level of the catalog grid: 32 x 32 tiles of 1 km over the
/// 32 km domain, so one 8 km track crosses a dozen tiles.
const GRID_LEVEL: u8 = 5;

/// Aggregate cells per tile side (about 31 m cells).
const TILE_CELLS: u16 = 32;

/// The per-seed pipeline: an 8 km track over an 8 km scene, three
/// strong beams per granule (about 3.5k 2 m segments per beam).
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig::small(seed)
}

/// The grid every catalog of the benchmark uses: centred on the scene,
/// twice the track length on each side.
pub fn grid(cfg: &PipelineConfig) -> GridConfig {
    GridConfig::new(
        cfg.scene.center,
        2.0 * cfg.track_length_m,
        GRID_LEVEL,
        TILE_CELLS,
    )
    .expect("benchmark grid parameters are valid")
}

/// Trains the paper's classifiers through the staged API: curate the
/// central beam, auto-label it against the coincident S2 scene, fit.
pub fn train(pipeline: &Pipeline) -> TrainedModels {
    let track = CuratedTrack::curate_with(pipeline, Beam::Gt2l);
    let labeled = LabeledDataset::label_with_scene(&track, &pipeline.scene);
    labeled.train(&track)
}

/// SplitMix64: the benchmark's one deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_7c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// An ATL03-style granule id acquired in `month` on reference ground
/// track `rgt` (the leading `YYYYMM` selects the catalog layer).
pub fn granule_id(month: u8, rgt: u16) -> String {
    meta(month, rgt).granule_id()
}

fn meta(month: u8, rgt: u16) -> GranuleMeta {
    GranuleMeta {
        acquisition: format!("{YEAR}{month:02}04195311"),
        rgt,
        cycle: 5,
        release: 6,
        epoch_offset_min: 0.0,
    }
}

/// Writes `n` granule files under `dir` and returns their `(file, beam)`
/// sources, three strong beams per granule in granule order. Granule
/// `g` is acquired in `month_of(g)` on its own track: the scene-centred
/// crossing shifted across-track and turned by an amount fixed by `g`,
/// so the fleet covers a band of tiles rather than one line and the
/// catalog's shape does not vary with the seed (the scene, the photons
/// and therefore every product do).
pub fn write_fleet(
    pipeline: &Pipeline,
    dir: &Path,
    n: usize,
    month_of: impl Fn(usize) -> u8,
) -> std::io::Result<Vec<(PathBuf, Beam)>> {
    std::fs::create_dir_all(dir)?;
    let cfg = &pipeline.cfg;
    let mut sources = Vec::with_capacity(3 * n);
    for g in 0..n {
        let spread = |k: usize| ((g * k) % 12) as f64 / 11.0 - 0.5;
        let mut track = TrackConfig::crossing(cfg.scene.center, cfg.track_length_m);
        track.origin.x += spread(7) * 3_000.0;
        track.heading_rad += spread(5) * 0.3;
        let generator = Atl03Generator::new(
            &pipeline.scene,
            GeneratorConfig {
                seed: cfg.generator.seed ^ (g as u64 + 1),
                ..cfg.generator
            },
        );
        let granule = generator.generate(meta(month_of(g), 500 + g as u16), &track, &Beam::STRONG);
        let path = dir.join(format!("{}.a3g", granule.meta.granule_id()));
        granule_io::write_file(&granule, &path)?;
        for beam in Beam::STRONG {
            sources.push((path.clone(), beam));
        }
    }
    Ok(sources)
}

/// `available_parallelism`, the size of every worker pool the
/// benchmark configures.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
