//! Fan one trained model out over a fleet of granules.
//!
//! [`FleetDriver`] is the scaled execution layer of the staged API: it
//! owns a [`sparklite::Cluster`] (executors × cores, really threaded) and
//! the per-beam processing configs, and runs three paper workloads over
//! `(granule file, beam)` partitions:
//!
//! - [`FleetDriver::autolabel_run`] — Table II: preprocess → 2 m resample
//!   → label transfer against a shared (broadcast) S2 raster;
//! - [`FleetDriver::freeboard_run`] — Table V: preprocess → resample →
//!   fast threshold classification → per-beam sea surface + freeboard;
//! - [`FleetDriver::classify_run`] — the staged-API headline: one
//!   serialized [`TrainedModels`] broadcast to every partition, LSTM
//!   inference + sea surface + freeboard per beam.
//!
//! Results combine in partition order, so every topology produces
//! identical products — the invariant the scalability tables rely on.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use icesat_atl03::{
    io as granule_io, preprocess_beam, resample_2m, Beam, GeneratorConfig, PreprocessConfig,
    ResampleConfig, Segment,
};
use icesat_scene::SurfaceClass;
use icesat_sentinel2::LabelRaster;
use sparklite::{Cluster, StageReport};

use crate::artifact::Artifact;
use crate::freeboard::FreeboardProduct;
use crate::heuristic::{heuristic_classes, HeuristicConfig};
use crate::labeling::{autolabel_segments, LabeledSegment};
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::seasurface::{SeaSurface, SeaSurfaceMethod, WindowConfig};
use crate::stages::TrainedModels;

/// Per-`(granule, beam)` output of a fleet classification run.
#[derive(Debug, Clone)]
pub struct BeamProducts {
    /// Granule id the beam came from.
    pub granule_id: String,
    /// Which beam.
    pub beam: Beam,
    /// 2 m segments processed.
    pub n_segments: usize,
    /// Segments per inferred class (thick, thin, open water).
    pub class_counts: [usize; 3],
    /// The beam's 2 m freeboard product.
    pub freeboard: FreeboardProduct,
}

impl BeamProducts {
    /// Mean freeboard over ice segments, metres (0 when no ice).
    pub fn mean_ice_freeboard_m(&self) -> f64 {
        let ice = self.freeboard.ice_freeboards();
        if ice.is_empty() {
            0.0
        } else {
            ice.iter().sum::<f64>() / ice.len() as f64
        }
    }
}

/// Aggregate result of one fleet freeboard run (Table V workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeboardSummary {
    /// Ice freeboard samples across the whole fleet.
    pub n_ice_segments: usize,
    /// Mean ice freeboard over the fleet, metres (0 when no ice).
    pub mean_freeboard_m: f64,
}

/// A cluster plus the per-beam processing configuration — the scaled
/// execution layer for every fleet workload.
pub struct FleetDriver {
    cluster: Cluster,
    preprocess: PreprocessConfig,
    resample: ResampleConfig,
    window: WindowConfig,
    heuristic: HeuristicConfig,
}

impl FleetDriver {
    /// A driver on `cluster` taking processing knobs from `config`.
    pub fn new(cluster: Cluster, config: &PipelineConfig) -> Self {
        FleetDriver {
            cluster,
            preprocess: config.preprocess,
            resample: config.resample,
            window: config.window,
            heuristic: HeuristicConfig::default(),
        }
    }

    /// The underlying cluster topology.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Replaces the cluster topology (e.g. for a scalability sweep).
    pub fn with_cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = cluster;
        self
    }

    /// Materialises `n_granules` granule files (three strong beams each)
    /// under `dir`, returning `(file, beam)` sources — one partition each.
    pub fn write_fleet(
        pipeline: &Pipeline,
        dir: &Path,
        n_granules: usize,
    ) -> std::io::Result<Vec<(PathBuf, Beam)>> {
        std::fs::create_dir_all(dir)?;
        let mut sources = Vec::with_capacity(n_granules * 3);
        for g in 0..n_granules {
            let mut meta = pipeline.meta();
            meta.rgt = 500 + g as u16;
            let granule = icesat_atl03::generator::standard_granule(
                &pipeline.scene,
                GeneratorConfig {
                    seed: pipeline.cfg.generator.seed ^ (g as u64 + 1),
                    ..pipeline.cfg.generator
                },
                meta,
                pipeline.cfg.track_length_m,
            );
            let path = dir.join(format!("{}.a3g", granule.meta.granule_id()));
            granule_io::write_file(&granule, &path)?;
            for beam in Beam::STRONG {
                sources.push((path.clone(), beam));
            }
        }
        Ok(sources)
    }

    /// One auto-labeling run over granule files (Table II workload).
    ///
    /// Stage split mirrors the paper's: **load** reads and decodes raw
    /// photon files; **map** lazily registers the per-beam transformation
    /// (preprocess → 2 m resample → label transfer against the shared
    /// raster); **reduce** executes it and folds per-class counts — the
    /// 16.25× column of Table II lives there.
    pub fn autolabel_run(
        &self,
        sources: &[(PathBuf, Beam)],
        raster: Arc<LabelRaster>,
    ) -> ([usize; 4], StageReport) {
        let preprocess = self.preprocess;
        let resample = self.resample;
        let (counts, report) = self.cluster.run_pipeline(
            sources.to_vec(),
            // Load: file read + decode only — one whole raw beam per
            // partition.
            move |(path, beam)| {
                let granule = granule_io::read_file(path).expect("granule file readable");
                let data = granule.beam(*beam).expect("beam present");
                vec![data.clone()]
            },
            // Map (lazy): the full per-beam compute chain.
            move |rdd| {
                let raster = Arc::clone(&raster);
                rdd.map(move |beam_data: icesat_atl03::BeamData| {
                    let pre = preprocess_beam(&beam_data, &preprocess);
                    let segments = resample_2m(&pre, &resample);
                    autolabel_segments(&segments, &raster)
                })
            },
            // Reduce: executes the chain, folds per-class counts.
            |part: Vec<Vec<LabeledSegment>>| {
                let mut counts = [0usize; 4];
                for l in part.into_iter().flatten() {
                    match l.label {
                        Some(c) => counts[c.index()] += 1,
                        None => counts[3] += 1,
                    }
                }
                counts
            },
            |mut a, b| {
                for i in 0..4 {
                    a[i] += b[i];
                }
                a
            },
        );
        (counts.unwrap_or([0; 4]), report)
    }

    /// One freeboard run over granule files (Table V workload): load =
    /// read + decode; map = preprocess + resample + fast threshold
    /// classification; reduce = per-partition sea surface + freeboard,
    /// combined into global stats.
    pub fn freeboard_run(&self, sources: &[(PathBuf, Beam)]) -> (FreeboardSummary, StageReport) {
        let preprocess = self.preprocess;
        let resample = self.resample;
        let window = self.window;
        let heuristic = self.heuristic;
        let (out, report) = self.cluster.run_pipeline(
            sources.to_vec(),
            // Load: file read + decode only.
            move |(path, beam)| {
                let granule = granule_io::read_file(path).expect("granule file readable");
                let data = granule.beam(*beam).expect("beam present");
                vec![data.clone()]
            },
            // Map (lazy): preprocess, resample, classify. One partition =
            // one whole beam, so the partition-local sea surface in the
            // reduce is a legitimate 10 km-window product.
            move |rdd| {
                rdd.map(move |beam_data: icesat_atl03::BeamData| {
                    let pre = preprocess_beam(&beam_data, &preprocess);
                    let segments = resample_2m(&pre, &resample);
                    // Fast physics-threshold classification (the scaled
                    // freeboard stage consumes an already-classified
                    // product in the paper; the heuristic stands in for
                    // stored classes).
                    let classes = heuristic_classes(&segments, &heuristic);
                    (segments, classes)
                })
            },
            move |part: Vec<(Vec<Segment>, Vec<SurfaceClass>)>| {
                let mut n = 0usize;
                let mut sum = 0.0f64;
                for (segments, classes) in part {
                    if segments.is_empty() || !classes.contains(&SurfaceClass::OpenWater) {
                        continue;
                    }
                    let surface = SeaSurface::compute(
                        &segments,
                        &classes,
                        SeaSurfaceMethod::NasaEquation,
                        &window,
                    );
                    let product =
                        FreeboardProduct::from_segments("scaled", &segments, &classes, &surface);
                    let ice = product.ice_freeboards();
                    n += ice.len();
                    sum += ice.iter().sum::<f64>();
                }
                (n, sum)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        let (n, sum) = out.unwrap_or((0, 0.0));
        let summary = FreeboardSummary {
            n_ice_segments: n,
            mean_freeboard_m: if n > 0 { sum / n as f64 } else { 0.0 },
        };
        (summary, report)
    }

    /// Applies one [`TrainedModels`] to every `(granule, beam)` partition
    /// — DL classification, NASA sea surface, and 2 m freeboard per beam.
    ///
    /// The models are broadcast as their serialized artifact bytes and
    /// deserialized partition-locally, exactly like a Spark broadcast
    /// variable: training happens once, inference fans out.
    pub fn classify_run(
        &self,
        sources: &[(PathBuf, Beam)],
        models: &TrainedModels,
    ) -> (Vec<BeamProducts>, StageReport) {
        let preprocess = self.preprocess;
        let resample = self.resample;
        let window = self.window;
        let broadcast: Arc<Vec<u8>> = Arc::new(models.to_bytes().to_vec());
        let (out, report) = self.cluster.run_pipeline(
            sources.to_vec(),
            // Load: file read + decode; keep the granule id for the
            // per-beam product.
            move |(path, beam)| {
                let granule = granule_io::read_file(path).expect("granule file readable");
                let data = granule.beam(*beam).expect("beam present");
                vec![(granule.meta.granule_id(), data.clone())]
            },
            // Map (lazy): rehydrate the broadcast models, classify, and
            // derive the beam's freeboard product.
            move |rdd| {
                let broadcast = Arc::clone(&broadcast);
                rdd.map(
                    move |(granule_id, beam_data): (String, icesat_atl03::BeamData)| {
                        use std::cell::RefCell;
                        // Each worker thread decodes the broadcast once and
                        // keeps the rehydrated models — with their warmed
                        // inference workspace — for every (granule, beam)
                        // partition it pulls, instead of re-decoding per
                        // partition. Keyed by the broadcast Arc (which the
                        // cache keeps alive, so pointer identity is sound).
                        thread_local! {
                            static WORKER_MODELS: RefCell<Option<(Arc<Vec<u8>>, TrainedModels)>> =
                                const { RefCell::new(None) };
                        }
                        let beam = beam_data.beam;
                        let pre = preprocess_beam(&beam_data, &preprocess);
                        let segments = resample_2m(&pre, &resample);
                        let classes = WORKER_MODELS.with(|cell| {
                            let mut slot = cell.borrow_mut();
                            let stale = !matches!(
                                &*slot,
                                Some((cached, _)) if Arc::ptr_eq(cached, &broadcast)
                            );
                            if stale {
                                let models = TrainedModels::from_bytes(&broadcast)
                                    .expect("broadcast models decode");
                                *slot = Some((Arc::clone(&broadcast), models));
                            }
                            let (_, models) = slot.as_mut().expect("just populated");
                            models.classify(&segments)
                        });
                        let mut class_counts = [0usize; 3];
                        for c in &classes {
                            class_counts[c.index()] += 1;
                        }
                        let surface = SeaSurface::compute_with_floor_fallback(
                            &segments,
                            &classes,
                            SeaSurfaceMethod::NasaEquation,
                            &window,
                        );
                        let freeboard = FreeboardProduct::from_segments(
                            "fleet 2m", &segments, &classes, &surface,
                        );
                        BeamProducts {
                            granule_id,
                            beam,
                            n_segments: segments.len(),
                            class_counts,
                            freeboard,
                        }
                    },
                )
            },
            // Reduce: collect per-beam products in partition order.
            |part: Vec<BeamProducts>| part,
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        (out.unwrap_or_default(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::PipelineBuilder;

    fn small_fleet(
        seed: u64,
        n_granules: usize,
        dir_tag: &str,
    ) -> (Pipeline, Vec<(PathBuf, Beam)>, std::path::PathBuf) {
        let pipeline = Pipeline::new(PipelineConfig::small(seed));
        let dir = std::env::temp_dir().join(format!("seaice_fleet_{dir_tag}_{seed}"));
        let sources = FleetDriver::write_fleet(&pipeline, &dir, n_granules).expect("fleet");
        (pipeline, sources, dir)
    }

    #[test]
    fn classify_run_is_topology_invariant() {
        let (pipeline, sources, dir) = small_fleet(17, 2, "classify");
        let run = PipelineBuilder::new(pipeline.cfg.clone()).run();

        let d1 = FleetDriver::new(Cluster::new(1, 1), &pipeline.cfg);
        let d4 = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);
        let (p1, _) = d1.classify_run(&sources, &run.models);
        let (p4, _) = d4.classify_run(&sources, &run.models);

        assert_eq!(p1.len(), sources.len());
        assert_eq!(p1.len(), p4.len());
        for (a, b) in p1.iter().zip(&p4) {
            assert_eq!(a.granule_id, b.granule_id);
            assert_eq!(a.beam, b.beam);
            assert_eq!(a.class_counts, b.class_counts);
            assert_eq!(a.freeboard.points, b.freeboard.points);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn classify_run_covers_every_beam_partition() {
        let (pipeline, sources, dir) = small_fleet(23, 2, "beams");
        let run = PipelineBuilder::new(pipeline.cfg.clone()).run();
        let driver = FleetDriver::new(Cluster::new(2, 1), &pipeline.cfg);
        let (products, report) = driver.classify_run(&sources, &run.models);
        assert_eq!(products.len(), 6, "2 granules x 3 strong beams");
        for p in &products {
            assert!(p.n_segments > 500, "{}/{} too small", p.granule_id, p.beam);
            assert_eq!(p.class_counts.iter().sum::<usize>(), p.n_segments);
            assert!(!p.freeboard.is_empty());
        }
        assert!(report.times.reduce_s >= 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
