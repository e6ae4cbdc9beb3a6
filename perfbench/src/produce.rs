//! The `produce` workload: the whole produce path, one granule at a
//! time, landing each in a catalog that has never seen it.
//!
//! Closed loop, one op in flight. One op = `FleetDriver::classify_run`
//! on one granule (three strong beams) -> `enrich_fleet` ->
//! `Catalog::ingest_thickness_products`. The query layers sit idle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use icesat_atl03::{io as granule_io, preprocess_beam, resample_2m, Beam};
use seaice::pipeline::{Pipeline, PipelineConfig};
use seaice::stages::TrainedModels;
use seaice::{
    BeamProducts, FleetDriver, FreeboardPoint, FreeboardProduct, SeaSurface, SeaSurfaceMethod,
};
use seaice_catalog::{Catalog, GridConfig, Tile};
use seaice_products::{enrich_fleet, ClimatologySnow, ThicknessRetrieval};
use sparklite::Cluster;

use crate::inputs;
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Granules in the fleet; the loop cycles through them, opening a fresh
/// catalog at the start of every cycle.
const FLEET_GRANULES: usize = 12;
/// Months the fleet spans (granule `g` is acquired in month `1 + g % 6`).
const FLEET_MONTHS: usize = 6;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `op_tail_us` percentile: the hundred-odd granules of a 15 s run
/// leave about ten beyond the p90.
const TAIL_Q: f64 = 0.90;

/// The `ingest_stage_us{stage=…}` histograms, in pipeline order.
const INGEST_STAGES: [&str; 4] = ["project", "merge", "persist", "ledger"];

struct Landing {
    root: PathBuf,
    grid: GridConfig,
    generation: usize,
    catalog: Catalog,
    stored: usize,
    bytes_per_sample: Vec<f64>,
}

impl Landing {
    fn open(root: &Path, grid: GridConfig, generation: usize) -> Result<Landing, String> {
        let dir = root.join(format!("catalog-{generation}"));
        let catalog = Catalog::create(&dir, grid).map_err(|e| format!("catalog create: {e}"))?;
        Ok(Landing {
            root: root.to_path_buf(),
            grid,
            generation,
            catalog,
            stored: 0,
            bytes_per_sample: Vec::new(),
        })
    }

    /// Closes the current catalog (recording its on-disk bytes per
    /// stored sample) and opens an empty one.
    fn rotate(&mut self) -> Result<(), String> {
        self.record_footprint();
        let old = self.catalog.dir().to_path_buf();
        let next = Landing::open(&self.root, self.grid, self.generation + 1)?;
        let bytes = std::mem::take(&mut self.bytes_per_sample);
        *self = next;
        self.bytes_per_sample = bytes;
        let _ = std::fs::remove_dir_all(old);
        Ok(())
    }

    fn record_footprint(&mut self) {
        if self.stored > 0 {
            let bytes = report::dir_bytes(self.catalog.dir());
            self.bytes_per_sample
                .push(bytes as f64 / self.stored as f64);
        }
    }

    fn stage_sums(&self) -> [u64; 4] {
        INGEST_STAGES.map(|s| {
            self.catalog
                .registry()
                .histogram_with("ingest_stage_us", &[("stage", s)])
                .snapshot()
                .sum_us
        })
    }
}

/// A fleet's `(granule file, beam)` partitions, three per granule.
type Sources = Vec<(PathBuf, Beam)>;

/// Everything one op reports besides its latency.
struct OpResult {
    products: Vec<BeamProducts>,
    samples: usize,
    tiles: usize,
}

struct Producer {
    cfg: PipelineConfig,
    models: TrainedModels,
    sources: Sources,
    driver: FleetDriver,
    snow: ClimatologySnow,
    retrieval: ThicknessRetrieval,
}

impl Producer {
    /// One op: classify, enrich, and land granule `g`, checking the
    /// catalog's sample count afterwards.
    fn op(
        &mut self,
        g: usize,
        land: &mut Landing,
        tracer: &mut Tracer,
    ) -> Result<OpResult, String> {
        let sources = &self.sources[3 * g..3 * g + 3];
        let (products, enriched, report) = tracer.span("produce.op", |t| {
            let (products, _) = t.span("fleet.classify_run", |_| {
                self.driver.classify_run(sources, &self.models)
            });
            let enriched = t
                .span("products.enrich", |_| {
                    enrich_fleet(&products, &self.snow, &self.retrieval)
                })
                .map_err(|e| format!("enrich: {e}"))?;
            let report = t
                .span("store.ingest", |_| {
                    land.catalog.ingest_thickness_products(&enriched)
                })
                .map_err(|e| format!("ingest: {e}"))?;
            Ok::<_, String>((products, enriched, report))
        })?;
        // Checks: every beam came back, every point landed or was out of
        // domain, nothing was skipped or replaced (the catalog never saw
        // this granule), and the catalog's own count moved by exactly the
        // samples the ingest reports.
        if products.len() != 3 {
            return Err(format!("classify_run returned {} beams", products.len()));
        }
        let points: usize = enriched.iter().map(|b| b.points.len()).sum();
        if report.n_samples + report.n_out_of_domain != points
            || report.n_skipped != 0
            || report.n_replaced != 0
        {
            return Err(format!("ingest report {report:?} for {points} points"));
        }
        let stats = land.catalog.stats().map_err(|e| format!("stats: {e}"))?;
        if stats.n_samples != land.stored + report.n_samples {
            return Err(format!(
                "catalog holds {} samples, expected {} + {}",
                stats.n_samples, land.stored, report.n_samples
            ));
        }
        land.stored = stats.n_samples;
        Ok(OpResult {
            products,
            samples: report.n_samples,
            tiles: report.n_tiles,
        })
    }

    /// Re-runs the per-beam stages of `classify_run` on granule `g`
    /// through each layer's public function, one span per call, and
    /// checks the result equals the fleet's product bit for bit.
    fn stage_probe(
        &mut self,
        g: usize,
        products: &[BeamProducts],
        tracer: &mut Tracer,
        counts: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        let path = &self.sources[3 * g].0;
        let granule = granule_io::read_file(path).map_err(|e| format!("granule read: {e:?}"))?;
        let cfg = &self.cfg;
        let models = &mut self.models;
        tracer.span("probe.stages", |t| {
            for (i, (_, beam)) in self.sources[3 * g..3 * g + 3].iter().enumerate() {
                let data = granule.beam(*beam).ok_or("beam missing from granule")?;
                let pre = t.span("atl03.preprocess", |_| {
                    preprocess_beam(data, &cfg.preprocess)
                });
                let segments = t.span("atl03.resample", |_| resample_2m(&pre, &cfg.resample));
                let classes = t.span("models.classify", |_| models.classify(&segments));
                let surface = t.span("seasurface.compute", |_| {
                    SeaSurface::compute_with_floor_fallback(
                        &segments,
                        &classes,
                        SeaSurfaceMethod::NasaEquation,
                        &cfg.window,
                    )
                });
                let product = t.span("freeboard.product", |_| {
                    FreeboardProduct::from_segments("fleet 2m", &segments, &classes, &surface)
                });
                if !same_points(&product.points, &products[i].freeboard.points) {
                    return Err(format!("stage-by-stage product differs for beam {beam:?}"));
                }
                *counts.entry("atl03.photons").or_default() += data.photons.len() as f64;
                *counts.entry("atl03.segments").or_default() += segments.len() as f64;
            }
            Ok::<(), String>(())
        })?;
        Ok(())
    }
}

fn same_points(a: &[FreeboardPoint], b: &[FreeboardPoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.along_track_m.to_bits() == y.along_track_m.to_bits()
                && x.lat.to_bits() == y.lat.to_bits()
                && x.lon.to_bits() == y.lon.to_bits()
                && x.freeboard_m.to_bits() == y.freeboard_m.to_bits()
                && x.class == y.class
        })
}

fn month_of(g: usize) -> u8 {
    1 + (g % FLEET_MONTHS) as u8
}

/// `(file name, merge version, bytes)` of every tile file.
fn tile_files(dir: &Path) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir.join("tiles")) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().to_string();
            if !name.ends_with(".tile") {
                continue;
            }
            if let (Ok(h), Ok(m)) = (Tile::peek(&e.path()), e.metadata()) {
                out.insert(name, (h.version, m.len()));
            }
        }
    }
    out
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, work, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let nproc = inputs::nproc();
    let cfg = inputs::pipeline_config(args.seed);
    let grid = inputs::grid(&cfg);
    let pipeline = Pipeline::new(cfg.clone());
    out.fact("nproc", nproc);
    out.fact("seed", args.seed);
    out.fact("workload", "produce");
    out.fact("generator_threads", 1);
    out.fact("connections", 0);
    out.fact("cluster_cores", nproc);
    out.fact(
        "fleet",
        format!("{FLEET_GRANULES} granules x 3 strong beams over {FLEET_MONTHS} months"),
    );

    // Set-up: train the models and write the fleet, several times.
    let mut setup_s = Vec::new();
    let mut built: Option<(PathBuf, TrainedModels, Sources)> = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("fleet-{rep}"));
        let t0 = Instant::now();
        let models = inputs::train(&pipeline);
        let sources = inputs::write_fleet(&pipeline, &dir, FLEET_GRANULES, month_of)
            .map_err(|e| format!("fleet write: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, ..)) = built.replace((dir, models, sources)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (_, models, sources) = built.expect("at least one set-up");
    out.set("setup_s", report::median(&setup_s));

    let mut producer = Producer {
        cfg,
        models,
        sources,
        driver: FleetDriver::new(Cluster::new(1, nproc), &pipeline.cfg),
        snow: ClimatologySnow::antarctic(),
        retrieval: ThicknessRetrieval::default(),
    };
    let mut land = Landing::open(&work.join("landing"), grid, 0)?;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);

    // One closed loop for both kinds of run. In a traced run the ops
    // alternate: even ops run untraced (the baseline `trace.overhead_pct`
    // compares against), odd ops run with spans around each layer call
    // and the ingest-stage instrument deltas, followed (outside the op's
    // span) by a stage-by-stage probe of the op's granule.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut g = 0usize;
    let mut lat_us = Vec::new();
    let mut landed = Vec::new();
    let mut traced_lat_us = Vec::new();
    let mut write_ms = Vec::new();
    let mut stage_deltas = [0.0f64; 4];
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut decode_us = Vec::new();
    let mut decoded_bytes = Vec::new();
    let loop_start = Instant::now();
    while loop_start.elapsed() < budget {
        if g == FLEET_GRANULES {
            g = 0;
            land.rotate()?;
        }
        let i = g;
        g += 1;
        let traced = args.trace && out.attempted % 2 == 1;
        out.attempted += 1;
        tracer.set_enabled(traced);
        tracer.next_op();
        let before = traced.then(|| (tile_files(land.catalog.dir()), land.stage_sums()));
        let t0 = Instant::now();
        let r = match producer.op(i, &mut land, &mut tracer) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                eprintln!("op failed: {e}");
                continue;
            }
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let Some((before_files, before_stages)) = before else {
            lat_us.push(us);
            landed.push(r.samples as f64);
            continue;
        };
        traced_lat_us.push(us);
        let after_stages = land.stage_sums();
        for (acc, (a, b)) in stage_deltas
            .iter_mut()
            .zip(after_stages.iter().zip(before_stages))
        {
            *acc += (a - b) as f64;
        }
        if let Some(ingest) = tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "store.ingest")
        {
            write_ms.push(ingest.dur_ns() as f64 / 1e6);
        }
        // Bytes the ingest wrote: every tile file whose merge version
        // moved, plus one ledger rewrite per beam.
        let after_files = tile_files(land.catalog.dir());
        let mut written = 0u64;
        for (name, (version, bytes)) in &after_files {
            if before_files.get(name).map(|(v, _)| v) != Some(version) {
                written += bytes;
                if let Ok(raw) = std::fs::read(land.catalog.dir().join("tiles").join(name)) {
                    let t = Instant::now();
                    let tile = <Tile as seaice::Artifact>::from_bytes(&raw);
                    let end = Instant::now();
                    if tile.is_err() {
                        out.fail(format!("tile {name} does not decode"));
                    }
                    tracer.record("tile.decode", t, end);
                    decode_us.push((end - t).as_secs_f64() * 1e6);
                    decoded_bytes.push(raw.len() as f64);
                }
            }
        }
        let ledger = land.catalog.dir().join("ledgers").join(format!(
            "{}{:02}.ledger",
            inputs::YEAR,
            month_of(i)
        ));
        written += 3 * std::fs::metadata(ledger).map_or(0, |m| m.len());
        *counts.entry("store.bytes_written").or_default() += written as f64;
        *counts.entry("store.samples_ingested").or_default() += r.samples as f64;
        *counts.entry("store.tiles_written").or_default() += r.tiles as f64;
        if let Err(e) = producer.stage_probe(i, &r.products, &mut tracer, &mut counts) {
            out.failed += 1;
            eprintln!("probe failed: {e}");
        }
    }

    if let Ok(s) = land.catalog.stats() {
        out.fact(
            "catalog",
            format!(
                "fresh every {FLEET_GRANULES} granules; at the loop's end {} layers, {} entries, {} samples",
                s.n_layers, s.n_tiles, s.n_samples
            ),
        );
    }
    if !args.trace {
        land.record_footprint();
        report::check_tail("op_tail_us", lat_us.len(), TAIL_Q);
        let ops = |w: &dyn Fn(usize) -> f64| -> Vec<(f64, f64)> {
            lat_us
                .iter()
                .enumerate()
                .map(|(i, us)| (us / 1e6, w(i)))
                .collect()
        };
        out.set("ops_per_s", report::grouped_rate(&ops(&|_| 1.0)));
        out.set("op_p50_us", report::median(&lat_us));
        out.set("op_tail_us", report::percentile(&lat_us, TAIL_Q));
        out.set("samples_per_s", report::grouped_rate(&ops(&|i| landed[i])));
        out.set(
            "disk_bytes_per_sample",
            report::median(&land.bytes_per_sample),
        );
        out.fact("peak_rss_mb", report::peak_rss_mb());
        out.fact("ops", lat_us.len());
        return Ok(());
    }

    let n = traced_lat_us.len().max(1) as f64;
    let totals = tracer.self_totals();
    let per_op_ms = |name: &str| totals.get(name).map_or(0.0, |(ns, _)| ns / 1e6 / n);
    for (metric, span) in [
        ("atl03.preprocess_ms", "atl03.preprocess"),
        ("atl03.resample_ms", "atl03.resample"),
        ("models.classify_ms", "models.classify"),
        ("seasurface.compute_ms", "seasurface.compute"),
        ("freeboard.product_ms", "freeboard.product"),
        ("products.enrich_ms", "products.enrich"),
        ("store.ingest_ms", "store.ingest"),
    ] {
        out.set(metric, per_op_ms(span));
    }
    // `classify_run` spreads three equal beams over `nproc` workers, so
    // its critical path is ceil(3 / nproc) beams of stage work; what the
    // wall clock holds beyond that is load, broadcast decode, and
    // scheduling.
    let stage_ms: f64 = [
        "atl03.preprocess",
        "atl03.resample",
        "models.classify",
        "seasurface.compute",
        "freeboard.product",
    ]
    .iter()
    .map(|s| per_op_ms(s))
    .sum();
    let nproc = inputs::nproc();
    let critical = stage_ms * (3usize.div_ceil(nproc) as f64) / 3.0;
    out.set(
        "fleet.overhead_ms",
        per_op_ms("fleet.classify_run") - critical,
    );
    for (stage, delta) in INGEST_STAGES.iter().zip(stage_deltas) {
        out.set(&format!("store.ingest.{stage}_ms"), delta / 1e3 / n);
    }
    for (name, total) in &counts {
        out.set(name, total / n);
    }
    out.set("write.p50_ms", report::median(&write_ms));
    out.set("write.p90_ms", report::percentile(&write_ms, 0.9));
    out.set("tile.decode_us", report::mean(&decode_us));
    out.set("tile.bytes", report::mean(&decoded_bytes));
    // Budget closure for one ingest batch: project + merge + ledger (the
    // persist histogram is nested inside merge) against the call's wall
    // clock.
    let ingest_us = per_op_ms("store.ingest") * 1e3 * n;
    let attributed_us = stage_deltas[0] + stage_deltas[1] + stage_deltas[3];
    out.set(
        "budget.unattributed_pct",
        100.0 * (ingest_us - attributed_us) / ingest_us,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (report::median(&traced_lat_us) / report::median(&lat_us) - 1.0),
    );
    out.fact("untraced_ops", lat_us.len());
    out.fact("traced_ops", traced_lat_us.len());
    tracer
        .write_jsonl(
            &crate::trace_path(args),
            &format!("{{\"workload\":\"produce\",\"seed\":{}}}", args.seed),
        )
        .map_err(|e| format!("trace write: {e}"))?;
    Ok(())
}
