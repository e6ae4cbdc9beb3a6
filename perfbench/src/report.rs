//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared once here, with its
//! unit. `BENCHMARK.json` lists the same names. An untraced run prints
//! every end-to-end metric; a traced run prints every per-layer metric.
//! A layer a workload leaves idle reads 0 there (no calls, no time).

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off. The meaning of each op is per workload (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("samples_per_s", "samples/s"),
    ("disk_bytes_per_sample", "B"),
];

/// The serve-path read kinds, as labelled by the server's metrics.
pub const READ_KINDS: &[&str] = &[
    "query_rect",
    "query_bbox",
    "query_time_range",
    "query_point",
    "query_cells",
];

/// Per-layer metrics (traced run; per op unless the unit says
/// otherwise).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("atl03.preprocess_ms", "ms"),
        ("atl03.resample_ms", "ms"),
        ("models.classify_ms", "ms"),
        ("seasurface.compute_ms", "ms"),
        ("freeboard.product_ms", "ms"),
        ("products.enrich_ms", "ms"),
        ("fleet.overhead_ms", "ms"),
        ("store.ingest_ms", "ms"),
        ("store.ingest.project_ms", "ms"),
        ("store.ingest.merge_ms", "ms"),
        ("store.ingest.persist_ms", "ms"),
        ("store.ingest.ledger_ms", "ms"),
        ("store.bytes_written", "B"),
        ("store.samples_ingested", "count"),
        ("store.tiles_written", "count"),
        ("atl03.photons", "count"),
        ("atl03.segments", "count"),
        ("write.p50_ms", "ms"),
        ("write.p90_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in READ_KINDS {
        m.push((format!("client.request_us.{kind}"), "us"));
        m.push((format!("server.request_us.{kind}"), "us"));
        m.push((format!("store.query_us.{kind}"), "us"));
    }
    m.push(("server.request_us.ingest_samples".to_string(), "us"));
    for (n, u) in [
        ("net_client_us", "us"),
        ("net.ping_us", "us"),
        ("store.fold_us", "us"),
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.bytes_per_read", "B"),
        ("server.wait_us", "us"),
        ("server.queue_depth_max", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.misses", "count"),
        ("cache.evictions", "count"),
        ("tile.decode_us", "us"),
        ("tile.bytes", "B"),
        ("store.tiles_touched", "count"),
        ("store.samples_matched", "count"),
        ("client.retries", "count"),
        ("server.errors", "count"),
        ("trace.overhead_pct", "%"),
        ("budget.unattributed_pct", "%"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check outside the per-op accounting fails.
    pub broken: Option<String>,
    pub metrics: BTreeMap<String, f64>,
    /// `key: value` facts printed before the result line.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("check failed: {why}");
        if self.broken.is_none() {
            self.broken = Some(why);
        }
    }

    /// Renders the result line. Metrics missing from an untraced run are
    /// a bug in the benchmark; per-layer metrics a workload does not
    /// exercise read 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut entries: Vec<String> = Vec::new();
        let wanted: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for (name, unit) in wanted {
            let value = match self.metrics.get(&name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            // `{}` prints the shortest decimal that round-trips: every
            // digit the measurement has, never an exponent.
            entries.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.broken.is_none() && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            entries.join(", ")
        ))
    }
}

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Warns when a tail percentile has fewer than ten samples beyond it.
pub fn check_tail(name: &str, n: usize, q: f64) {
    let beyond = n as f64 * (1.0 - q);
    if beyond < 10.0 {
        eprintln!(
            "warning: {name} is the p{:.0} of {n} samples ({beyond:.1} beyond it, want >= 10)",
            q * 100.0
        );
    }
}

/// Windows a timed loop is cut into for its rates.
pub const RATE_WINDOWS: usize = 10;

/// The rate of `(seconds into the loop, weight)` events over a loop of
/// `span_s` seconds, as the median over `RATE_WINDOWS` equal windows of
/// `Σ weight / window length` — a burst of outside load that stalls a
/// few windows moves it less than the whole-loop mean.
pub fn windowed_rate(events: impl Iterator<Item = (f64, f64)>, span_s: f64) -> f64 {
    let width = span_s / RATE_WINDOWS as f64;
    let mut sums = [0.0f64; RATE_WINDOWS];
    for (at, weight) in events {
        let w = ((at / width) as usize).min(RATE_WINDOWS - 1);
        sums[w] += weight;
    }
    median(&sums.map(|s| s / width))
}

/// Ops per group for [`grouped_rate`].
pub const RATE_GROUP: usize = 8;

/// The rate of a closed loop with one op in flight, as the median over
/// consecutive groups of [`RATE_GROUP`] ops of `Σ weight / Σ latency`
/// (`ops` are `(latency s, weight)`); a trailing partial group is
/// dropped unless it is the only one.
pub fn grouped_rate(ops: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = ops
        .chunks(RATE_GROUP)
        .filter(|g| g.len() == RATE_GROUP || ops.len() < RATE_GROUP)
        .map(|g| g.iter().map(|o| o.1).sum::<f64>() / g.iter().map(|o| o.0).sum::<f64>())
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        // 10 events per second for 10 s, except nothing in second 3.
        let events = (0..100)
            .map(|i| i as f64 / 10.0 + 0.05)
            .filter(|t| !(3.0..4.0).contains(t))
            .map(|t| (t, 1.0));
        assert_eq!(windowed_rate(events, 10.0), 10.0);
    }

    #[test]
    fn grouped_rate_is_weight_over_latency() {
        let ops = vec![(0.5, 2.0); RATE_GROUP * 2];
        assert_eq!(grouped_rate(&ops), 4.0);
    }

    #[test]
    fn every_metric_prints_and_idle_layers_read_zero() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = out.result_line(true).unwrap();
        assert_eq!(traced.matches("\"value\": 0,").count(), per_layer().len());
        out.metrics.remove("setup_s");
        assert!(out.result_line(false).is_err());
    }
}
