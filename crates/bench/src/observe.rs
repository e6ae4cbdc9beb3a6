//! The `reproduce observe` experiment: what the serve path looks like
//! from the outside when everything is instrumented.
//!
//! The same synthetic store the chaos experiment serves is driven
//! through a seeded [`FaultPlan`] chaos proxy by a traced, resilient
//! client while a second connection scrapes the server's `Introspect`
//! RPC concurrently. The experiment checks the observability contract
//! end to end:
//!
//! - every scrape parses ([`seaice_catalog::obs::parse_exposition`])
//!   and every
//!   `*_total` counter is monotone across scrapes taken while the
//!   workload (and its injected faults) are in flight;
//! - the client's own registry tells the retry story — attempts vs
//!   retries vs deadline hits — and its numbers reconcile with the
//!   completed-query count;
//! - the last traced request's span breakdown (client side and the
//!   matching server-side report, joined on the wire-carried trace id)
//!   reconstructs the end-to-end latency: spans never sum past their
//!   trace total, and the server total nests inside the client total.
//!
//! The report renders a scraped metric snapshot excerpt and the traced
//! request timeline; the headline numbers are the `observe_*` metrics.

use std::sync::Arc;
use std::time::Duration;

use seaice_catalog::obs::{parse_exposition, TraceReport};
use seaice_catalog::{
    CatalogClient, CatalogError, CatalogServer, ChaosProxy, ClientConfig, FaultPlan, RetryPolicy,
    TimeRange,
};

use crate::common::{ExperimentOutput, Scale};

/// The observability numbers one measurement pass produces.
#[derive(Debug, Clone)]
pub struct ObserveNumbers {
    /// Queries that completed (bit-checked) through the chaos proxy.
    pub completed: f64,
    /// Client-side attempts across the workload (first tries + retries).
    pub attempts: f64,
    /// Client-side retries (attempts beyond the first per request).
    pub retries: f64,
    /// Introspect scrapes taken while the workload ran.
    pub scrapes: f64,
    /// `server_requests_total` from the final scrape.
    pub server_requests: f64,
    /// Server-side p99 request latency for `query_rect`, microseconds.
    pub server_p99_us: f64,
    /// Client-side p99 request latency (deadline+retry inclusive), µs.
    pub client_p99_us: f64,
    /// Spans in the last traced request's client-side report.
    pub trace_spans: f64,
    /// Client span coverage: top-level span time / trace total, percent.
    pub trace_coverage_pct: f64,
    /// Final scraped exposition (rendered into the report).
    pub snapshot: String,
    /// Rendered client + server timeline of the last traced request.
    pub timeline: String,
}

/// Picks the lines worth showing from a full exposition: the serve-path
/// headline counters plus the latency histograms' quantile lines.
fn snapshot_excerpt(exposition: &str) -> String {
    let keep = |line: &str| {
        let interesting = line.starts_with("server_requests_total")
            || line.starts_with("server_request_us_p")
            || line.starts_with("server_connections")
            || line.starts_with("server_errors_total")
            || line.starts_with("server_requests_malformed_total")
            || line.starts_with("tile_cache_")
            || line.starts_with("ingest_samples_total")
            || line.starts_with("store_");
        // Zero-valued per-kind series are legal but dull; the excerpt
        // shows the kinds this workload actually exercised.
        interesting && !(line.contains("{kind=") && line.ends_with(" 0"))
    };
    exposition
        .lines()
        .filter(|l| keep(l))
        .map(|l| format!("    {l}\n"))
        .collect()
}

/// Asserts every `*_total` counter in `later` is >= its value in
/// `earlier` — the monotonicity contract scrapes rely on.
fn assert_monotone(earlier: &str, later: &str) {
    let a = parse_exposition(earlier);
    let b = parse_exposition(later);
    for (name, va) in &a {
        if !name.contains("_total") {
            continue;
        }
        if let Some(vb) = b.get(name) {
            assert!(
                vb >= va,
                "counter {name} went backwards across scrapes: {va} -> {vb}"
            );
        }
    }
}

/// Runs the measurement pass: serves the chaos store, drives a traced
/// resilient client through a seeded fault proxy, and scrapes
/// `Introspect` concurrently.
pub fn measure(scale: Scale) -> ObserveNumbers {
    let attempts_budget = match scale {
        Scale::Quick => 60usize,
        Scale::Full => 250,
    };
    let dir = std::env::temp_dir().join(format!("seaice_observe_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let local = Arc::new(crate::chaos::build_store(&dir));
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").expect("observe server");
    let addr = server.addr().to_string();
    let domain = local.grid().domain();
    let truth = local
        .query_rect(&domain, TimeRange::all())
        .expect("local truth");

    // The workload client: deadlines + retries armed, tracing on, its
    // own registry — connected through a seeded chaos proxy so the
    // metrics have a retry/deadline story to tell.
    let plan = Arc::new(FaultPlan::seeded(7));
    let proxy = ChaosProxy::start(&addr, Arc::clone(&plan)).expect("observe proxy");
    let proxy_addr = proxy.addr().to_string();
    let traced_config = || ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        request_deadline: Some(Duration::from_millis(700)),
        retry: RetryPolicy::attempts(4),
        trace: true,
        ..ClientConfig::default()
    };

    // The scrape client goes straight at the server (not through the
    // proxy): an observer must stay up while the workload degrades.
    let mut scraper = CatalogClient::connect(&addr).expect("scrape client");
    let mut previous_scrape = scraper.introspect().expect("first scrape");
    let mut scrapes = 1usize;

    let mut ok = 0usize;
    let mut last_trace: Option<TraceReport> = None;
    let mut client: Option<CatalogClient> = None;
    let mut client_exposition = String::new();
    for attempt in 0..attempts_budget {
        let outcome = match client.as_mut() {
            Some(c) => c.query_rect(&domain, TimeRange::all()),
            None => match CatalogClient::connect_with(&proxy_addr, traced_config()) {
                Ok(mut c) => {
                    let r = c.query_rect(&domain, TimeRange::all());
                    client = Some(c);
                    r
                }
                Err(e) => Err(e),
            },
        };
        match outcome {
            Ok(got) => {
                assert_eq!(
                    got.mean_ice_freeboard_m.to_bits(),
                    truth.mean_ice_freeboard_m.to_bits(),
                    "a faulted query completed with wrong bits"
                );
                ok += 1;
                if let Some(c) = client.as_ref() {
                    if let Some(report) = c.last_trace() {
                        last_trace = Some(report);
                    }
                    client_exposition = c.registry().expose();
                }
            }
            Err(
                CatalogError::Timeout { .. }
                | CatalogError::RetriesExhausted { .. }
                | CatalogError::Io(_)
                | CatalogError::Protocol(_),
            ) => {
                if let Some(c) = client.take() {
                    client_exposition = c.registry().expose();
                }
            }
            Err(other) => panic!("untyped failure under fault injection: {other}"),
        }
        // Scrape every few requests; every scrape must parse and every
        // counter must be monotone relative to the previous one.
        if attempt % 8 == 7 {
            let scrape = scraper.introspect().expect("mid-workload scrape");
            assert!(
                !parse_exposition(&scrape).is_empty(),
                "scrape did not parse"
            );
            assert_monotone(&previous_scrape, &scrape);
            previous_scrape = scrape;
            scrapes += 1;
        }
    }
    assert!(ok > 0, "no query completed under the seeded plan");
    if let Some(c) = client.as_ref() {
        client_exposition = c.registry().expose();
    }
    drop(client);
    proxy.shutdown();

    // Final scrape on the now-quiet server; monotone against the last
    // mid-workload scrape, and the source of the headline numbers.
    let final_scrape = scraper.introspect().expect("final scrape");
    assert_monotone(&previous_scrape, &final_scrape);
    scrapes += 1;
    let server_metrics = parse_exposition(&final_scrape);
    let client_metrics = parse_exposition(&client_exposition);
    let get = |m: &std::collections::BTreeMap<String, f64>, k: &str| m.get(k).copied();
    let server_requests = get(&server_metrics, "server_requests_total").unwrap_or(0.0);
    let server_p99_us = get(
        &server_metrics,
        "server_request_us_p99_us{kind=\"query_rect\"}",
    )
    .unwrap_or(0.0);
    let attempts = get(&client_metrics, "client_attempts_total").unwrap_or(0.0);
    let retries = get(&client_metrics, "client_retries_total").unwrap_or(0.0);
    let client_p99_us = get(&client_metrics, "client_request_us_p99_us").unwrap_or(0.0);
    assert!(
        attempts >= ok as f64,
        "client attempts ({attempts}) below completed queries ({ok})"
    );

    // Reconcile the last traced request on both sides of the wire.
    let client_report = last_trace.expect("a completed traced request");
    assert!(
        client_report.spans_total_us() <= client_report.total_us,
        "client spans overran the trace total"
    );
    let mut timeline = String::from("  client side:\n");
    for line in client_report.render().lines() {
        timeline.push_str(&format!("    {line}\n"));
    }
    let server_report = server
        .recent_traces()
        .into_iter()
        .find(|r| r.id == client_report.id);
    let trace_coverage_pct =
        100.0 * client_report.spans_total_us() as f64 / client_report.total_us.max(1) as f64;
    if let Some(sr) = &server_report {
        assert!(
            sr.spans_total_us() <= sr.total_us,
            "server spans overran the trace total"
        );
        assert!(
            sr.total_us <= client_report.total_us,
            "server-side trace total exceeded the client's end-to-end total"
        );
        timeline.push_str("  server side (same trace id):\n");
        for line in sr.render().lines() {
            timeline.push_str(&format!("    {line}\n"));
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    ObserveNumbers {
        completed: ok as f64,
        attempts,
        retries,
        scrapes: scrapes as f64,
        server_requests,
        server_p99_us,
        client_p99_us,
        trace_spans: client_report.spans.len() as f64,
        trace_coverage_pct,
        snapshot: snapshot_excerpt(&final_scrape),
        timeline,
    }
}

/// [`ObserveNumbers`] as experiment metric pairs.
pub fn metrics_of(n: &ObserveNumbers) -> Vec<(String, f64)> {
    vec![
        ("observe_completed_q".into(), n.completed),
        ("observe_client_attempts".into(), n.attempts),
        ("observe_client_retries".into(), n.retries),
        ("observe_scrapes".into(), n.scrapes),
        ("observe_server_requests".into(), n.server_requests),
        ("observe_server_p99_us".into(), n.server_p99_us),
        ("observe_client_p99_us".into(), n.client_p99_us),
        ("observe_trace_spans".into(), n.trace_spans),
        ("observe_trace_coverage_pct".into(), n.trace_coverage_pct),
    ]
}

/// Runs the observe experiment at `scale`.
pub fn observe(scale: Scale) -> ExperimentOutput {
    let n = measure(scale);
    let mut report = String::from("OBSERVE — metric registry, tracing, Introspect under load\n");
    report.push_str(&format!(
        "  workload: {:.0} completed q ({:.0} attempts, {:.0} retries) through a seeded fault \
         proxy; {:.0} Introspect scrapes, all parseable, all counters monotone\n",
        n.completed, n.attempts, n.retries, n.scrapes
    ));
    report.push_str(&format!(
        "  latency: server p99 {:.0} µs (query_rect), client p99 {:.0} µs \
         (deadline+retry inclusive)\n",
        n.server_p99_us, n.client_p99_us
    ));
    report.push_str(&format!(
        "  last traced request: {:.0} client spans covering {:.0}% of the end-to-end total, \
         server report joined on the wire trace id\n",
        n.trace_spans, n.trace_coverage_pct
    ));
    report.push_str("  scraped snapshot (excerpt):\n");
    report.push_str(&n.snapshot);
    report.push_str("  traced request timeline:\n");
    report.push_str(&n.timeline);
    ExperimentOutput {
        id: "observe",
        report,
        metrics: metrics_of(&n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_experiment_runs_quick() {
        let out = observe(Scale::Quick);
        assert_eq!(out.id, "observe");
        assert!(out.metric("observe_completed_q").unwrap() > 0.0);
        assert!(out.metric("observe_scrapes").unwrap() >= 2.0);
        assert!(out.metric("observe_server_requests").unwrap() > 0.0);
        assert!(out.metric("observe_trace_spans").unwrap() > 0.0);
        let cov = out.metric("observe_trace_coverage_pct").unwrap();
        assert!(cov > 0.0 && cov <= 100.0);
        assert!(out.report.contains("server_requests_total"));
        assert!(out.report.contains("client side:"));
    }
}
