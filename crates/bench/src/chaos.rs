//! The `reproduce chaos` experiment: what resilience costs and what it
//! buys.
//!
//! A synthetic catalog is served three ways and timed:
//!
//! - **clean** — the plain client against the server, no deadlines, no
//!   retries (the pre-resilience baseline);
//! - **resilient** — the same direct connection with deadlines + retry
//!   armed, measuring the overhead of the resilience machinery alone
//!   (`chaos_retry_overhead_pct`);
//! - **under fault injection** — a seeded [`FaultPlan`] chaos proxy
//!   between client and server; completed queries per second is the
//!   `degraded_query_per_s` headline (every completed answer is
//!   bit-checked against the in-process truth, every failure must be
//!   typed).
//!
//! Finally a two-replica [`ShardRouter`] is driven through a full
//! outage: both replicas down (typed `Degraded`), then restored —
//! `chaos_recovery_ms` is the time from restoration to the first
//! complete answer, the breaker + prober recovery latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use icesat_geo::{MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::{
    Catalog, CatalogClient, CatalogError, CatalogServer, ChaosProxy, ClientConfig, FaultPlan,
    GridConfig, ReplicaSpec, RetryPolicy, RouterConfig, ShardRouter, TileScope, TimeRange,
};

use crate::common::{ExperimentOutput, Scale};

/// The resilience numbers one measurement pass produces.
#[derive(Debug, Clone, Copy)]
pub struct ChaosNumbers {
    /// Plain client, healthy path: queries/s.
    pub clean_q_per_s: f64,
    /// Deadline + retry armed, healthy path: queries/s.
    pub resilient_q_per_s: f64,
    /// Resilience overhead on the healthy path, percent of clean.
    pub retry_overhead_pct: f64,
    /// Completed queries/s through a seeded chaos proxy.
    pub degraded_q_per_s: f64,
    /// Fraction of attempts that completed under injected faults.
    pub degraded_ok_fraction: f64,
    /// Faults the seeded plan actually injected.
    pub injected: f64,
    /// Outage-to-first-complete-answer latency after both replicas of a
    /// scope return, milliseconds (breaker cooldown + prober latency).
    pub recovery_ms: f64,
}

pub(crate) fn grid() -> GridConfig {
    GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
}

pub(crate) fn line_product(
    n: usize,
    x0: f64,
    y0: f64,
    dx: f64,
    dy: f64,
    fb0: f64,
) -> FreeboardProduct {
    let points = (0..n)
        .map(|i| {
            let m = MapPoint::new(x0 + i as f64 * dx, y0 + i as f64 * dy);
            let g = EPSG_3976.inverse(m);
            FreeboardPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: fb0 + (i % 11) as f64 * 0.013,
                class: SurfaceClass::ALL[i % 3],
            }
        })
        .collect();
    FreeboardProduct {
        name: "chaos bench line".into(),
        points,
    }
}

pub(crate) fn build_store(dir: &std::path::Path) -> Catalog {
    let catalog = Catalog::create(dir, grid()).expect("chaos catalog");
    for (g, month) in ["201910", "201911"].iter().enumerate() {
        for beam in 0..2usize {
            let angle = (g * 2 + beam) as f64;
            let product = line_product(
                400,
                -309_000.0 + 1_500.0 * angle,
                -1_309_500.0,
                18.0 + 2.0 * angle,
                44.0 - 3.0 * angle,
                0.15 + 0.02 * angle,
            );
            catalog
                .ingest_beam(&format!("{month}04195311_0500021{g}"), beam, &product)
                .expect("chaos ingest");
        }
    }
    catalog
}

fn resilient_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        request_deadline: Some(Duration::from_millis(700)),
        retry: RetryPolicy::attempts(4),
        ..ClientConfig::default()
    }
}

/// `reps` summary queries on one connection; queries/s.
fn throughput(client: &mut CatalogClient, reps: usize) -> f64 {
    let rect = client.grid().domain();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            client
                .query_rect(&rect, TimeRange::all())
                .expect("healthy-path query"),
        );
    }
    reps as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the measurement pass: builds the store, serves it, and times
/// the clean / resilient / faulted / recovery paths.
pub fn measure(scale: Scale) -> ChaosNumbers {
    let (clean_reps, fault_attempts) = match scale {
        Scale::Quick => (300usize, 80usize),
        Scale::Full => (1_200, 250),
    };
    let dir = std::env::temp_dir().join(format!("seaice_chaos_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let local = Arc::new(build_store(&dir));
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").expect("chaos server");
    let addr = server.addr().to_string();
    let domain = local.grid().domain();
    let truth = local
        .query_rect(&domain, TimeRange::all())
        .expect("local truth");

    // Clean vs resilient on the same healthy connection path.
    let mut clean = CatalogClient::connect(&addr).expect("clean client");
    let clean_q_per_s = throughput(&mut clean, clean_reps);
    let mut resilient =
        CatalogClient::connect_with(&addr, resilient_config()).expect("resilient client");
    let resilient_q_per_s = throughput(&mut resilient, clean_reps);
    let retry_overhead_pct = 100.0 * (1.0 - resilient_q_per_s / clean_q_per_s.max(1e-9));

    // Under seeded fault injection: completed answers per second (each
    // bit-checked), failures must be typed.
    let plan = Arc::new(FaultPlan::seeded(7));
    let proxy = ChaosProxy::start(&addr, Arc::clone(&plan)).expect("chaos proxy");
    let proxy_addr = proxy.addr().to_string();
    let t0 = Instant::now();
    let mut ok = 0usize;
    let mut client: Option<CatalogClient> = None;
    for _ in 0..fault_attempts {
        let attempt = match client.as_mut() {
            Some(c) => c.query_rect(&domain, TimeRange::all()),
            None => match CatalogClient::connect_with(&proxy_addr, resilient_config()) {
                Ok(mut c) => {
                    let r = c.query_rect(&domain, TimeRange::all());
                    client = Some(c);
                    r
                }
                Err(e) => Err(e),
            },
        };
        match attempt {
            Ok(got) => {
                assert_eq!(
                    got.mean_ice_freeboard_m.to_bits(),
                    truth.mean_ice_freeboard_m.to_bits(),
                    "a faulted query completed with wrong bits"
                );
                ok += 1;
            }
            Err(
                CatalogError::Timeout { .. }
                | CatalogError::RetriesExhausted { .. }
                | CatalogError::Io(_)
                | CatalogError::Protocol(_),
            ) => {
                client = None; // reconnect next attempt
            }
            Err(other) => panic!("untyped failure under fault injection: {other}"),
        }
    }
    let fault_wall = t0.elapsed().as_secs_f64().max(1e-9);
    let degraded_q_per_s = ok as f64 / fault_wall;
    let degraded_ok_fraction = ok as f64 / fault_attempts as f64;
    let injected = plan.injected() as f64;
    drop(client);
    proxy.shutdown();

    // Outage + recovery through the router: both replicas of the single
    // scope die, the router degrades typed, the replicas return, and
    // the breaker/prober machinery brings the scope back. Recovery is
    // restoration → first complete answer.
    let quiet = || Arc::new(FaultPlan::scripted());
    let rep_a = ChaosProxy::start(&addr, quiet()).expect("replica a");
    let rep_b = ChaosProxy::start(&addr, quiet()).expect("replica b");
    let specs = [ReplicaSpec {
        addrs: vec![rep_a.addr().to_string(), rep_b.addr().to_string()],
        scope: TileScope::all(),
    }];
    let config = RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_millis(300)),
            request_deadline: Some(Duration::from_millis(500)),
            retry: RetryPolicy::attempts(2),
            ..ClientConfig::default()
        },
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(100),
        probe_interval: Some(Duration::from_millis(25)),
    };
    let mut router = ShardRouter::connect_replicated(&specs, config).expect("chaos router");
    rep_a.set_refuse_all(true);
    rep_b.set_refuse_all(true);
    // Drive queries until the outage registers as typed degradation.
    let outage_deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match router.query_rect(&domain, TimeRange::all()) {
            Err(CatalogError::Degraded { .. }) => break,
            Err(_) | Ok(_) => assert!(
                Instant::now() < outage_deadline,
                "outage never surfaced as Degraded"
            ),
        }
    }
    rep_a.set_refuse_all(false);
    rep_b.set_refuse_all(false);
    let restored = Instant::now();
    let recovery_deadline = restored + Duration::from_secs(20);
    loop {
        match router.query_rect(&domain, TimeRange::all()) {
            Ok(got) => {
                assert_eq!(
                    got.mean_ice_freeboard_m.to_bits(),
                    truth.mean_ice_freeboard_m.to_bits(),
                    "post-recovery answer diverged"
                );
                break;
            }
            Err(_) => {
                assert!(
                    Instant::now() < recovery_deadline,
                    "router never recovered after replicas returned"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    let recovery_ms = restored.elapsed().as_secs_f64() * 1e3;
    drop(router);
    rep_a.shutdown();
    rep_b.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    ChaosNumbers {
        clean_q_per_s,
        resilient_q_per_s,
        retry_overhead_pct,
        degraded_q_per_s,
        degraded_ok_fraction,
        injected,
        recovery_ms,
    }
}

/// [`ChaosNumbers`] as experiment metric pairs.
pub fn metrics_of(n: &ChaosNumbers) -> Vec<(String, f64)> {
    vec![
        ("serve_clean_q_per_s".into(), n.clean_q_per_s),
        ("serve_resilient_q_per_s".into(), n.resilient_q_per_s),
        ("chaos_retry_overhead_pct".into(), n.retry_overhead_pct),
        ("degraded_query_per_s".into(), n.degraded_q_per_s),
        ("chaos_ok_fraction".into(), n.degraded_ok_fraction),
        ("chaos_faults_injected".into(), n.injected),
        ("chaos_recovery_ms".into(), n.recovery_ms),
    ]
}

/// Runs the chaos experiment at `scale`.
pub fn chaos(scale: Scale) -> ExperimentOutput {
    let n = measure(scale);
    let mut report = String::from("CHAOS — fault injection, deadlines, retries, failover\n");
    report.push_str(&format!(
        "  healthy path: {:.0} q/s clean vs {:.0} q/s with deadlines+retries armed ({:+.1}% overhead)\n",
        n.clean_q_per_s, n.resilient_q_per_s, n.retry_overhead_pct
    ));
    report.push_str(&format!(
        "  seeded faults (seed 7, {:.0} injected): {:.0} completed q/s, {:.0}% of attempts \
         completed bit-identically; every failure typed\n",
        n.injected,
        n.degraded_q_per_s,
        100.0 * n.degraded_ok_fraction
    ));
    report.push_str(&format!(
        "  full-scope outage: typed Degraded during, {:.0} ms from replica restoration to the \
         first complete answer (breaker cooldown + prober)\n",
        n.recovery_ms
    ));
    ExperimentOutput {
        id: "chaos",
        report,
        metrics: metrics_of(&n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_experiment_runs_quick() {
        let out = chaos(Scale::Quick);
        assert_eq!(out.id, "chaos");
        assert!(out.metric("serve_clean_q_per_s").unwrap() > 0.0);
        assert!(out.metric("degraded_query_per_s").unwrap() > 0.0);
        assert!(out.metric("chaos_recovery_ms").unwrap() > 0.0);
        assert!(out.metric("chaos_faults_injected").unwrap() > 0.0);
        let ok = out.metric("chaos_ok_fraction").unwrap();
        assert!(ok > 0.0 && ok <= 1.0);
        assert!(out.report.contains("typed Degraded"));
    }
}
