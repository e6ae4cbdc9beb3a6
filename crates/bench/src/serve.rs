//! The `reproduce serve` experiment: the catalog's TCP serving
//! front-end, end to end.
//!
//! One trained model classifies a granule fleet; the products land in
//! (a) one monolithic catalog and (b) two quadkey-prefix shard
//! catalogs. Both get servers; a `CatalogClient` and a `ShardRouter`
//! then answer the same queries as the in-process store, and the
//! experiment asserts the three agree **bit for bit** — the protocol's
//! headline guarantee. A final wave holds many connections open at
//! once (64 quick, 512 full), each pipelining several requests, and
//! asserts every answer bit-identical to the in-process one.
//!
//! The experiment checks answers and times nothing; serve-path
//! performance is measured by the `perfbench` package.

use std::sync::Arc;

use seaice::FleetDriver;
use seaice_catalog::client::partition_products;
use seaice_catalog::{
    Catalog, CatalogClient, CatalogServer, MapRect, ShardRouter, ShardSpec, TileScope, TimeRange,
};
use sparklite::Cluster;

use crate::catalog::grid_for;
use crate::common::{shared_run, ExperimentOutput, Scale};

/// Connection count of the multiplexed wave at `scale`.
fn mux_connections(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 64,
        Scale::Full => 512,
    }
}

/// The many-connection pipelined check: holds [`mux_connections`]
/// client connections open against `addr` at once, pipelines four
/// quarter-domain summary requests per connection per round (the whole
/// round is submitted before any answer is awaited), and asserts every
/// answer bit-identical to `local`'s in-process one. Returns the number
/// of answers verified.
fn multiplexed_wave(local: &Catalog, addr: &str, scale: Scale) -> usize {
    const IN_FLIGHT: usize = 4;
    let (threads, rounds) = match scale {
        Scale::Quick => (8, 3),
        Scale::Full => (16, 5),
    };
    let domain = local.grid().domain();
    let rect = MapRect::new(
        domain.min,
        icesat_geo::MapPoint::new(
            0.5 * (domain.min.x + domain.max.x),
            0.5 * (domain.min.y + domain.max.y),
        ),
    );
    let want = local
        .query_rect(&rect, TimeRange::all())
        .expect("mux truth");
    let per_thread = mux_connections(scale) / threads;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let want = &want;
                s.spawn(move || {
                    let mut clients: Vec<CatalogClient> = (0..per_thread)
                        .map(|_| CatalogClient::connect(addr).expect("mux client"))
                        .collect();
                    let mut verified = 0usize;
                    for _ in 0..rounds {
                        let waves: Vec<Vec<_>> = clients
                            .iter_mut()
                            .map(|client| {
                                (0..IN_FLIGHT)
                                    .map(|_| {
                                        client
                                            .submit_query_rect(&rect, TimeRange::all())
                                            .expect("mux submit")
                                    })
                                    .collect()
                            })
                            .collect();
                        for (client, wave) in clients.iter_mut().zip(waves) {
                            for pending in wave {
                                let got = client.wait(pending).expect("mux wait");
                                assert_eq!(&got, want, "multiplexed summary must match local");
                                assert_eq!(
                                    got.mean_ice_freeboard_m.to_bits(),
                                    want.mean_ice_freeboard_m.to_bits(),
                                    "multiplexed answer must be bit-identical to in-process"
                                );
                                verified += 1;
                            }
                        }
                    }
                    verified
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mux thread"))
            .sum()
    })
}

/// Runs the serve experiment at `scale`.
pub fn serve(scale: Scale) -> ExperimentOutput {
    let shared = shared_run(scale, 4242);
    let (pipeline, run) = (&shared.0, &shared.1);
    let n_granules = match scale {
        Scale::Quick => 2,
        Scale::Full => 4,
    };
    let tag = std::process::id();
    let fleet_dir = std::env::temp_dir().join(format!("seaice_serve_fleet_{tag}"));
    let sources = FleetDriver::write_fleet(pipeline, &fleet_dir, n_granules).expect("fleet files");
    let driver = FleetDriver::new(Cluster::new(2, 2), &pipeline.cfg);
    let (products, _) = driver.classify_run(&sources, &run.models);

    // Monolithic store (the in-process truth) plus two shard stores
    // partitioned by quadkey prefix.
    let grid = grid_for(&pipeline.cfg);
    let local_dir = std::env::temp_dir().join(format!("seaice_serve_local_{tag}"));
    let shard_dirs = [
        std::env::temp_dir().join(format!("seaice_serve_shard0_{tag}")),
        std::env::temp_dir().join(format!("seaice_serve_shard1_{tag}")),
    ];
    for dir in std::iter::once(&local_dir).chain(&shard_dirs) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let local = Catalog::create(&local_dir, grid).expect("local catalog");
    let ingest = local.ingest_products(&products).expect("local ingest");
    let scopes = [
        TileScope::of(&["0", "1"]).unwrap(),
        TileScope::of(&["2", "3"]).unwrap(),
    ];
    let shard_catalogs: Vec<Arc<Catalog>> = shard_dirs
        .iter()
        .zip(partition_products(&grid, &scopes, &products))
        .map(|(dir, part)| {
            let catalog = Catalog::create(dir, grid).expect("shard catalog");
            for (granule, beam, product) in &part {
                catalog
                    .ingest_beam(granule, *beam, product)
                    .expect("shard ingest");
            }
            Arc::new(catalog)
        })
        .collect();

    // Serve everything.
    let local = Arc::new(local);
    let full_server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").expect("server");
    let shard_servers: Vec<CatalogServer> = shard_catalogs
        .iter()
        .map(|c| CatalogServer::serve(Arc::clone(c), "127.0.0.1:0").expect("shard server"))
        .collect();
    let full_addr = full_server.addr().to_string();
    let mut client = CatalogClient::connect(&full_addr).expect("client connect");
    let specs: Vec<ShardSpec> = shard_servers
        .iter()
        .zip(&scopes)
        .map(|(s, scope)| ShardSpec {
            addr: s.addr().to_string(),
            scope: scope.clone(),
        })
        .collect();
    let mut router = ShardRouter::connect(&specs).expect("router connect");

    // The headline equivalence: local ≡ served ≡ sharded, bit for bit.
    let domain = local.grid().domain();
    let want = local.query_rect(&domain, TimeRange::all()).expect("local");
    let via_server = client
        .query_rect(&domain, TimeRange::all())
        .expect("served");
    let via_router = router
        .query_rect(&domain, TimeRange::all())
        .expect("sharded");
    assert_eq!(want, via_server, "served summary must match local");
    assert_eq!(want, via_router, "sharded summary must match local");
    assert_eq!(
        want.mean_ice_freeboard_m.to_bits(),
        via_router.mean_ice_freeboard_m.to_bits(),
        "sharded merge must be bit-identical"
    );
    let layers_local = local.query_time_range(TimeRange::all()).expect("layers");
    assert_eq!(
        layers_local,
        router.query_time_range(TimeRange::all()).expect("layers")
    );

    let mux_answers = multiplexed_wave(&local, &full_addr, scale);

    for server in shard_servers {
        server.shutdown();
    }
    full_server.shutdown();
    drop(client);
    drop(router);

    let mut report = String::from("SERVE — TCP front-end, shard router, writer leases\n");
    report.push_str(&format!(
        "  fleet: {} granules x 3 beams -> {} samples into 1 local + 2 shard catalogs\n",
        n_granules, ingest.n_samples
    ));
    report.push_str(&format!(
        "  equivalence: local == served == sharded on {} samples (mean ice fb {:.4} m, bit-identical)\n",
        want.n_samples, want.mean_ice_freeboard_m
    ));
    report.push_str(&format!(
        "  multiplexed: {} connections, {} pipelined answers bit-identical to in-process\n",
        mux_connections(scale),
        mux_answers
    ));

    let metrics: Vec<(String, f64)> = vec![
        ("serve_samples".into(), want.n_samples as f64),
        (
            "serve_multiplexed_connections".into(),
            mux_connections(scale) as f64,
        ),
        ("serve_multiplexed_answers".into(), mux_answers as f64),
    ];

    let _ = std::fs::remove_dir_all(&fleet_dir);
    for dir in std::iter::once(&local_dir).chain(&shard_dirs) {
        let _ = std::fs::remove_dir_all(dir);
    }

    ExperimentOutput {
        id: "serve",
        report,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_experiment_runs_quick() {
        let out = serve(Scale::Quick);
        assert_eq!(out.id, "serve");
        assert!(out.metric("serve_samples").unwrap() > 1_000.0);
        // 64 connections x 4 in flight x 3 rounds, every answer checked.
        assert_eq!(out.metric("serve_multiplexed_connections"), Some(64.0));
        assert_eq!(out.metric("serve_multiplexed_answers"), Some(768.0));
    }
}
