//! Wire-protocol fuzz: seeded corpus mutation against the v2 framing
//! and a live event-loop server.
//!
//! The failure contract under hostile bytes is **typed error or clean
//! drop, never panic, hang, or wrong answer**. Two layers pin it:
//!
//! - *pure*: [`seaice_catalog::wire::try_extract_frame`] and the
//!   message decoders chew through thousands of seeded mutations of
//!   valid frames (truncations, bit flips, hostile length prefixes,
//!   mid-stream garbage) without panicking, and only checksum-clean
//!   frames ever decode;
//! - *live*: a raw socket feeds the same mutations at a running
//!   [`CatalogServer`]; after every round the server still answers a
//!   well-formed client bit-identically to the in-process store, and
//!   duplicate in-flight request ids come back as typed
//!   [`ERR_DUP_REQUEST`] error frames on a surviving connection.
//!
//! Everything is seeded (`splitmix64`) — a failing seed replays
//! exactly.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icesat_geo::{MapPoint, EPSG_3976};
use icesat_scene::SurfaceClass;
use seaice::artifact::Artifact;
use seaice::freeboard::{FreeboardPoint, FreeboardProduct};
use seaice_catalog::fault::splitmix64;
use seaice_catalog::wire::{
    self, Request, Response, ERR_DUP_REQUEST, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use seaice_catalog::{Catalog, CatalogClient, CatalogServer, GridConfig, TileScope, TimeRange};

fn grid() -> GridConfig {
    GridConfig::new(MapPoint::new(-300_000.0, -1_300_000.0), 10_000.0, 2, 8).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seaice_wirefuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_product() -> FreeboardProduct {
    let points = (0..64)
        .map(|i| {
            let m = MapPoint::new(
                -309_000.0 + i as f64 * 120.0,
                -1_309_000.0 + i as f64 * 250.0,
            );
            let g = EPSG_3976.inverse(m);
            FreeboardPoint {
                along_track_m: i as f64 * 2.0,
                lat: g.lat,
                lon: g.lon,
                freeboard_m: 0.1 + (i % 7) as f64 * 0.02,
                class: SurfaceClass::ALL[i % 3],
            }
        })
        .collect();
    FreeboardProduct {
        name: "fuzz seed".into(),
        points,
    }
}

/// The corpus of valid request messages mutations start from — every
/// RPC kind, so each decoder sees hostile bytes.
fn corpus() -> Vec<Request> {
    let domain = grid().domain();
    vec![
        Request::Manifest,
        Request::Ping,
        Request::Introspect,
        Request::QueryRect {
            rect: domain,
            time: TimeRange::all(),
            scope: TileScope::all(),
        },
        Request::QueryPoint {
            point: EPSG_3976.inverse(MapPoint::new(-303_000.0, -1_306_000.0)),
            time: TimeRange::all(),
            scope: TileScope::all(),
        },
        Request::QueryTimeRange {
            time: TimeRange::all(),
            scope: TileScope::all(),
        },
        Request::QueryCells {
            rect: domain,
            time: TimeRange::all(),
            scope: TileScope::all(),
        },
        Request::Stats {
            scope: TileScope::all(),
        },
        Request::Validate {
            scope: TileScope::all(),
        },
        Request::IngestSamples {
            granule_id: "20191104195311_05000211".into(),
            beam: 1,
            mode: seaice_catalog::IngestMode::Skip,
            product: seed_product(),
        },
    ]
}

/// One seeded mutation of an encoded frame. The mutation kind and every
/// offset are drawn from the seed, so a failure names its replay.
fn mutate(frame: &[u8], state: &mut u64) -> Vec<u8> {
    let mut out = frame.to_vec();
    match splitmix64(state) % 9 {
        // Truncate anywhere — inside the header, inside the payload.
        0 => {
            let cut = (splitmix64(state) as usize) % out.len().max(1);
            out.truncate(cut);
        }
        // Flip one bit anywhere.
        1 => {
            let at = (splitmix64(state) as usize) % out.len();
            out[at] ^= 1 << (splitmix64(state) % 8);
        }
        // Hostile length prefix (up to u32::MAX).
        2 => {
            let len = splitmix64(state) as u32;
            out[..4].copy_from_slice(&len.to_le_bytes());
        }
        // Length prefix just past the cap.
        3 => {
            let len = (MAX_FRAME_BYTES as u32) + 1 + (splitmix64(state) as u32 % 1024);
            out[..4].copy_from_slice(&len.to_le_bytes());
        }
        // Zeroed checksum.
        4 => out[4..12].fill(0),
        // Garbage appended after a valid frame (mid-stream garbage).
        5 => {
            for _ in 0..(splitmix64(state) % 64 + 1) {
                out.push(splitmix64(state) as u8);
            }
        }
        // Garbage inserted at a random offset.
        6 => {
            let at = (splitmix64(state) as usize) % (out.len() + 1);
            let byte = splitmix64(state) as u8;
            out.insert(at, byte);
        }
        // Payload scramble: rewrite a run of payload bytes.
        7 => {
            if out.len() > FRAME_HEADER_BYTES {
                let start = FRAME_HEADER_BYTES
                    + (splitmix64(state) as usize) % (out.len() - FRAME_HEADER_BYTES);
                for b in out[start..].iter_mut() {
                    *b = splitmix64(state) as u8;
                }
            }
        }
        // Pure noise of a seeded length (no valid structure at all).
        _ => {
            let n = (splitmix64(state) % 96) as usize;
            out = (0..n).map(|_| splitmix64(state) as u8).collect();
        }
    }
    out
}

/// Pure-function layer: frame extraction and message decoding survive
/// every mutation without panicking, and a frame only ever decodes if
/// its checksum still validates (no wrong answers from corrupt bytes).
#[test]
fn mutated_frames_never_panic_and_only_checksum_clean_frames_decode() {
    let corpus = corpus();
    let mut state = 0x5eed_f00d_u64;
    for round in 0..4000 {
        let request = &corpus[(splitmix64(&mut state) as usize) % corpus.len()];
        let request_id = splitmix64(&mut state) % 1000;
        let frame = wire::encode_frame(&request.to_bytes(), request_id, 0).unwrap();
        let mutated = mutate(&frame, &mut state);
        // Extraction: complete, incomplete, or typed error — never a
        // panic, and never a frame whose checksum does not validate.
        if let Ok(Some((extracted, consumed))) = wire::try_extract_frame(&mutated) {
            assert!(consumed <= mutated.len(), "round {round}: overconsumed");
            assert_eq!(
                wire::frame_checksum(extracted.request_id, extracted.trace_id, &extracted.payload),
                u64::from_le_bytes(mutated[4..12].try_into().unwrap()),
                "round {round}: extracted a frame whose checksum does not validate"
            );
            // Whatever the payload now holds decodes to a typed
            // result, not a panic.
            let _ = Request::from_bytes(&extracted.payload);
            let _ = Response::from_bytes(&extracted.payload);
        }
        // Raw decoders on the mutated bytes (as if framing were
        // bypassed): typed error or value, never a panic.
        let _ = Request::from_bytes(&mutated);
        let _ = Response::from_bytes(&mutated);
    }
}

/// Drains whatever the server sends until it closes the connection or
/// goes quiet; panics only on a hang past the deadline.
fn drain(stream: &mut TcpStream, quiet: Duration) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let _ = stream.set_read_timeout(Some(quiet));
    let mut frames = 0usize;
    let mut reader = wire::FrameReader::default();
    loop {
        assert!(Instant::now() < deadline, "server hung on a mutated stream");
        match reader.read(stream, || true) {
            Ok(Some(_)) => frames += 1,
            Ok(None) => return frames, // quiet or clean EOF
            Err(_) => return frames,   // dropped mid-frame: a clean drop for us
        }
    }
}

/// Live layer: a raw socket feeds seeded mutations at a running server.
/// After every round the server must still answer a well-formed client
/// bit-identically to the in-process store — no panic, no hang, no
/// wrong answer, no poisoned shared state.
#[test]
fn live_server_survives_mutated_streams_and_still_answers_correctly() {
    let dir = temp_dir("live");
    let local = Arc::new(Catalog::create(&dir, grid()).unwrap());
    for (i, product) in [seed_product()].iter().enumerate() {
        local
            .ingest_beam("20191104195311_05000211", i, product)
            .unwrap();
    }
    let server = CatalogServer::serve(Arc::clone(&local), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let domain = grid().domain();
    let truth = local.query_rect(&domain, TimeRange::all()).unwrap();

    let corpus = corpus();
    let mut state = 0xdead_5eed_u64;
    let rounds = if cfg!(debug_assertions) { 60 } else { 300 };
    for round in 0..rounds {
        let mut raw = TcpStream::connect(&addr).unwrap();
        // A burst of 1–3 mutated frames per connection, sometimes
        // preceded by a valid one (mid-stream corruption).
        let lead_valid = splitmix64(&mut state).is_multiple_of(3);
        if lead_valid {
            let frame = wire::encode_frame(&Request::Ping.to_bytes(), 1, 0).unwrap();
            raw.write_all(&frame).unwrap();
        }
        for _ in 0..(splitmix64(&mut state) % 3 + 1) {
            let request = &corpus[(splitmix64(&mut state) as usize) % corpus.len()];
            let frame =
                wire::encode_frame(&request.to_bytes(), splitmix64(&mut state) % 7, 0).unwrap();
            let mutated = mutate(&frame, &mut state);
            if raw.write_all(&mutated).is_err() {
                break; // server already dropped us — a clean drop
            }
        }
        let answered = drain(&mut raw, Duration::from_millis(50));
        if lead_valid {
            // The valid leading request must not be lost to later
            // garbage on the same connection... unless the garbage cut
            // the connection first, which is a permitted clean drop.
            let _ = answered;
        }
        drop(raw);

        // The server is still healthy: fresh well-formed client, fresh
        // bit-identical answer.
        if round % 10 == 0 || round + 1 == rounds {
            let mut client = CatalogClient::connect(&addr).unwrap();
            let got = client.query_rect(&domain, TimeRange::all()).unwrap();
            assert_eq!(truth, got, "round {round}: served answer diverged");
            assert_eq!(
                truth.mean_ice_freeboard_m.to_bits(),
                got.mean_ice_freeboard_m.to_bits(),
                "round {round}: served answer not bit-identical"
            );
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reusing a live request id is a typed [`ERR_DUP_REQUEST`] error frame
/// for the duplicate, the original still answers, and the connection
/// survives both. The original is pinned in flight deterministically: a
/// served write stalled by a scripted ingest-entry fault cannot retire
/// its id before the duplicate behind it is read.
#[test]
fn duplicate_in_flight_request_ids_fail_typed_without_killing_the_connection() {
    use seaice_catalog::{CatalogOptions, FaultAction, FaultPlan, ServerConfig};

    let dir = temp_dir("dup");
    let plan =
        Arc::new(FaultPlan::scripted().with(FaultPlan::INGEST_PAUSE, 0, FaultAction::StallMs(400)));
    let local = Arc::new(
        Catalog::create_with(
            &dir,
            grid(),
            CatalogOptions {
                fault: Some(plan),
                ..CatalogOptions::default()
            },
        )
        .unwrap(),
    );
    let server = CatalogServer::serve_with(
        Arc::clone(&local),
        "127.0.0.1:0",
        ServerConfig {
            allow_writes: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();

    // Two frames, same id 7, in a single write: a served write that
    // stalls 400 ms at ingest entry, and a duplicate ping behind it.
    let write = Request::IngestSamples {
        granule_id: "20191104195311_05000211".into(),
        beam: 0,
        mode: seaice_catalog::IngestMode::Skip,
        product: seed_product(),
    };
    let mut burst = wire::encode_frame(&write.to_bytes(), 7, 0).unwrap();
    burst.extend_from_slice(&wire::encode_frame(&Request::Ping.to_bytes(), 7, 0).unwrap());
    raw.write_all(&burst).unwrap();

    let _ = raw.set_read_timeout(Some(Duration::from_millis(100)));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_dup_error = false;
    let mut saw_ingested = false;
    let mut reader = wire::FrameReader::default();
    while !(saw_dup_error && saw_ingested) {
        let frame = reader
            .read(&mut raw, || Instant::now() >= deadline)
            .unwrap()
            .expect("duplicate-id exchange hung or dropped the connection");
        assert_eq!(frame.request_id, 7);
        match Response::from_bytes(&frame.payload).unwrap() {
            Response::Error { code, .. } => {
                assert_eq!(code, ERR_DUP_REQUEST);
                assert!(
                    !saw_ingested,
                    "duplicate must be flagged while the original is live"
                );
                saw_dup_error = true;
            }
            Response::Ingested(report) => {
                assert_eq!(report.n_samples, seed_product().points.len());
                saw_ingested = true;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Same connection, fresh id: still serving.
    raw.write_all(&wire::encode_frame(&Request::Ping.to_bytes(), 8, 0).unwrap())
        .unwrap();
    let frame = reader
        .read(&mut raw, || Instant::now() >= deadline)
        .unwrap()
        .expect("connection must stay usable after a duplicate id");
    assert_eq!(frame.request_id, 8);
    assert!(matches!(
        Response::from_bytes(&frame.payload).unwrap(),
        Response::Pong(_)
    ));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
