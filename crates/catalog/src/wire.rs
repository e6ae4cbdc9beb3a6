//! The catalog wire protocol: length-prefixed frames carrying
//! artifact-tagged request/response messages.
//!
//! This module is the single normative implementation of the protocol
//! specified in `docs/PROTOCOL.md`. The framing reuses the
//! [`seaice::artifact`] conventions end to end — every frame payload is
//! a magic-tagged, versioned, overflow-hardened binary message — so a
//! server can reject foreign or future traffic before decoding a single
//! field, and a non-Rust client can be written from the spec alone.
//!
//! Layering (the frame is `docs/PROTOCOL.md` §2, the messages §3):
//!
//! - **Frame**: `u32` little-endian payload length, `u64` little-endian
//!   FNV-1a checksum of the request id, trace id, and payload, `u64`
//!   little-endian **request id** (the multiplexing key: every response
//!   frame echoes the id of the request it answers, so one connection
//!   carries many requests concurrently and responses may interleave
//!   and complete out of order), `u64` little-endian **trace id** (0 =
//!   untraced; a client-minted id echoed by every response frame of the
//!   exchange, so one request can be followed client → router → shard
//!   server), then the payload. Payloads are capped at
//!   [`MAX_FRAME_BYTES`]; both ends drop the connection on oversized
//!   frames. The checksum exists for the failure model: a flipped bit
//!   anywhere in a frame must surface as a typed protocol error, never
//!   decode into a silently wrong answer (or misroute a response to the
//!   wrong in-flight request). Artifact magic/version checks alone
//!   cannot promise that, because a flip inside an `f64` field still
//!   decodes.
//! - **Message**: one framed [`Request`] (`SIRQ` v4) or [`Response`]
//!   (`SIRS` v3). Both messages went to version 3 with the request-id
//!   frame header and the served write ([`Request::IngestSamples`] /
//!   [`Response::Ingested`]), so an older peer fails the version check
//!   instead of mis-framing the longer header. Requests went to
//!   version 4 when the served thickness write (kind 11) was retired.
//! - **Exchange**: one request, then one or more response frames
//!   carrying its request id. Streamed record responses (tile
//!   partials, layer partials, cell summaries) arrive as batch frames
//!   terminated by [`Response::Done`] carrying the total record count
//!   as an integrity check; scalar responses are a single frame.
//!   Errors arrive as [`Response::Error`] frames and terminate the
//!   exchange. **Ordering contract**: frames of one exchange arrive in
//!   order; frames of different exchanges may interleave arbitrarily,
//!   and exchanges complete in any order.
//!
//! Both ends build every frame with [`encode_frame`] and parse every
//! frame with [`try_extract_frame`]: the server over its
//! per-connection read buffers, the client through a [`FrameReader`]
//! on its socket. No other code reads or writes a frame header.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;

use icesat_geo::{BoundingBox, GeoPoint, EPSG_3976};
use seaice::artifact::{Artifact, ArtifactError, Codec, Reader, Writer};
use seaice::freeboard::FreeboardProduct;

use crate::cache::CacheStats;
use crate::grid::{GridConfig, MapRect, TileId, TileScope, TimeKey, TimeRange};
use crate::server::ServerStats;
use crate::store::{
    CatalogStats, CellSummary, IngestMode, IngestReport, QuerySummary, TilePartial,
};
use crate::tile::CellAggregate;
use crate::CatalogError;

/// Hard cap on a frame payload; both ends reject bigger frames.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Records per streamed batch frame (server-side chunking).
pub const BATCH_RECORDS: usize = 256;

/// Byte budget for the record payload of one streamed batch frame. Well
/// under [`MAX_FRAME_BYTES`], so a batch message (records + vec length +
/// artifact framing) can never hit the cap even if a future record type
/// grows — the server chunks on whichever of this and [`BATCH_RECORDS`]
/// bites first.
pub const MAX_BATCH_BYTES: usize = 1 << 20;

/// Protocol error code: the request frame failed to decode.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Protocol error code: unsupported request tag or version.
pub const ERR_BAD_VERSION: u16 = 2;
/// Protocol error code: the catalog failed to answer.
pub const ERR_CATALOG: u16 = 3;
/// Protocol error code: a write RPC hit a server not configured to
/// accept served writes ([`crate::ServerConfig::allow_writes`]).
pub const ERR_READ_ONLY: u16 = 4;
/// Protocol error code: a request frame reused a request id that is
/// still in flight on the same connection.
pub const ERR_DUP_REQUEST: u16 = 5;

/// Bytes of a frame header: `u32` length, `u64` checksum, `u64`
/// request id, `u64` trace id.
pub const FRAME_HEADER_BYTES: usize = 28;

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// One decoded frame: the payload plus its header ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The artifact-framed message bytes.
    pub payload: Vec<u8>,
    /// Multiplexing key: which in-flight request this frame belongs to.
    pub request_id: u64,
    /// Distributed-tracing id (0 = untraced).
    pub trace_id: u64,
}

/// FNV-1a checksum of a frame's request id, trace id, and payload, as
/// carried in the frame header. Single-bit flips anywhere in the
/// header or payload are detected (see the
/// `every_single_bit_flip_is_detected` test), which is what lets the
/// failure model promise "typed error or bit-identical answer" —
/// corruption can never decode into plausible numbers. The ids are
/// covered so a flipped request-id bit cannot silently route a
/// response to the wrong in-flight request, and a flipped trace-id bit
/// cannot mislabel a timing breakdown.
pub fn frame_checksum(request_id: u64, trace_id: u64, payload: &[u8]) -> u64 {
    crate::fnv1a(
        request_id
            .to_le_bytes()
            .into_iter()
            .chain(trace_id.to_le_bytes())
            .chain(payload.iter().copied()),
    )
}

/// Reads the little-endian `u32` at byte offset `off`, as a typed
/// protocol error when `buf` is too short — header parsing must never
/// panic on attacker-controlled input.
fn le_u32(buf: &[u8], off: usize) -> Result<u32, CatalogError> {
    let bytes: [u8; 4] = buf
        .get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            CatalogError::Protocol(format!("frame header truncated at byte offset {off}"))
        })?;
    Ok(u32::from_le_bytes(bytes))
}

/// Reads the little-endian `u64` at byte offset `off`: [`le_u32`].
fn le_u64(buf: &[u8], off: usize) -> Result<u64, CatalogError> {
    let bytes: [u8; 8] = buf
        .get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            CatalogError::Protocol(format!("frame header truncated at byte offset {off}"))
        })?;
    Ok(u64::from_le_bytes(bytes))
}

/// Encodes one frame (header + payload) into a byte vector: the only
/// code that builds a frame header, for the server's per-connection
/// write buffers and the client's socket writes alike. `request_id` is
/// the multiplexing key and `trace_id` is 0 when untraced. An oversized
/// payload is a typed [`CatalogError::Protocol`] error before anything
/// reaches a socket: writing it would poison the connection, because
/// the peer rejects the length prefix and drops the stream.
pub fn encode_frame(
    payload: &[u8],
    request_id: u64,
    trace_id: u64,
) -> Result<Vec<u8>, CatalogError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(CatalogError::Protocol(format!(
            "refusing to write a {}-byte frame (cap {MAX_FRAME_BYTES})",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(request_id, trace_id, payload).to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&trace_id.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Extracts one complete frame from the front of an accumulation
/// buffer (the nonblocking server's per-connection read buffer).
/// Returns the frame and the bytes consumed, `Ok(None)` when the
/// buffer does not yet hold a complete frame, and a typed error on an
/// oversized length prefix or checksum mismatch — frame-level
/// violations the caller answers by dropping the connection.
pub fn try_extract_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, CatalogError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = le_u32(buf, 0)? as usize;
    // Reject a hostile length before waiting for bytes that are never
    // coming — the cap check must not need the whole header.
    if len > MAX_FRAME_BYTES {
        return Err(CatalogError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    if buf.len() < FRAME_HEADER_BYTES + len {
        return Ok(None);
    }
    let expected = le_u64(buf, 4)?;
    let request_id = le_u64(buf, 12)?;
    let trace_id = le_u64(buf, 20)?;
    let payload = buf
        .get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len)
        .ok_or_else(|| {
            CatalogError::Protocol(format!(
                "frame buffer shorter than its declared {len}-byte payload"
            ))
        })?;
    let got = frame_checksum(request_id, trace_id, payload);
    if got != expected {
        return Err(CatalogError::Protocol(format!(
            "frame checksum mismatch (header {expected:#018x}, payload {got:#018x}): \
             corrupted stream"
        )));
    }
    Ok(Some((
        Frame {
            payload: payload.to_vec(),
            request_id,
            trace_id,
        },
        FRAME_HEADER_BYTES + len,
    )))
}

/// Bytes a socket read asks for at least, on both ends: the server's
/// per-event chunk and a [`FrameReader`]'s spare room.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Blocking frame reader for one stream: [`try_extract_frame`] over a
/// buffer it fills from the stream. Bytes read past the end of a frame
/// stay buffered for the next call, so a reader belongs to exactly one
/// stream and must be dropped with it.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that came from the stream; the rest
    /// is read space, zeroed once when the buffer grows.
    filled: usize,
}

impl FrameReader {
    /// Reads the next frame from `r`, blocking. `Ok(None)` is a clean
    /// end-of-stream at a frame boundary, or `should_stop` returning
    /// true on a read-timeout tick; otherwise a timeout keeps reading,
    /// inside a frame too (the peer is mid-send). EOF inside a frame is
    /// a typed [`CatalogError::Protocol`] error, as is every frame-level
    /// violation [`try_extract_frame`] reports.
    pub fn read(
        &mut self,
        r: &mut impl Read,
        mut should_stop: impl FnMut() -> bool,
    ) -> Result<Option<Frame>, CatalogError> {
        loop {
            if let Some((frame, used)) = try_extract_frame(&self.buf[..self.filled])? {
                self.buf.copy_within(used..self.filled, 0);
                self.filled -= used;
                return Ok(Some(frame));
            }
            if self.buf.len() < self.filled + READ_CHUNK {
                self.buf.resize(self.filled + READ_CHUNK, 0);
            }
            match r.read(&mut self.buf[self.filled..]) {
                Ok(0) if self.filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(CatalogError::Protocol(format!(
                        "connection closed {} bytes into a frame",
                        self.filled
                    )))
                }
                Ok(n) => self.filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if should_stop() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(CatalogError::Io(e)),
            }
        }
    }
}

/// Splits `records` into batch index ranges respecting both the record
/// cap and the byte budget: a batch closes when it holds `max_records`
/// or when adding the next record's encoded size would push its record
/// payload past `max_bytes`. Every range is non-empty (a single record
/// larger than the budget still travels — alone), ranges tile
/// `0..records.len()` in order, and the split depends only on the
/// records, so re-chunking is deterministic.
pub fn batch_ranges<T: Codec>(
    records: &[T],
    max_records: usize,
    max_bytes: usize,
) -> Vec<std::ops::Range<usize>> {
    let max_records = max_records.max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0usize;
    for (i, record) in records.iter().enumerate() {
        let mut scratch = Writer::new();
        record.encode(&mut scratch);
        let size = scratch.finish().len();
        let full = i - start >= max_records || (i > start && bytes + size > max_bytes);
        if full {
            ranges.push(start..i);
            start = i;
            bytes = 0;
        }
        bytes += size;
    }
    if start < records.len() {
        ranges.push(start..records.len());
    }
    ranges
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// One client request (`SIRQ` v4). Every query carries the
/// [`TileScope`] it is restricted to — the shard router sends each
/// shard its owned prefixes, so a tile is answered by exactly one
/// shard even when shard stores overlap.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The catalog's grid (the handshake — a client needs it for
    /// tile-cover planning and point routing).
    Manifest,
    /// Per-tile partials of a projected-rect summary query.
    QueryRect {
        /// Query rectangle, EPSG-3976 metres.
        rect: MapRect,
        /// Temporal layers included.
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// Per-tile partials of a geographic bounding-box summary query.
    QueryBbox {
        /// Geographic query box.
        bbox: BoundingBox,
        /// Temporal layers included.
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// The aggregated cell under a geographic point.
    QueryPoint {
        /// Probe point.
        point: GeoPoint,
        /// Temporal layers merged (chronological).
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// Per-layer, per-tile partials over a time range.
    QueryTimeRange {
        /// Temporal layers included.
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// The gridded composite over a projected rect.
    QueryCells {
        /// Query rectangle, EPSG-3976 metres.
        rect: MapRect,
        /// Temporal layers merged per cell (chronological).
        time: TimeRange,
        /// Tiles the responder may touch.
        scope: TileScope,
    },
    /// Scoped store counters + layer list.
    Stats {
        /// Tiles counted.
        scope: TileScope,
    },
    /// Scoped full-store invariant check.
    Validate {
        /// Tiles checked.
        scope: TileScope,
    },
    /// Health probe: answers [`Response::Pong`] with the server's
    /// serving counters. Cheap (no catalog access) — this is what
    /// circuit-breaker half-open probes send.
    Ping,
    /// Observability scrape: answers [`Response::Metrics`] with the
    /// server's full metric snapshot in text exposition format —
    /// per-request-kind latency histograms, error/cache/ingest/lease
    /// counters, and recent traced-request breakdowns — instead of the
    /// fixed `ServerStats` counters.
    Introspect,
    /// Served write: ingest one beam's freeboard product under the
    /// server's own writer lease — a thin producer streams products at
    /// a shard server instead of needing an in-process leased writer.
    /// Answers [`Response::Ingested`]. A server without
    /// [`crate::ServerConfig::allow_writes`] answers [`ERR_READ_ONLY`]
    /// and the connection survives. Safe to retry: the catalog's
    /// source-identity idempotency ([`IngestMode::Skip`] re-runs are
    /// byte-stable no-ops, [`IngestMode::Replace`] converges) makes a
    /// duplicate delivery harmless.
    IngestSamples {
        /// ATL03-style granule id (leading `YYYYMM` selects the layer).
        granule_id: String,
        /// Beam index in `0..6` ([`icesat_atl03::Beam::index`]).
        beam: u32,
        /// Re-ingest policy for an already-seen `(granule, beam)`.
        mode: IngestMode,
        /// The freeboard product to merge.
        product: FreeboardProduct,
    },
}

/// The request-kind table, indexed by wire tag: the `kind` label of
/// each request kind's server metrics (`server_request_us{kind="…"}`).
/// [`Request::tag`] gives every request its row; encoding writes it.
pub const REQUEST_KINDS: [&str; 11] = [
    "manifest",
    "query_rect",
    "query_bbox",
    "query_point",
    "query_time_range",
    "query_cells",
    "stats",
    "validate",
    "ping",
    "introspect",
    "ingest_samples",
];

impl Request {
    /// This request's wire tag: its row in [`REQUEST_KINDS`].
    pub fn tag(&self) -> u8 {
        match self {
            Request::Manifest => 0,
            Request::QueryRect { .. } => 1,
            Request::QueryBbox { .. } => 2,
            Request::QueryPoint { .. } => 3,
            Request::QueryTimeRange { .. } => 4,
            Request::QueryCells { .. } => 5,
            Request::Stats { .. } => 6,
            Request::Validate { .. } => 7,
            Request::Ping => 8,
            Request::Introspect => 9,
            Request::IngestSamples { .. } => 10,
        }
    }

    /// The tiles a scoped request is restricted to, `None` for requests
    /// outside the query path. The shard router rewrites it per owner.
    pub fn scope_mut(&mut self) -> Option<&mut TileScope> {
        match self {
            Request::QueryRect { scope, .. }
            | Request::QueryBbox { scope, .. }
            | Request::QueryPoint { scope, .. }
            | Request::QueryTimeRange { scope, .. }
            | Request::QueryCells { scope, .. }
            | Request::Stats { scope }
            | Request::Validate { scope } => Some(scope),
            _ => None,
        }
    }

    /// The tiles this request could touch, sorted; `None` when it
    /// ranges over every tile. The engine scans only these tiles' index
    /// entries and the shard router asks only their owners.
    pub fn footprint(&self, grid: &GridConfig) -> Option<Vec<TileId>> {
        let mut tiles = match self {
            Request::QueryRect { rect, .. } | Request::QueryCells { rect, .. } => {
                grid.tiles_overlapping(rect)
            }
            Request::QueryBbox { bbox, .. } => grid.tiles_overlapping(&grid.bbox_cover(bbox)),
            Request::QueryPoint { point, .. } => grid
                .locate(EPSG_3976.forward(*point))
                .map(|(tile, _)| tile)
                .into_iter()
                .collect(),
            _ => return None,
        };
        tiles.sort_unstable();
        Some(tiles)
    }
}

impl Codec for Request {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tag());
        match self {
            Request::Manifest | Request::Ping | Request::Introspect => {}
            Request::QueryRect { rect, time, scope }
            | Request::QueryCells { rect, time, scope } => {
                rect.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryBbox { bbox, time, scope } => {
                bbox.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryPoint { point, time, scope } => {
                point.encode(w);
                time.encode(w);
                scope.encode(w);
            }
            Request::QueryTimeRange { time, scope } => {
                time.encode(w);
                scope.encode(w);
            }
            Request::Stats { scope } | Request::Validate { scope } => scope.encode(w),
            Request::IngestSamples {
                granule_id,
                beam,
                mode,
                product,
            } => {
                granule_id.encode(w);
                w.put_u32(*beam);
                mode.encode(w);
                product.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.take_u8()? {
            0 => Request::Manifest,
            1 => Request::QueryRect {
                rect: MapRect::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            2 => Request::QueryBbox {
                bbox: BoundingBox::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            3 => Request::QueryPoint {
                point: GeoPoint::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            4 => Request::QueryTimeRange {
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            5 => Request::QueryCells {
                rect: MapRect::decode(r)?,
                time: TimeRange::decode(r)?,
                scope: TileScope::decode(r)?,
            },
            6 => Request::Stats {
                scope: TileScope::decode(r)?,
            },
            7 => Request::Validate {
                scope: TileScope::decode(r)?,
            },
            8 => Request::Ping,
            9 => Request::Introspect,
            10 => Request::IngestSamples {
                granule_id: String::decode(r)?,
                beam: r.take_u32()?,
                mode: IngestMode::decode(r)?,
                product: FreeboardProduct::decode(r)?,
            },
            _ => return Err(ArtifactError::Invalid("request kind")),
        })
    }
}

impl Artifact for Request {
    const TAG: [u8; 4] = *b"SIRQ";
    const VERSION: u16 = 4;
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// One server response frame (`SIRS` v3).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The catalog's grid (answers [`Request::Manifest`]).
    Manifest(GridConfig),
    /// A batch of per-tile summary partials (rect/bbox queries).
    TileBatch(Vec<TilePartial>),
    /// A batch of per-layer, per-tile partials (time-range queries).
    LayerBatch(Vec<(TimeKey, TilePartial)>),
    /// A batch of gridded composite cells (cell queries).
    CellBatch(Vec<CellSummary>),
    /// The aggregated cell under a probe point, if any.
    Point(Option<CellSummary>),
    /// Scoped counters + chronological layer list.
    Stats {
        /// Scoped store counters.
        stats: CatalogStats,
        /// Scoped temporal layers, chronological.
        layers: Vec<TimeKey>,
    },
    /// Terminates a streamed response; `n_records` is the total record
    /// count across the preceding batches (integrity check). Also the
    /// success reply to [`Request::Validate`], where it carries the
    /// number of tiles checked.
    Done {
        /// Total records streamed before this frame.
        n_records: u64,
    },
    /// The request failed; terminates the exchange.
    Error {
        /// Protocol error code (`ERR_*`).
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Health-probe reply (answers [`Request::Ping`]): a snapshot of
    /// the server's serving counters.
    Pong(ServerStats),
    /// Observability scrape reply (answers [`Request::Introspect`]):
    /// the server's metric snapshot as sorted text-exposition lines
    /// (`name{label="v"} value`), parseable with
    /// `seaice_obs::parse_exposition`.
    Metrics(String),
    /// Served-write reply (answers [`Request::IngestSamples`]): what
    /// the leased merge did.
    Ingested(IngestReport),
}

impl Codec for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Manifest(grid) => {
                w.put_u8(0);
                grid.encode(w);
            }
            Response::TileBatch(batch) => {
                w.put_u8(1);
                batch.encode(w);
            }
            Response::LayerBatch(batch) => {
                w.put_u8(2);
                batch.encode(w);
            }
            Response::CellBatch(batch) => {
                w.put_u8(3);
                batch.encode(w);
            }
            Response::Point(cell) => {
                w.put_u8(4);
                cell.encode(w);
            }
            Response::Stats { stats, layers } => {
                w.put_u8(5);
                stats.encode(w);
                layers.encode(w);
            }
            Response::Done { n_records } => {
                w.put_u8(6);
                w.put_u64(*n_records);
            }
            Response::Error { code, message } => {
                w.put_u8(7);
                w.put_u16(*code);
                message.encode(w);
            }
            Response::Pong(stats) => {
                w.put_u8(8);
                stats.encode(w);
            }
            Response::Metrics(text) => {
                w.put_u8(9);
                text.encode(w);
            }
            Response::Ingested(report) => {
                w.put_u8(10);
                report.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.take_u8()? {
            0 => Response::Manifest(GridConfig::decode(r)?),
            1 => Response::TileBatch(Vec::decode(r)?),
            2 => Response::LayerBatch(Vec::decode(r)?),
            3 => Response::CellBatch(Vec::decode(r)?),
            4 => Response::Point(Option::decode(r)?),
            5 => Response::Stats {
                stats: CatalogStats::decode(r)?,
                layers: Vec::decode(r)?,
            },
            6 => Response::Done {
                n_records: r.take_u64()?,
            },
            7 => Response::Error {
                code: r.take_u16()?,
                message: String::decode(r)?,
            },
            8 => Response::Pong(ServerStats::decode(r)?),
            9 => Response::Metrics(String::decode(r)?),
            10 => Response::Ingested(IngestReport::decode(r)?),
            _ => return Err(ArtifactError::Invalid("response kind")),
        })
    }
}

impl Artifact for Response {
    const TAG: [u8; 4] = *b"SIRS";
    const VERSION: u16 = 3;
}

// ---------------------------------------------------------------------------
// Records: the answer to a query-path request.
// ---------------------------------------------------------------------------

/// The answer to a query-path request (the five queries, `Stats`, and
/// `Validate`) in its wire form, before the final fold.
///
/// One path carries every kind: [`crate::Catalog::execute`] computes
/// it, the server streams it, [`crate::CatalogClient::call`] decodes it
/// back from the frames, and [`crate::ShardRouter::run_routed`] merges
/// one per shard with [`Records::merge`]. The typed answers are the
/// `into_*` folds, shared verbatim by engine, client, and router — which
/// is what makes every path's answer bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Records {
    /// Per-tile summary partials (rect and bbox queries).
    Tiles(Vec<TilePartial>),
    /// Per-tile partials by layer (time-range queries). On the wire a
    /// layer travels as its `(layer, partial)` records, so no answer
    /// lists a layer without partials.
    Layers(BTreeMap<TimeKey, Vec<TilePartial>>),
    /// Gridded composite cells, sorted by `(tile, cell)`.
    Cells(Vec<CellSummary>),
    /// The aggregated cell under a probe point, if any.
    Point(Option<CellSummary>),
    /// Scoped counters plus the chronological layer list.
    Stats {
        /// Scoped store counters.
        stats: CatalogStats,
        /// Scoped temporal layers, chronological.
        layers: Vec<TimeKey>,
    },
    /// Tiles a validation checked.
    Checked(u64),
}

fn wrong_records(want: &str) -> CatalogError {
    CatalogError::Protocol(format!("the answer is not {want}"))
}

/// The refusal of a request outside the query path where a query is
/// required.
pub(crate) fn not_a_query(request: &Request) -> CatalogError {
    let kind = REQUEST_KINDS[usize::from(request.tag())];
    CatalogError::Protocol(format!("request kind {kind} is not a query"))
}

/// A response frame the exchange did not expect at this point.
pub(crate) fn unexpected(response: &Response) -> CatalogError {
    CatalogError::Protocol(format!("unexpected response frame: {response:?}"))
}

impl Records {
    /// The empty answer to `request`; a typed protocol error for
    /// requests outside the query path. Decoding and merging start from
    /// it, so an answer with no records still has its kind.
    pub fn empty_for(request: &Request) -> Result<Records, CatalogError> {
        Ok(match request {
            Request::QueryRect { .. } | Request::QueryBbox { .. } => Records::Tiles(Vec::new()),
            Request::QueryTimeRange { .. } => Records::Layers(BTreeMap::new()),
            Request::QueryCells { .. } => Records::Cells(Vec::new()),
            Request::QueryPoint { .. } => Records::Point(None),
            Request::Stats { .. } => Records::Stats {
                stats: CatalogStats::default(),
                layers: Vec::new(),
            },
            Request::Validate { .. } => Records::Checked(0),
            other => return Err(not_a_query(other)),
        })
    }

    /// Adds `more` — records of the same kind over other tiles — to
    /// this answer: streams concatenate, counters sum, layer lists
    /// union.
    fn append(&mut self, more: Records) -> Result<(), CatalogError> {
        match (self, more) {
            (Records::Tiles(a), Records::Tiles(mut b)) => a.append(&mut b),
            (Records::Layers(a), Records::Layers(b)) => {
                for (time, mut partials) in b {
                    a.entry(time).or_default().append(&mut partials);
                }
            }
            (Records::Cells(a), Records::Cells(mut b)) => a.append(&mut b),
            (Records::Point(a), Records::Point(b)) => {
                if b.is_some() {
                    if a.is_some() {
                        return Err(CatalogError::Protocol(
                            "two shards answered for the same point".into(),
                        ));
                    }
                    *a = b;
                }
            }
            (
                Records::Stats { stats, layers },
                Records::Stats {
                    stats: s,
                    layers: l,
                },
            ) => {
                stats.n_tiles += s.n_tiles;
                stats.n_samples += s.n_samples;
                stats.n_thickness += s.n_thickness;
                stats.cache.hits += s.cache.hits;
                stats.cache.misses += s.cache.misses;
                stats.cache.evictions += s.cache.evictions;
                layers.extend(l);
                layers.sort_unstable();
                layers.dedup();
                stats.n_layers = layers.len();
            }
            (Records::Checked(a), Records::Checked(b)) => *a += b,
            _ => return Err(wrong_records("of the kind being merged")),
        }
        Ok(())
    }

    /// Assembles a completed exchange — its batch frames and the frame
    /// that ended it — onto this empty answer ([`Records::empty_for`]
    /// the request). A streamed answer must end in a `Done` whose count
    /// matches the records carried; a scalar one is its single frame.
    pub fn assemble(
        mut self,
        batches: Vec<Response>,
        done: Response,
    ) -> Result<Records, CatalogError> {
        let mut streamed = 0usize;
        for batch in batches {
            let more = match batch {
                Response::TileBatch(b) => (b.len(), Records::Tiles(b)),
                Response::LayerBatch(b) => {
                    let n = b.len();
                    let mut layers: BTreeMap<TimeKey, Vec<TilePartial>> = BTreeMap::new();
                    for (time, partial) in b {
                        layers.entry(time).or_default().push(partial);
                    }
                    (n, Records::Layers(layers))
                }
                Response::CellBatch(b) => (b.len(), Records::Cells(b)),
                other => return Err(unexpected(&other)),
            };
            streamed += more.0;
            self.append(more.1)?;
        }
        let streams = matches!(
            self,
            Records::Tiles(_) | Records::Layers(_) | Records::Cells(_)
        );
        let last = match done {
            Response::Done { n_records } if streams => {
                if n_records != streamed as u64 {
                    return Err(CatalogError::Protocol(format!(
                        "stream advertised {n_records} records but carried {streamed}"
                    )));
                }
                return Ok(self);
            }
            Response::Done { n_records } if streamed == 0 => Records::Checked(n_records),
            Response::Point(cell) => Records::Point(cell),
            Response::Stats { stats, layers } => Records::Stats { stats, layers },
            other => return Err(unexpected(&other)),
        };
        self.append(last)?;
        Ok(self)
    }

    /// Merges shard answers to `request`, each over a disjoint scope,
    /// into the answer one catalog holding all their tiles gives. A
    /// tile, layer tile, cell, or point answered twice is a typed error
    /// (overlapping shard stores); cells come back sorted by
    /// `(tile, cell)`.
    pub fn merge(request: &Request, answers: Vec<Records>) -> Result<Records, CatalogError> {
        let mut merged = Records::empty_for(request)?;
        for answer in answers {
            merged.append(answer)?;
        }
        let duplicate = |what: &str| {
            Err(CatalogError::Protocol(format!(
                "two shards answered for the same {what}"
            )))
        };
        let unique = |partials: &[TilePartial]| {
            let mut seen = BTreeSet::new();
            partials.iter().all(|p| seen.insert(p.tile))
        };
        match &mut merged {
            Records::Tiles(tiles) if !unique(tiles) => return duplicate("tile"),
            Records::Layers(layers) if !layers.values().all(|l| unique(l)) => {
                return duplicate("layer tile")
            }
            Records::Cells(cells) => {
                cells.sort_unstable_by_key(|c| (c.tile, c.cell));
                if cells
                    .windows(2)
                    .any(|w| (w[0].tile, w[0].cell) == (w[1].tile, w[1].cell))
                {
                    return duplicate("cell");
                }
            }
            _ => {}
        }
        Ok(merged)
    }

    /// The per-tile partials of a rect or bbox answer.
    pub fn into_tiles(self) -> Result<Vec<TilePartial>, CatalogError> {
        match self {
            Records::Tiles(tiles) => Ok(tiles),
            _ => Err(wrong_records("tile partials")),
        }
    }

    /// The summary fold of a rect or bbox answer.
    pub fn into_summary(self) -> Result<QuerySummary, CatalogError> {
        self.into_tiles().map(QuerySummary::from_partials)
    }

    /// The per-tile partials of a time-range answer, grouped by layer,
    /// chronological.
    pub fn into_layer_partials(self) -> Result<Vec<(TimeKey, Vec<TilePartial>)>, CatalogError> {
        match self {
            Records::Layers(layers) => Ok(layers.into_iter().collect()),
            _ => Err(wrong_records("layer partials")),
        }
    }

    /// The per-layer summary fold of a time-range answer, chronological.
    pub fn into_layers(self) -> Result<Vec<(TimeKey, QuerySummary)>, CatalogError> {
        Ok(self
            .into_layer_partials()?
            .into_iter()
            .map(|(time, partials)| (time, QuerySummary::from_partials(partials)))
            .collect())
    }

    /// The cells of a composite answer.
    pub fn into_cells(self) -> Result<Vec<CellSummary>, CatalogError> {
        match self {
            Records::Cells(cells) => Ok(cells),
            _ => Err(wrong_records("cells")),
        }
    }

    /// The cell of a point answer.
    pub fn into_point(self) -> Result<Option<CellSummary>, CatalogError> {
        match self {
            Records::Point(cell) => Ok(cell),
            _ => Err(wrong_records("a point")),
        }
    }

    /// The counters of a stats answer.
    pub fn into_stats(self) -> Result<CatalogStats, CatalogError> {
        match self {
            Records::Stats { stats, .. } => Ok(stats),
            _ => Err(wrong_records("stats")),
        }
    }

    /// The tile count of a validation answer.
    pub fn into_checked(self) -> Result<usize, CatalogError> {
        match self {
            Records::Checked(n) => Ok(n as usize),
            _ => Err(wrong_records("a validation count")),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec impls for the payload records that cross the wire.
// ---------------------------------------------------------------------------

impl Codec for CellSummary {
    fn encode(&self, w: &mut Writer) {
        self.tile.encode(w);
        w.put_u32(self.cell);
        self.center.encode(w);
        self.agg.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CellSummary {
            tile: crate::grid::TileId::decode(r)?,
            cell: r.take_u32()?,
            center: icesat_geo::MapPoint::decode(r)?,
            agg: CellAggregate::decode(r)?,
        })
    }
}

impl Codec for CacheStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CacheStats {
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            evictions: r.take_u64()?,
        })
    }
}

impl Codec for ServerStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.connections);
        w.put_u64(self.requests);
        w.put_u64(self.records_streamed);
        w.put_u64(self.errors);
        w.put_u64(self.idle_dropped);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(ServerStats {
            connections: r.take_u64()?,
            requests: r.take_u64()?,
            records_streamed: r.take_u64()?,
            errors: r.take_u64()?,
            idle_dropped: r.take_u64()?,
        })
    }
}

impl Codec for IngestMode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            IngestMode::Skip => 0,
            IngestMode::Replace => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.take_u8()? {
            0 => IngestMode::Skip,
            1 => IngestMode::Replace,
            _ => return Err(ArtifactError::Invalid("ingest mode")),
        })
    }
}

impl Codec for IngestReport {
    fn encode(&self, w: &mut Writer) {
        self.n_samples.encode(w);
        self.n_out_of_domain.encode(w);
        self.n_skipped.encode(w);
        self.n_replaced.encode(w);
        self.n_tiles.encode(w);
        self.n_layers.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(IngestReport {
            n_samples: usize::decode(r)?,
            n_out_of_domain: usize::decode(r)?,
            n_skipped: usize::decode(r)?,
            n_replaced: usize::decode(r)?,
            n_tiles: usize::decode(r)?,
            n_layers: usize::decode(r)?,
        })
    }
}

impl Codec for CatalogStats {
    fn encode(&self, w: &mut Writer) {
        self.n_layers.encode(w);
        self.n_tiles.encode(w);
        self.n_samples.encode(w);
        self.n_thickness.encode(w);
        self.cache.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(CatalogStats {
            n_layers: usize::decode(r)?,
            n_tiles: usize::decode(r)?,
            n_samples: usize::decode(r)?,
            n_thickness: usize::decode(r)?,
            cache: CacheStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{TileId, TimeKey};
    use icesat_geo::MapPoint;

    fn partial() -> TilePartial {
        TilePartial {
            tile: TileId::new(3, 2, 5).unwrap(),
            n_samples: 12,
            class_counts: [5, 4, 3],
            n_ice: 9,
            ice_sum_m: 2.25,
            min_freeboard_m: -0.02,
            max_freeboard_m: 0.61,
            n_cells: 4,
            t_n: 6,
            t_sum_m: 9.5,
            t_w_sum: 30.0,
            t_wt_sum: 48.0,
        }
    }

    /// `message` as one frame carrying both ids.
    fn framed<M: Artifact>(message: &M, request_id: u64, trace_id: u64) -> Vec<u8> {
        encode_frame(&message.to_bytes(), request_id, trace_id).unwrap()
    }

    /// The first frame of `bytes`, read through a fresh [`FrameReader`].
    fn read_one(bytes: &[u8]) -> Result<Option<Frame>, CatalogError> {
        FrameReader::default().read(&mut &bytes[..], || false)
    }

    /// [`read_one`], decoded as an `M`.
    fn read_msg<M: Artifact>(bytes: &[u8]) -> Result<Option<M>, CatalogError> {
        match read_one(bytes)? {
            None => Ok(None),
            Some(frame) => Ok(Some(M::from_bytes(&frame.payload)?)),
        }
    }

    fn roundtrip<M: Artifact + PartialEq + std::fmt::Debug>(m: &M) {
        let bytes = framed(m, 0, 0);
        let mut stream = &bytes[..];
        let mut reader = FrameReader::default();
        let frame = reader.read(&mut stream, || false).unwrap();
        let back = M::from_bytes(&frame.expect("one message").payload).unwrap();
        assert_eq!(&back, m);
        assert!(
            matches!(reader.read(&mut stream, || false), Ok(None)),
            "clean EOF"
        );
    }

    /// One request of every kind.
    fn requests() -> Vec<Request> {
        let scope = TileScope::of(&["0", "31"]).unwrap();
        let rect = MapRect::new(MapPoint::new(-1.0, -2.0), MapPoint::new(3.0, 4.0));
        let time = TimeRange::only(TimeKey::new(2019, 11).unwrap());
        vec![
            Request::Manifest,
            Request::QueryRect {
                rect,
                time,
                scope: scope.clone(),
            },
            Request::QueryBbox {
                bbox: icesat_geo::BoundingBox::ROSS_SEA,
                time,
                scope: scope.clone(),
            },
            Request::QueryPoint {
                point: GeoPoint::new(-74.0, -163.0),
                time,
                scope: scope.clone(),
            },
            Request::QueryTimeRange {
                time: TimeRange::all(),
                scope: scope.clone(),
            },
            Request::QueryCells {
                rect,
                time,
                scope: scope.clone(),
            },
            Request::Stats {
                scope: scope.clone(),
            },
            Request::Validate { scope },
            Request::Ping,
            Request::Introspect,
            Request::IngestSamples {
                granule_id: "20191104195311_05000211".into(),
                beam: 2,
                mode: crate::store::IngestMode::Replace,
                product: seaice::freeboard::FreeboardProduct {
                    name: "wire roundtrip".into(),
                    points: vec![seaice::freeboard::FreeboardPoint {
                        along_track_m: 12.0,
                        lat: -74.25,
                        lon: -163.5,
                        freeboard_m: 0.31,
                        class: icesat_scene::SurfaceClass::ThickIce,
                    }],
                },
            },
        ]
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        for request in requests() {
            roundtrip(&request);
        }
    }

    /// Shard answers merge by kind; a tile, layer tile, cell, or point
    /// answered twice is a typed error, and so is a stream whose `Done`
    /// miscounts its records or a request outside the query path.
    #[test]
    fn records_merge_refuses_duplicates_and_miscounted_streams() {
        let layer = TimeKey::new(2019, 9).unwrap();
        for request in requests() {
            let Ok(empty) = Records::empty_for(&request) else {
                assert!(Records::merge(&request, Vec::new()).is_err());
                continue;
            };
            let answer = match empty {
                Records::Tiles(_) => Records::Tiles(vec![partial()]),
                Records::Layers(_) => Records::Layers(BTreeMap::from([(layer, vec![partial()])])),
                Records::Cells(_) => Records::Cells(vec![cell()]),
                Records::Point(_) => Records::Point(Some(cell())),
                // Counters sum across shards: nothing to refuse.
                Records::Stats { .. } | Records::Checked(_) => continue,
            };
            assert_eq!(
                Records::merge(&request, vec![answer.clone()]).unwrap(),
                answer
            );
            assert!(Records::merge(&request, vec![answer.clone(), answer]).is_err());
        }
        let batch = || vec![Response::TileBatch(vec![partial()])];
        let done = |n_records| Response::Done { n_records };
        let empty = Records::Tiles(Vec::new());
        assert!(empty.clone().assemble(batch(), done(1)).is_ok());
        assert!(empty.assemble(batch(), done(2)).is_err());
    }

    #[test]
    fn mux_frames_carry_and_checksum_both_ids() {
        let message = Request::Ping;
        let buf = framed(&message, 41, 0xDEAD_BEEF_CAFE_F00D);
        let frame = read_one(&buf).unwrap().expect("one frame");
        assert_eq!(frame.request_id, 41);
        assert_eq!(frame.trace_id, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(Request::from_bytes(&frame.payload).unwrap(), message);
        // An untraced frame with request id 0 reads back with both ids 0.
        let f = read_one(&framed(&message, 0, 0))
            .unwrap()
            .expect("one frame");
        assert_eq!((f.request_id, f.trace_id), (0, 0));
        // Any single-bit flip of the request-id or trace-id field is
        // caught by the checksum — a corrupted request id can never
        // route a response to the wrong in-flight exchange, and a
        // corrupted trace id can never mislabel a breakdown.
        for byte in 12..FRAME_HEADER_BYTES {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_one(&corrupt).is_err(),
                    "header-id flip byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn try_extract_frame_handles_partial_and_hostile_buffers() {
        let mut buf = framed(&Request::Ping, 7, 9);
        buf.extend(framed(&Request::Manifest, 8, 0));
        // Every strict prefix short of the first frame is incomplete.
        let first_len = {
            let (frame, consumed) = try_extract_frame(&buf).unwrap().expect("complete frame");
            assert_eq!((frame.request_id, frame.trace_id), (7, 9));
            assert_eq!(Request::from_bytes(&frame.payload).unwrap(), Request::Ping);
            consumed
        };
        for cut in 0..first_len {
            assert!(
                try_extract_frame(&buf[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        // Consuming the first frame leaves the second extractable.
        let (frame, consumed) = try_extract_frame(&buf[first_len..])
            .unwrap()
            .expect("second frame");
        assert_eq!(frame.request_id, 8);
        assert_eq!(first_len + consumed, buf.len());
        // Hostile length prefix fails before the header completes.
        assert!(try_extract_frame(&u32::MAX.to_le_bytes()).is_err());
        // A flipped payload bit fails typed.
        let mut corrupt = buf.clone();
        corrupt[FRAME_HEADER_BYTES] ^= 0x10;
        assert!(try_extract_frame(&corrupt).is_err());
    }

    /// A stream that yields one byte per read, with a timeout
    /// (`WouldBlock` and `TimedOut` in turn) before every byte and
    /// before its final EOF.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        reads: usize,
    }

    impl Trickle {
        fn new(bytes: &[u8]) -> Trickle {
            Trickle {
                bytes: bytes.to_vec(),
                at: 0,
                reads: 0,
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.reads % 4 {
                1 => return Err(std::io::ErrorKind::WouldBlock.into()),
                3 => return Err(std::io::ErrorKind::TimedOut.into()),
                _ => {}
            }
            let Some(&byte) = self.bytes.get(self.at) else {
                return Ok(0);
            };
            out[0] = byte;
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_reads_what_try_extract_frame_extracts_from_a_trickle() {
        let mut bytes = framed(&Request::Ping, 7, 9);
        bytes.extend(framed(&Response::TileBatch(vec![partial(); 2]), 8, 0));
        // The frames the server's parser finds in the whole buffer.
        let mut expected = Vec::new();
        let mut at = 0;
        while let Some((frame, used)) = try_extract_frame(&bytes[at..]).unwrap() {
            expected.push(frame);
            at += used;
        }
        assert_eq!((expected.len(), at), (2, bytes.len()));

        let mut stream = Trickle::new(&bytes);
        let mut reader = FrameReader::default();
        let mut ticks = 0usize;
        let mut got = Vec::new();
        while let Some(frame) = reader
            .read(&mut stream, || {
                ticks += 1;
                false
            })
            .unwrap()
        {
            got.push(frame);
        }
        assert_eq!(got, expected);
        assert_eq!(
            ticks,
            bytes.len() + 1,
            "every timeout tick asks should_stop"
        );
        // One read returns both frames: the second waits in the buffer.
        let mut whole = &bytes[..];
        let mut reader = FrameReader::default();
        let got: Vec<Frame> =
            std::iter::from_fn(|| reader.read(&mut whole, || false).unwrap()).collect();
        assert_eq!(got, expected);

        // `should_stop` ends the wait cleanly on a tick, mid-frame too.
        let mut stream = Trickle::new(&bytes[..10]);
        let mut ticks = 0usize;
        let stopped = FrameReader::default().read(&mut stream, || {
            ticks += 1;
            ticks == 5
        });
        assert!(matches!(stopped, Ok(None)));
        assert_eq!(stream.at, 4, "stopped on the tick after the fourth byte");

        // EOF mid-header and mid-payload are typed errors.
        for cut in [FRAME_HEADER_BYTES / 2, FRAME_HEADER_BYTES + 1] {
            let mut stream = Trickle::new(&bytes[..cut]);
            assert!(
                matches!(
                    FrameReader::default().read(&mut stream, || false),
                    Err(CatalogError::Protocol(_))
                ),
                "EOF after {cut} bytes"
            );
        }

        // A length prefix over the cap is refused once its 4 bytes are
        // in, without reading the rest of the header.
        let mut hostile = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        hostile.extend([0u8; FRAME_HEADER_BYTES]);
        let mut stream = Trickle::new(&hostile);
        assert!(matches!(
            FrameReader::default().read(&mut stream, || false),
            Err(CatalogError::Protocol(_))
        ));
        assert_eq!(stream.at, 4);
    }

    fn cell() -> CellSummary {
        CellSummary {
            tile: TileId::new(2, 1, 1).unwrap(),
            cell: 17,
            center: MapPoint::new(100.0, -200.0),
            agg: CellAggregate {
                n: 3,
                class_counts: [1, 1, 1],
                ice_n: 2,
                ice_sum_m: 0.5,
                min_freeboard_m: 0.0,
                max_freeboard_m: 0.4,
                t_n: 2,
                t_sum_m: 3.2,
                t_w_sum: 12.5,
                t_wt_sum: 20.0,
                t_p95_m: 1.9,
            },
        }
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        let cell = cell();
        for response in [
            Response::Manifest(GridConfig::ross_sea()),
            Response::TileBatch(vec![partial(), partial()]),
            Response::LayerBatch(vec![(TimeKey::new(2019, 9).unwrap(), partial())]),
            Response::CellBatch(vec![cell]),
            Response::Point(Some(cell)),
            Response::Point(None),
            Response::Stats {
                stats: CatalogStats {
                    n_layers: 2,
                    n_tiles: 5,
                    n_samples: 1234,
                    n_thickness: 321,
                    cache: CacheStats {
                        hits: 10,
                        misses: 3,
                        evictions: 1,
                    },
                },
                layers: vec![
                    TimeKey::new(2019, 9).unwrap(),
                    TimeKey::new(2019, 11).unwrap(),
                ],
            },
            Response::Done { n_records: 42 },
            Response::Error {
                code: ERR_CATALOG,
                message: "boom".into(),
            },
            Response::Pong(ServerStats {
                connections: 4,
                requests: 100,
                records_streamed: 5000,
                errors: 2,
                idle_dropped: 1,
            }),
            Response::Metrics("server_requests_total{kind=\"query_rect\"} 7\n".into()),
            Response::Ingested(IngestReport {
                n_samples: 420,
                n_out_of_domain: 3,
                n_skipped: 0,
                n_replaced: 17,
                n_tiles: 9,
                n_layers: 1,
            }),
        ] {
            roundtrip(&response);
        }
    }

    /// The failure-model keystone: flip any single bit of a framed
    /// message — header length, header checksum, or payload — and the
    /// read must fail typed. Without the frame checksum a flip inside
    /// an `f64` field decodes silently into a wrong answer; this test
    /// is why the chaos suite can promise bit-identical-or-typed-error
    /// under byte corruption.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let message = Response::TileBatch(vec![partial(), partial()]);
        let clean = framed(&message, 0, 0);
        let back: Response = read_msg(&clean).unwrap().expect("clean frame reads back");
        assert_eq!(back, message);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_msg::<Response>(&corrupt).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// Release-exercised (CI runs this suite with `--release`): the
    /// frame cap must hold without `debug_assert!` — an oversized
    /// payload is a typed protocol error, not a poisoned connection.
    #[test]
    fn oversized_frame_write_fails_typed_before_touching_the_stream() {
        use std::io::Write;
        // The client's write: encode, then write the frame whole.
        let write = |sink: &mut Vec<u8>, payload: &[u8]| {
            let frame = encode_frame(payload, 0, 0)?;
            sink.write_all(&frame).map_err(CatalogError::Io)
        };
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink: Vec<u8> = Vec::new();
        match write(&mut sink, &payload) {
            Err(CatalogError::Protocol(_)) => {}
            other => panic!("expected a typed protocol error, got {other:?}"),
        }
        assert!(sink.is_empty(), "nothing was written");
        // A message crossing the cap fails the same way.
        let message = Response::Error {
            code: ERR_CATALOG,
            message: "x".repeat(MAX_FRAME_BYTES),
        };
        assert!(matches!(
            write(&mut sink, &message.to_bytes()),
            Err(CatalogError::Protocol(_))
        ));
        assert!(sink.is_empty());
    }

    /// An unchunked encoding of this many partials would cross the 4 MiB
    /// frame cap; the byte-budget chunking must keep every batch frame
    /// under it (and the record cap) while covering every record in
    /// order.
    #[test]
    fn oversized_batches_chunk_under_the_frame_cap() {
        let records: Vec<TilePartial> = (0..60_000)
            .map(|i| {
                let mut p = partial();
                p.n_samples = i;
                p
            })
            .collect();
        let mut one = Writer::new();
        records.encode(&mut one);
        assert!(
            one.finish().len() > MAX_FRAME_BYTES,
            "workload must exceed the cap unchunked"
        );
        let ranges = batch_ranges(&records, usize::MAX, MAX_BATCH_BYTES);
        assert!(ranges.len() > 1);
        let mut covered = 0usize;
        for range in &ranges {
            assert_eq!(range.start, covered, "ranges tile in order");
            covered = range.end;
            let frame = Response::TileBatch(records[range.clone()].to_vec()).to_bytes();
            assert!(frame.len() <= MAX_FRAME_BYTES, "batch frame over the cap");
            // Round-trips like any other frame.
            let buf = encode_frame(&frame, 0, 0).unwrap();
            assert!(read_one(&buf).unwrap().is_some());
        }
        assert_eq!(covered, records.len(), "every record travels");
        // The record cap still bites when it is the tighter bound.
        let small = batch_ranges(&records[..1000], BATCH_RECORDS, MAX_BATCH_BYTES);
        assert!(small.iter().all(|r| r.len() <= BATCH_RECORDS));
        // Degenerate inputs stay sane.
        assert!(batch_ranges::<TilePartial>(&[], BATCH_RECORDS, MAX_BATCH_BYTES).is_empty());
        let lone = batch_ranges(&records[..1], 4, 1);
        assert_eq!(lone, vec![0..1], "a record above the budget travels alone");
    }

    #[test]
    fn hostile_frames_error_not_panic() {
        // Oversized length prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(read_one(&buf), Err(CatalogError::Protocol(_))));
        // Truncated header.
        assert!(read_one(&[1u8, 0]).is_err());
        // Truncated payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(read_one(&buf).is_err());
        // Wrong magic in an otherwise valid frame.
        let buf = encode_frame(b"XXXX\x01\x00\x00", 0, 0).unwrap();
        assert!(matches!(
            read_msg::<Request>(&buf),
            Err(CatalogError::Artifact(ArtifactError::BadMagic))
        ));
        // Future version.
        let mut payload = Vec::new();
        payload.extend_from_slice(b"SIRQ");
        payload.extend_from_slice(&5u16.to_le_bytes());
        payload.push(0);
        let buf = encode_frame(&payload, 0, 0).unwrap();
        assert!(matches!(
            read_msg::<Request>(&buf),
            Err(CatalogError::Artifact(ArtifactError::BadVersion(5)))
        ));
        // Superseded versions: v1 (pre-thickness payload layouts), v2
        // (pre-mux framing, no request ids or write RPCs) and v3 (with
        // the served thickness write, kind 11).
        for old in [1u16, 2, 3] {
            let mut payload = Vec::new();
            payload.extend_from_slice(b"SIRQ");
            payload.extend_from_slice(&old.to_le_bytes());
            payload.push(0);
            let buf = encode_frame(&payload, 0, 0).unwrap();
            match read_msg::<Request>(&buf) {
                Err(CatalogError::Artifact(ArtifactError::BadVersion(v))) => assert_eq!(v, old),
                other => panic!("superseded v{old} decoded as {other:?}"),
            }
        }
        // Kind 11, once the served thickness write, is an unknown kind
        // even when a whole thickness-enriched beam follows it.
        let mut w = Writer::new();
        w.put_u8(11);
        crate::store::IngestMode::Skip.encode(&mut w);
        seaice_products::BeamThickness {
            granule_id: "20191104195311_05000211".into(),
            beam: icesat_atl03::Beam::Gt2l,
            snow_model: "climatology".into(),
            points: vec![seaice_products::ProductPoint {
                along_track_m: 12.0,
                lat: -74.25,
                lon: -163.5,
                freeboard_m: 0.31,
                class: icesat_scene::SurfaceClass::ThickIce,
                snow_depth_m: 0.12,
                snow_sigma_m: 0.04,
                thickness_m: 1.7,
                thickness_sigma_m: 0.5,
            }],
        }
        .encode(&mut w);
        let mut payload = Vec::new();
        payload.extend_from_slice(b"SIRQ");
        payload.extend_from_slice(&4u16.to_le_bytes());
        payload.extend_from_slice(&w.finish());
        let buf = encode_frame(&payload, 0, 0).unwrap();
        assert!(matches!(
            read_msg::<Request>(&buf),
            Err(CatalogError::Artifact(ArtifactError::Invalid(
                "request kind"
            )))
        ));
        // Truncated request body inside a well-formed frame.
        let buf = encode_frame(b"SIRQ\x04\x00", 0, 0).unwrap();
        assert!(read_msg::<Request>(&buf).is_err());
    }
}
