//! Deterministic fault injection for the serving stack.
//!
//! Production failure modes — refused connections, mid-frame stalls,
//! truncated streams, corrupted bytes, injected latency, and processes
//! dying mid-persist — are injected here on purpose, reproducibly, so
//! the chaos acceptance suite (`tests/chaos.rs`) can *prove* the
//! resilience contracts instead of asserting them rhetorically:
//!
//! - A [`FaultPlan`] maps named **sites** (places in the code that ask
//!   "should something go wrong here?") to [`FaultAction`]s. Plans are
//!   either **scripted** (fire exactly action X on the nth hit of a
//!   site — crash-recovery tests) or **seeded** (a per-site
//!   deterministic RNG stream draws faults with fixed probabilities —
//!   chaos sweeps). The same seed always deals the same per-site fault
//!   sequence, independent of cross-site thread interleaving, because
//!   every site owns its own stream.
//! - The store's persist path consults `persist.tile.*` sites around
//!   its atomic temp+rename steps, so a test can "kill" a writer at
//!   the exact worst instant
//!   ([`FaultAction::Crash`] makes the operation abandon mid-flight,
//!   leaving on-disk state as a real crash would; the instance is then
//!   discarded and the directory reopened, which is what a restarted
//!   process sees).
//! - [`ChaosProxy`] is an in-process TCP proxy that applies socket
//!   faults between a real client and a real server: connection
//!   refusal at accept, latency, mid-frame stalls, truncation, and
//!   byte corruption on the forwarded streams.
//!
//! The injection surface is zero-cost when unused: a catalog or proxy
//! without a plan performs one `Option` check per site and nothing
//! else; no plan, no locks, no RNG.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::CatalogError;

// ---------------------------------------------------------------------------
// Fault actions and plans.
// ---------------------------------------------------------------------------

/// What one hit of a fault site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Nothing — the site proceeds normally.
    #[default]
    None,
    /// Connection-level: refuse (close immediately). Only meaningful at
    /// socket sites; persist sites treat it as [`FaultAction::None`].
    Refuse,
    /// Inject this much latency, then proceed normally.
    DelayMs(u64),
    /// Hold the operation for this long (long enough to trip a peer's
    /// deadline), then proceed — a GC pause, a congested link, a wedged
    /// disk.
    StallMs(u64),
    /// Socket sites: forward only this many bytes of the current chunk,
    /// then drop the connection (a peer crashing mid-frame).
    Truncate(usize),
    /// Socket sites: flip one bit of the forwarded chunk (the byte at
    /// this offset modulo the chunk length) — the checksummed framing
    /// must turn this into a typed error, never a wrong answer.
    Corrupt(usize),
    /// Persist sites: abandon the operation exactly here, leaving
    /// on-disk state as a process killed at this instant would
    /// ([`CatalogError::FaultInjected`]). The instance must be
    /// discarded afterwards, like the dead process it models.
    Crash,
}

/// splitmix64 — the per-site deterministic stream behind seeded plans
/// (and the seeded retry jitter). Self-contained on purpose: fault
/// schedules must never depend on a shared global RNG whose state
/// other code perturbs. Public so seeded test harnesses (the wire
/// fuzzer, chaos scenarios) draw from the same replayable stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How long a seeded mid-frame stall holds the stream. Long enough to
/// trip any sane client deadline, short enough to keep chaos sweeps
/// fast.
const SEEDED_STALL_MS: u64 = 300;

#[derive(Debug, Default)]
struct SiteState {
    /// Hits served so far.
    hits: u64,
    /// Scripted actions by hit ordinal (consumed lazily).
    scripted: BTreeMap<u64, FaultAction>,
    /// Per-site RNG state (seeded plans), lazily keyed off the plan
    /// seed and the site name.
    rng: u64,
}

/// A deterministic fault schedule, shared by the store's persist hooks
/// and the [`ChaosProxy`].
///
/// ```
/// use seaice_catalog::fault::{FaultAction, FaultPlan};
///
/// // Scripted: the 2nd tile persist crashes before its rename.
/// let plan = FaultPlan::scripted().with(FaultPlan::TILE_BEFORE_RENAME, 1, FaultAction::Crash);
/// assert_eq!(plan.next(FaultPlan::TILE_BEFORE_RENAME), FaultAction::None);
/// assert_eq!(plan.next(FaultPlan::TILE_BEFORE_RENAME), FaultAction::Crash);
///
/// // Seeded: the same seed always deals the same per-site sequence.
/// let a = FaultPlan::seeded(7);
/// let b = FaultPlan::seeded(7);
/// for _ in 0..64 {
///     assert_eq!(a.next("proxy.s2c"), b.next("proxy.s2c"));
/// }
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    /// Seed for probabilistic draws; `None` = scripted sites only.
    seed: Option<u64>,
    sites: Mutex<BTreeMap<String, SiteState>>,
    /// Non-[`FaultAction::None`] actions dealt (telemetry for tests and
    /// the chaos bench).
    injected: AtomicU64,
}

impl FaultPlan {
    /// Site name: the tile persist path, after the temp file is written
    /// but before it renames over the live tile.
    pub const TILE_BEFORE_RENAME: &'static str = "persist.tile.before_rename";
    /// Site name: the tile persist path, after the rename but before
    /// the version index / cache publish.
    pub const TILE_AFTER_RENAME: &'static str = "persist.tile.after_rename";
    /// Site name: the top of every ingest call — a [`FaultAction::StallMs`]
    /// here models a wedged writer (GC pause, stopped VM) and must make
    /// the lease self-fence before the next write.
    pub const INGEST_PAUSE: &'static str = "ingest.pause";
    /// Site name: proxy connection accept.
    pub const PROXY_ACCEPT: &'static str = "proxy.accept";
    /// Site name: proxy client→server byte stream (per forwarded chunk).
    pub const PROXY_C2S: &'static str = "proxy.c2s";
    /// Site name: proxy server→client byte stream (per forwarded chunk).
    pub const PROXY_S2C: &'static str = "proxy.s2c";

    /// An empty plan: every site answers [`FaultAction::None`] until
    /// scripted with [`FaultPlan::with`].
    pub fn scripted() -> FaultPlan {
        FaultPlan {
            seed: None,
            sites: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// A seeded probabilistic plan for socket sites: connections are
    /// refused or delayed at accept, and forwarded chunks suffer
    /// latency, stalls, truncation, or byte corruption with fixed
    /// probabilities. Persist sites stay quiet (crash faults are
    /// scripted, never random — a random crash schedule would make the
    /// recovery assertion unfalsifiable). The same seed deals the same
    /// per-site sequence on every run.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed: Some(seed),
            sites: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Scripts `action` on the `nth` hit (0-based) of `site`; all other
    /// hits of the site keep their default behaviour.
    pub fn with(self, site: &str, nth: u64, action: FaultAction) -> FaultPlan {
        self.script(site, nth, action);
        self
    }

    /// [`FaultPlan::with`] for a plan already shared (e.g. behind the
    /// `Arc` a running [`ChaosProxy`] holds): scripts `action` on the
    /// `nth` hit of `site` in place.
    pub fn script(&self, site: &str, nth: u64, action: FaultAction) {
        self.sites
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(site.to_string())
            .or_default()
            .scripted
            .insert(nth, action);
    }

    /// Deals the next action for `site`, advancing its hit counter.
    pub fn next(&self, site: &str) -> FaultAction {
        let mut sites = self.sites.lock().unwrap_or_else(|e| e.into_inner());
        let state = sites.entry(site.to_string()).or_default();
        let hit = state.hits;
        state.hits += 1;
        let action = if let Some(action) = state.scripted.remove(&hit) {
            action
        } else if let Some(seed) = self.seed {
            if state.rng == 0 {
                // Avalanche the combined seed: a raw `(seed ^ hash) | 1`
                // would collide adjacent seeds (they differ only in the
                // bit the `| 1` forces). The `| 1` afterwards only dodges
                // the all-zero state this lazy init uses as "uninitialised".
                let mut mix = seed ^ crate::fnv1a(site.bytes());
                state.rng = splitmix64(&mut mix) | 1;
            }
            let r = splitmix64(&mut state.rng);
            let aux = splitmix64(&mut state.rng);
            draw(site, r, aux)
        } else {
            FaultAction::None
        };
        if action != FaultAction::None {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        action
    }

    /// Hits served for `site` so far.
    pub fn hits(&self, site: &str) -> u64 {
        self.sites
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(site)
            .map(|s| s.hits)
            .unwrap_or(0)
    }

    /// Total non-[`FaultAction::None`] actions dealt.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// The seeded distribution, per site kind.
fn draw(site: &str, r: u64, aux: u64) -> FaultAction {
    let pct = r % 100;
    match site {
        FaultPlan::PROXY_ACCEPT => match pct {
            0..=14 => FaultAction::Refuse,
            15..=29 => FaultAction::DelayMs(1 + aux % 15),
            _ => FaultAction::None,
        },
        FaultPlan::PROXY_C2S | FaultPlan::PROXY_S2C => match pct {
            0..=3 => FaultAction::DelayMs(1 + aux % 10),
            4..=5 => FaultAction::StallMs(SEEDED_STALL_MS),
            6..=7 => FaultAction::Truncate((aux % 64) as usize),
            8..=9 => FaultAction::Corrupt(aux as usize),
            _ => FaultAction::None,
        },
        _ => FaultAction::None,
    }
}

// ---------------------------------------------------------------------------
// The chaos TCP proxy.
// ---------------------------------------------------------------------------

/// How often proxy pump threads wake to check for shutdown.
const PUMP_TICK: Duration = Duration::from_millis(25);

/// Upstream connect timeout — a proxy whose upstream died must fail the
/// client fast, not hang it.
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// An in-process chaos TCP proxy: forwards bytes between clients and
/// one upstream server, applying a [`FaultPlan`]'s socket faults.
///
/// Besides the plan, the proxy has a runtime kill switch
/// ([`ChaosProxy::set_refuse_all`]) so failover tests can take a
/// replica "down" and bring it back without rebinding ports.
pub struct ChaosProxy {
    addr: SocketAddr,
    /// Clone of the listener so shutdown can unblock the accept loop.
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    refuse_all: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
    plan: Arc<FaultPlan>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral local port forwarding to
    /// `upstream`, consulting `plan` for faults.
    pub fn start(upstream: &str, plan: Arc<FaultPlan>) -> Result<ChaosProxy, CatalogError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let listener_clone = listener.try_clone()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let refuse_all = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let upstream: SocketAddr = upstream
            .parse()
            .map_err(|_| CatalogError::Protocol(format!("bad upstream address '{upstream}'")))?;

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_refuse = Arc::clone(&refuse_all);
        let accept_pumps = Arc::clone(&pumps);
        let accept_plan = Arc::clone(&plan);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                };
                if accept_refuse.load(Ordering::SeqCst) {
                    continue; // dropped: connection refused by fiat
                }
                match accept_plan.next(FaultPlan::PROXY_ACCEPT) {
                    FaultAction::Refuse | FaultAction::Crash | FaultAction::Truncate(_) => {
                        continue; // dropped before a byte flows
                    }
                    FaultAction::DelayMs(ms) | FaultAction::StallMs(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    FaultAction::None | FaultAction::Corrupt(_) => {}
                }
                let Ok(server) = TcpStream::connect_timeout(&upstream, UPSTREAM_CONNECT_TIMEOUT)
                else {
                    continue; // upstream down: client sees a drop
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let up = spawn_pump(
                    client,
                    server,
                    FaultPlan::PROXY_C2S,
                    Arc::clone(&accept_plan),
                    Arc::clone(&accept_shutdown),
                    Arc::clone(&accept_refuse),
                );
                let down = spawn_pump(
                    s2,
                    c2,
                    FaultPlan::PROXY_S2C,
                    Arc::clone(&accept_plan),
                    Arc::clone(&accept_shutdown),
                    Arc::clone(&accept_refuse),
                );
                let mut pumps = accept_pumps.lock().unwrap_or_else(|e| e.into_inner());
                // Reap finished pumps so long sweeps don't hoard handles.
                let mut live = Vec::with_capacity(pumps.len() + 2);
                for h in pumps.drain(..) {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        live.push(h);
                    }
                }
                *pumps = live;
                pumps.push(up);
                pumps.push(down);
            }
        });

        Ok(ChaosProxy {
            addr,
            listener: listener_clone,
            shutdown,
            refuse_all,
            accept_thread: Some(accept_thread),
            pumps,
            plan,
        })
    }

    /// The proxy's listening address (what clients connect to).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The plan this proxy consults.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Runtime kill switch: while `true`, every new connection is
    /// dropped at accept and every live pump severs within one tick —
    /// the upstream looks dead. Failover tests take a replica down and
    /// bring it back with this, never rebinding ports.
    pub fn set_refuse_all(&self, refuse: bool) {
        self.refuse_all.store(refuse, Ordering::SeqCst);
    }

    /// Stops accepting, drains pump threads, closes the listener.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.listener.set_nonblocking(true);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let pumps = std::mem::take(&mut *self.pumps.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in pumps {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// One forwarding direction: read chunks from `from`, consult the plan,
/// write to `to`. Any fault that breaks the stream shuts both sockets
/// down so the sibling pump exits too.
fn spawn_pump(
    mut from: TcpStream,
    mut to: TcpStream,
    site: &'static str,
    plan: Arc<FaultPlan>,
    stop: Arc<AtomicBool>,
    refuse: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = from.set_read_timeout(Some(PUMP_TICK));
        let mut buf = [0u8; 8192];
        loop {
            if stop.load(Ordering::SeqCst) || refuse.load(Ordering::SeqCst) {
                break;
            }
            let n = match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => break,
            };
            let mut forward = n;
            let mut sever = false;
            match plan.next(site) {
                FaultAction::None => {}
                FaultAction::DelayMs(ms) | FaultAction::StallMs(ms) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                FaultAction::Truncate(k) => {
                    forward = k.min(n);
                    sever = true;
                }
                FaultAction::Corrupt(i) => {
                    buf[i % n] ^= 0x20;
                }
                FaultAction::Refuse | FaultAction::Crash => break,
            }
            if forward > 0 && to.write_all(&buf[..forward]).is_err() {
                break;
            }
            if sever {
                break;
            }
        }
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_fires_on_the_nth_hit_only() {
        let plan = FaultPlan::scripted().with("x", 2, FaultAction::Crash).with(
            "x",
            4,
            FaultAction::DelayMs(3),
        );
        let got: Vec<FaultAction> = (0..6).map(|_| plan.next("x")).collect();
        assert_eq!(
            got,
            vec![
                FaultAction::None,
                FaultAction::None,
                FaultAction::Crash,
                FaultAction::None,
                FaultAction::DelayMs(3),
                FaultAction::None,
            ]
        );
        assert_eq!(plan.hits("x"), 6);
        assert_eq!(plan.hits("y"), 0);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn seeded_plans_are_deterministic_per_site_and_vary_by_seed() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        let seq = |p: &FaultPlan, site: &str| -> Vec<FaultAction> {
            (0..200).map(|_| p.next(site)).collect()
        };
        // Interleave site draws differently on `b` than `a`: per-site
        // streams must not care.
        let a_accept = seq(&a, FaultPlan::PROXY_ACCEPT);
        let a_s2c = seq(&a, FaultPlan::PROXY_S2C);
        let b_s2c: Vec<FaultAction> = (0..200)
            .map(|_| {
                let _ = b.next(FaultPlan::PROXY_ACCEPT);
                b.next(FaultPlan::PROXY_S2C)
            })
            .collect();
        let _ = a_accept;
        assert_eq!(a_s2c, b_s2c, "per-site streams are interleaving-invariant");
        assert_ne!(seq(&c, FaultPlan::PROXY_S2C), a_s2c, "seeds differ");
        // The distribution actually deals faults, and persist sites
        // stay quiet under seeding (crashes are scripted only).
        assert!(a.injected() > 0);
        let quiet = FaultPlan::seeded(42);
        for _ in 0..100 {
            assert_eq!(quiet.next(FaultPlan::TILE_BEFORE_RENAME), FaultAction::None);
        }
    }

    #[test]
    fn proxy_forwards_cleanly_without_faults_and_refuses_on_demand() {
        // A tiny echo server.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            for stream in listener.incoming().take(1) {
                let mut s = stream.unwrap();
                let mut buf = [0u8; 64];
                let n = s.read(&mut buf).unwrap();
                s.write_all(&buf[..n]).unwrap();
            }
        });
        let proxy =
            ChaosProxy::start(&upstream.to_string(), Arc::new(FaultPlan::scripted())).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping").unwrap();
        let mut back = [0u8; 4];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping");
        echo.join().unwrap();

        // Kill switch: new connections die (connect may succeed at the
        // TCP level, but the first read sees an immediate close).
        proxy.set_refuse_all(true);
        let mut refused = TcpStream::connect(proxy.addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut one = [0u8; 1];
        assert!(matches!(refused.read(&mut one), Ok(0) | Err(_)));
        proxy.shutdown();
    }
}
