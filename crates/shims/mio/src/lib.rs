//! Offline stand-in for the `mio` crate: readiness polling over a
//! small, dependency-free subset of the real API.
//!
//! The crates.io registry is unreachable in this build environment, so
//! — like the `rayon`/`serde` shims — this crate is a real
//! implementation, not a mock. On Linux it drives `epoll` directly
//! through hand-declared `extern "C"` bindings (the std runtime already
//! links libc, so no new dependency is introduced); on other unixes it
//! falls back to `poll(2)`. Both backends are **level-triggered**: an
//! event keeps firing while the condition holds, so a consumer that
//! reads less than everything is re-notified instead of wedged.
//!
//! Surface (mirrors `mio` close enough that swapping the real crate in
//! would be mechanical):
//!
//! - [`Poll`] — owns the OS selector; [`Poll::poll`] blocks for events.
//! - [`Token`] — caller-chosen `usize` identifying a registration.
//! - [`Interest`] — readable / writable / both.
//! - [`Events`] / [`Event`] — the readiness results of one poll call.
//! - [`Waker`] — wakes a blocked [`Poll::poll`] from any thread
//!   (internally a nonblocking `UnixStream` pair registered like any
//!   other source; the poll side drains it so wakes never accumulate).
//!
//! Any `AsRawFd` type is a registration [`Source`] — `TcpListener`,
//! `TcpStream`, `UnixStream`, …

#![warn(missing_docs)]
#![cfg(unix)]

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Caller-chosen identifier for one registered source; returned in
/// every [`Event`] for that source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both (`READABLE |
/// WRITABLE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness (incoming data, accepted
    /// connections, EOF).
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness (socket buffer has room).
    pub const WRITABLE: Interest = Interest(0b10);

    /// Whether this interest includes read readiness.
    pub fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Whether this interest includes write readiness.
    pub fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness notification from [`Poll::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
}

impl Event {
    /// The token the source was registered under.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The source is readable, or its peer has closed: a read that
    /// returns 0 bytes is the end of the stream.
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// The source is writable.
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// Reusable buffer of events filled by one [`Poll::poll`] call.
#[derive(Debug)]
pub struct Events {
    inner: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// A buffer that returns at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Iterates the events of the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// No events were returned (the poll timed out).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Discards buffered events (also done by the next poll).
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Anything with a raw fd can be registered. Blanket-implemented; the
/// fd must stay open for as long as it is registered.
pub trait Source {
    /// The underlying descriptor.
    fn raw_fd(&self) -> RawFd;
}

impl<T: AsRawFd> Source for T {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// The OS readiness selector. Sources register under a [`Token`] and
/// an [`Interest`]; [`Poll::poll`] blocks until a registered source is
/// ready, a [`Waker`] fires, or the timeout elapses.
pub struct Poll {
    selector: sys::Selector,
    /// Read halves of registered wakers, drained after every poll so a
    /// level-triggered waker byte cannot spin the loop.
    waker_reads: Vec<UnixStream>,
}

impl Poll {
    /// Creates a selector (an `epoll` instance on Linux).
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            selector: sys::Selector::new()?,
            waker_reads: Vec::new(),
        })
    }

    /// Registers `source` for `interest` under `token`. Registering an
    /// already-registered fd is an error; use [`Poll::reregister`].
    pub fn register(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.register(source.raw_fd(), token, interest)
    }

    /// Changes the token and/or interest of a registered source.
    pub fn reregister(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.reregister(source.raw_fd(), token, interest)
    }

    /// Removes a source's registration. The fd must still be open
    /// (deregister before dropping the socket).
    pub fn deregister(&self, source: &impl Source) -> io::Result<()> {
        self.selector.deregister(source.raw_fd())
    }

    /// Blocks until at least one event, a waker fire, or `timeout`
    /// (`None` = forever). Fills `events` with at most its capacity.
    /// Waker bytes are drained here — the waker's event is still
    /// delivered, but a wake never leaves residue that would make the
    /// next poll return instantly.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        self.selector
            .poll(&mut events.inner, events.capacity, timeout)?;
        for reader in &self.waker_reads {
            let mut sink = [0u8; 64];
            loop {
                match (&mut (&*reader)).read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        Ok(())
    }
}

/// Wakes a blocked [`Poll::poll`] from any thread: the poll returns an
/// event carrying the waker's token. Multiple wakes before the poll
/// observes them coalesce into one event. Cheap enough to call per
/// enqueued message.
pub struct Waker {
    write: UnixStream,
}

impl Waker {
    /// Creates a waker registered with `poll` under `token`.
    pub fn new(poll: &mut Poll, token: Token) -> io::Result<Waker> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        poll.register(&read, token, Interest::READABLE)?;
        poll.waker_reads.push(read);
        Ok(Waker { write })
    }

    /// Signals the poll. Never blocks: a full signal pipe means a wake
    /// is already pending, which is exactly the coalescing we want.
    pub fn wake(&self) -> io::Result<()> {
        match (&self.write).write(&[1u8]) {
            Ok(_) => Ok(()),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! epoll backend. The std runtime links libc, so declaring the four
    //! syscall wrappers ourselves introduces no new dependency.

    use super::{Event, Interest, Token};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // epoll_event is packed on x86-64 (kernel ABI quirk); natural
    // layout elsewhere.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.is_readable() {
            m |= EPOLLIN;
        }
        if interest.is_writable() {
            m |= EPOLLOUT;
        }
        m
    }

    pub(super) struct Selector {
        epfd: RawFd,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            // SAFETY: `epoll_create1` takes only a flags word and touches no
            // caller memory; a failure surfaces as -1 and goes through `cvt`.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Selector { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token.0 as u64,
            };
            // SAFETY: `ev` is a live, initialized stack value for the whole
            // call; the kernel only reads through the pointer. `self.epfd` is
            // the epoll fd this Selector owns until Drop.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl` — `ev` outlives the call (pre-2.6.9 kernels
            // dereference the event pointer even for EPOLL_CTL_DEL).
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn poll(
            &self,
            out: &mut Vec<Event>,
            capacity: usize,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout_ms: i32 = match timeout {
                None => -1,
                // Round up so a 1 ns timeout still sleeps ~1 ms instead
                // of busy-looping at 0.
                Some(d) => d
                    .as_millis()
                    .min(i32::MAX as u128)
                    .max(u128::from(u8::from(!d.is_zero()))) as i32,
            };
            let mut buf = vec![EpollEvent { events: 0, data: 0 }; capacity];
            // SAFETY: `buf` holds exactly `capacity` initialized events, so
            // the kernel writes stay in bounds of `buf.as_mut_ptr()`, and the
            // borrow lives past the call.
            let n = match cvt(unsafe {
                epoll_wait(self.epfd, buf.as_mut_ptr(), capacity as i32, timeout_ms)
            }) {
                Ok(n) => n as usize,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {
                    // Retry with a zero timeout so an interrupted
                    // sleep can't stretch past the deadline.
                    return self.poll(out, capacity, Some(Duration::ZERO));
                }
                Err(e) => return Err(e),
            };
            for ev in &buf[..n] {
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: Token(data as usize),
                    readable: events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: `Selector` is the sole owner of `epfd` (never cloned,
            // never exposed), so this is the one and only close of that fd.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable unix fallback on `poll(2)`: the registration table
    //! lives in userspace and every poll call rebuilds the pollfd set.
    //! O(registered fds) per call — fine for the shim's scale.

    use super::{Event, Interest, Token};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    pub(super) struct Selector {
        registered: Mutex<BTreeMap<RawFd, (Token, Interest)>>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            Ok(Selector {
                registered: Mutex::new(BTreeMap::new()),
            })
        }

        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut table = self.registered.lock().unwrap_or_else(|e| e.into_inner());
            if table.insert(fd, (token, interest)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut table = self.registered.lock().unwrap_or_else(|e| e.into_inner());
            match table.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.registered.lock().unwrap_or_else(|e| e.into_inner());
            match table.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn poll(
            &self,
            out: &mut Vec<Event>,
            capacity: usize,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let (mut fds, tokens): (Vec<PollFd>, Vec<Token>) = {
                let table = self.registered.lock().unwrap_or_else(|e| e.into_inner());
                table
                    .iter()
                    .map(|(&fd, &(token, interest))| {
                        let mut events = 0i16;
                        if interest.is_readable() {
                            events |= POLLIN;
                        }
                        if interest.is_writable() {
                            events |= POLLOUT;
                        }
                        (
                            PollFd {
                                fd,
                                events,
                                revents: 0,
                            },
                            token,
                        )
                    })
                    .unzip()
            };
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = loop {
                // SAFETY: `fds` is a live Vec and the length passed is its own
                // `len()`, so the kernel's revents writes stay in bounds.
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if ret >= 0 {
                    break ret;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pfd, token) in fds.iter().zip(tokens) {
                if pfd.revents == 0 || out.len() >= capacity {
                    continue;
                }
                let r = pfd.revents;
                out.push(Event {
                    token,
                    readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: r & (POLLOUT | POLLHUP | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    const LISTENER: Token = Token(0);
    const CLIENT: Token = Token(1);
    const WAKER: Token = Token(2);

    fn poll_until(
        poll: &mut Poll,
        events: &mut Events,
        want: Token,
        limit: Duration,
    ) -> Vec<Event> {
        let t0 = Instant::now();
        loop {
            poll.poll(events, Some(Duration::from_millis(50))).unwrap();
            let hits: Vec<Event> = events
                .iter()
                .copied()
                .filter(|e| e.token() == want)
                .collect();
            if !hits.is_empty() {
                return hits;
            }
            assert!(t0.elapsed() < limit, "no {want:?} event within {limit:?}");
        }
    }

    #[test]
    fn listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(16);
        poll.register(&listener, LISTENER, Interest::READABLE)
            .unwrap();

        // Nothing pending: a short poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(addr).unwrap();
        let hits = poll_until(&mut poll, &mut events, LISTENER, Duration::from_secs(5));
        assert!(hits[0].is_readable());
        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        poll.register(&served, CLIENT, Interest::READABLE | Interest::WRITABLE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let hits = poll_until(&mut poll, &mut events, CLIENT, Duration::from_secs(5));
        assert!(hits.iter().any(|e| e.is_readable()));
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 4);

        // Level-triggered: writable keeps reporting while there's room.
        let hits = poll_until(&mut poll, &mut events, CLIENT, Duration::from_secs(5));
        assert!(hits.iter().any(|e| e.is_writable()));

        // Peer close surfaces as a readable (EOF) event.
        drop(client);
        let hits = poll_until(&mut poll, &mut events, CLIENT, Duration::from_secs(5));
        assert!(hits.iter().any(|e| e.is_readable()));
        assert_eq!(served.read(&mut buf).unwrap(), 0, "EOF after peer close");
        poll.deregister(&served).unwrap();
        poll.deregister(&listener).unwrap();
    }

    #[test]
    fn reregister_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        // Read-only interest on an idle socket: silent.
        poll.register(&client, CLIENT, Interest::READABLE).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // Flip to writable: fires immediately.
        poll.reregister(&client, Token(9), Interest::WRITABLE)
            .unwrap();
        let hits = poll_until(&mut poll, &mut events, Token(9), Duration::from_secs(5));
        assert!(hits[0].is_writable());
        poll.deregister(&client).unwrap();
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_coalesces() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let waker = Arc::new(Waker::new(&mut poll, WAKER).unwrap());
        let w2 = Arc::clone(&waker);
        let sent = Arc::new(Barrier::new(2));
        let sent2 = Arc::clone(&sent);
        let handle = std::thread::spawn(move || {
            // Many wakes before the poll sees any: they coalesce.
            for _ in 0..100 {
                w2.wake().unwrap();
            }
            sent2.wait();
        });
        // The first poll starts only after all 100 wakes are sent, so
        // no wake can land between it and the drain check below.
        sent.wait();
        let hits = poll_until(&mut poll, &mut events, WAKER, Duration::from_secs(5));
        assert!(hits[0].is_readable());
        handle.join().unwrap();
        // Drained: the next poll does not spin on stale waker bytes.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token() != WAKER),
            "waker bytes were drained"
        );

        // A single wake reaches a poll already blocked with a long
        // timeout (the serving event loop's case).
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake().unwrap();
        });
        let woken = loop {
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            if let Some(e) = events.iter().find(|e| e.token() == WAKER) {
                break *e;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "no wake seen");
        };
        assert!(woken.is_readable());
        assert!(t0.elapsed() >= Duration::from_millis(25));
        handle.join().unwrap();
    }

    #[test]
    fn timeout_is_honoured() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let t0 = Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(40)))
            .unwrap();
        assert!(events.is_empty());
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(35),
            "woke early: {waited:?}"
        );
    }
}
