//! Readiness: block until one of many sockets can be read (or written),
//! or until a deadline, to the microsecond.
//!
//! std can wait on one socket (a blocking `read`) or on none (a
//! non-blocking `read` that returns `WouldBlock`), but not on several —
//! and a blocking reader per connection is the O(n²) thread model the
//! mesh left behind. [`PollSet`] is the missing primitive: an `epoll(7)`
//! instance in which every descriptor is registered once under a token
//! the caller picks, so a wait costs what is ready, not what is watched,
//! and reports tokens, not positions. Its waits end at a deadline given
//! in nanoseconds (`epoll_pwait2(2)`; kernels before 5.11 fall back to
//! `epoll_wait(2)` rounded up to the next millisecond, never down). A
//! [`Waker`] is the descriptor another thread makes ready to end a wait.
//! The kernel is reached through the foreign declarations below (std
//! already links libc, so this adds no dependency), every call through the
//! one dispatch function [`sys`]. Its block is this crate's only `unsafe`
//! and one of two in the workspace; `scripts/check_unsafe` keeps it that
//! way.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("sft-network waits on sockets with epoll(7), which only Linux provides");

/// `struct epoll_event` of `<sys/epoll.h>`: packed on x86-64, naturally
/// aligned everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The watched descriptor's token.
    data: u64,
}

/// `struct timespec` of `<time.h>`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `EPOLLIN`: data to read (or a pending accept, EOF, or error — the
/// `read`/`accept` that follows tells which).
const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: room in the send buffer again.
const EPOLLOUT: u32 = 0x004;
/// `EPOLLET`: report a change once, not a state until it is undone.
const EPOLLET: u32 = 1 << 31;
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
/// `ENOSYS`: the kernel predates the call.
const ENOSYS: i32 = 38;

/// Most events one wait takes in. Level-triggered readiness left over
/// is reported again by the next wait, so this bounds a buffer, not what
/// is seen.
const MAX_EVENTS: usize = 256;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// One foreign call.
enum Call<'a> {
    /// A new close-on-exec epoll instance.
    Create,
    /// `op` on `fd`'s registration in `epfd`.
    Ctl {
        epfd: RawFd,
        op: c_int,
        fd: RawFd,
        event: EpollEvent,
    },
    /// Blocks until `epfd` has a ready descriptor or `timeout` (none:
    /// no limit) passes; fills `events`.
    Wait {
        epfd: RawFd,
        events: &'a mut [EpollEvent],
        timeout: Option<Timespec>,
    },
    /// [`Call::Wait`] with a timeout in whole milliseconds (-1: none),
    /// for kernels without `epoll_pwait2`.
    WaitMs {
        epfd: RawFd,
        events: &'a mut [EpollEvent],
        timeout_ms: c_int,
    },
    /// A new non-blocking, close-on-exec event counter at zero.
    EventFd,
    /// Adds 1 to an event counter.
    Increment(RawFd),
    /// Closes a descriptor this module opened.
    Close(RawFd),
}

/// Makes `call`, returning its non-negative result or the OS error.
fn sys(call: Call<'_>) -> io::Result<usize> {
    let one = 1u64.to_ne_bytes();
    let max = |events: &[EpollEvent]| events.len().min(c_int::MAX as usize) as c_int;
    // SAFETY: each call passes the kernel only plain integers and
    // pointers to memory this function holds for the call's whole
    // duration: `Ctl` a pointer to its own `EpollEvent` (laid out as
    // `struct epoll_event`, which the kernel only reads), `Wait` and
    // `WaitMs` the buffer's pointer with its length (capped to `c_int`)
    // as `maxevents`, so the kernel writes only inside the exclusively
    // borrowed slice — `Wait` also a pointer to its own `Timespec` or
    // null, and a null signal mask, both only read — and `Increment` the
    // 8 bytes of `one`, which the kernel only reads. `Close` is only ever
    // given a descriptor `Create` or `EventFd` returned, by the one
    // `PollSet` or `Waker` that owns it, once, as that owner drops.
    let ret = unsafe {
        match call {
            Call::Create => epoll_create1(EPOLL_CLOEXEC) as isize,
            Call::Ctl {
                epfd,
                op,
                fd,
                mut event,
            } => epoll_ctl(epfd, op, fd, &mut event) as isize,
            Call::Wait {
                epfd,
                events,
                timeout,
            } => epoll_pwait2(
                epfd,
                events.as_mut_ptr(),
                max(events),
                timeout
                    .as_ref()
                    .map_or(std::ptr::null(), |t| t as *const Timespec),
                std::ptr::null(),
            ) as isize,
            Call::WaitMs {
                epfd,
                events,
                timeout_ms,
            } => epoll_wait(epfd, events.as_mut_ptr(), max(events), timeout_ms) as isize,
            Call::EventFd => eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) as isize,
            Call::Increment(fd) => write(fd, one.as_ptr().cast(), one.len()),
            Call::Close(fd) => close(fd) as isize,
        }
    };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret as usize)
    }
}

/// The descriptors one thread waits on, each registered once with the
/// kernel under a token its caller chose and reported by that token. The
/// caller keeps every descriptor open while it is in the set, and
/// [`remove`](Self::remove)s it before closing it.
pub(crate) struct PollSet {
    epfd: RawFd,
    events: Vec<EpollEvent>,
}

impl PollSet {
    /// An empty set: one `epoll_create1`.
    ///
    /// # Errors
    ///
    /// The OS error when no epoll instance can be made (out of
    /// descriptors or memory).
    pub(crate) fn new() -> io::Result<Self> {
        let epfd = sys(Call::Create)? as RawFd;
        Ok(Self {
            epfd,
            events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    /// Watches `fd` for readability, reported as `token` by every wait
    /// while it has something to read (level-triggered).
    ///
    /// # Errors
    ///
    /// The OS error of the registration; `fd` is then not in the set.
    pub(crate) fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, token)
    }

    /// Watches `waker`, reported as `token` by the first wait after each
    /// [`wake`](Waker::wake), never read back (edge-triggered).
    ///
    /// # Errors
    ///
    /// The OS error of the registration; `waker` is then not in the set.
    pub(crate) fn add_waker(&self, waker: &Waker, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, waker.fd, EPOLLIN | EPOLLET, token)
    }

    /// Watches `fd` for room to write, reported as `token`
    /// (edge-triggered): by the first wait after it joins, then only when
    /// room returns. A TCP socket's room returns only after a write that
    /// pushed back, so a socket that keeps up wakes no one.
    ///
    /// # Errors
    ///
    /// The OS error of the registration; `fd` is then not in the set.
    pub(crate) fn add_writable(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, EPOLLOUT | EPOLLET, token)
    }

    /// Stops watching `fd`. A descriptor shared by `dup` stays registered
    /// until removed, even once this copy is closed, so every descriptor
    /// leaves the set before it closes.
    pub(crate) fn remove(&self, fd: RawFd) {
        // Fails only for a descriptor that is not registered; the caller
        // closes it next either way.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        sys(Call::Ctl {
            epfd: self.epfd,
            op,
            fd,
            event: EpollEvent {
                events: interest,
                data: token,
            },
        })
        .map(drop)
    }

    /// Blocks until at least one descriptor is ready or `timeout` (none:
    /// no limit; zero: a check that never sleeps) has passed, never less,
    /// and replaces `ready` with the tokens reported — those readable,
    /// writable again, hung up or failed: anything a `read` (or `write`)
    /// would not block on.
    ///
    /// # Errors
    ///
    /// Returns the OS error when the wait fails for any reason other than
    /// an interrupting signal (which is retried).
    pub(crate) fn wait(
        &mut self,
        timeout: Option<Duration>,
        ready: &mut Vec<u64>,
    ) -> io::Result<()> {
        ready.clear();
        let timespec = || {
            timeout.map(|t| Timespec {
                tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
                tv_nsec: t.subsec_nanos() as c_long,
            })
        };
        let reported = loop {
            let waited = sys(Call::Wait {
                epfd: self.epfd,
                events: &mut self.events,
                timeout: timespec(),
            });
            let waited = match waited {
                Err(err) if err.raw_os_error() == Some(ENOSYS) => sys(Call::WaitMs {
                    epfd: self.epfd,
                    events: &mut self.events,
                    timeout_ms: timeout.map_or(-1, |t| {
                        t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
                    }),
                }),
                waited => waited,
            };
            match waited {
                Ok(reported) => break reported,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        };
        ready.extend(self.events[..reported].iter().map(|event| event.data));
        Ok(())
    }
}

impl Drop for PollSet {
    fn drop(&mut self) {
        let _ = sys(Call::Close(self.epfd));
    }
}

/// A descriptor any thread can make ready for a [`PollSet`] to report:
/// an `eventfd(2)` counter, watched edge-triggered, so each
/// [`wake`](Self::wake) costs one `write` and nothing ever reads it back.
pub(crate) struct Waker {
    fd: RawFd,
}

impl Waker {
    /// A new waker: one `eventfd`.
    ///
    /// # Errors
    ///
    /// The OS error when no event counter can be made (out of
    /// descriptors or memory).
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self {
            fd: sys(Call::EventFd)? as RawFd,
        })
    }

    /// Makes the waker ready: the next wait of every set holding it
    /// reports it.
    pub(crate) fn wake(&self) {
        // Fails only once the counter nears 2⁶⁴, one per wake.
        let _ = sys(Call::Increment(self.fd));
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        let _ = sys(Call::Close(self.fd));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    /// The tokens one wait of `set` reports, in ascending order.
    fn wait(set: &mut PollSet, timeout: Option<Duration>) -> Vec<u64> {
        let mut ready = Vec::new();
        set.wait(timeout, &mut ready).unwrap();
        ready.sort_unstable();
        ready
    }

    /// A wait that reports nothing it was not asked for: 50 ms is far
    /// longer than any readiness already there takes to show.
    fn settle(set: &mut PollSet) -> Vec<u64> {
        wait(set, Some(Duration::from_millis(50)))
    }

    #[test]
    fn wait_reports_exactly_the_readable_descriptors() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.add(a_rx.as_raw_fd(), 10).unwrap();
        set.add(b_rx.as_raw_fd(), 11).unwrap();
        a_tx.write_all(&[1]).unwrap();
        assert_eq!(wait(&mut set, None), [10], "only the socket with a byte");
    }

    #[test]
    fn unread_bytes_are_reported_again_by_the_next_wait() {
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        let (mut other_tx, other_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.add(rx.as_raw_fd(), 0).unwrap();
        set.add(other_rx.as_raw_fd(), 1).unwrap();
        tx.write_all(&[1, 2]).unwrap();
        assert_eq!(wait(&mut set, None), [0]);
        // Nothing read: level-triggered, so the next wait says so again.
        assert_eq!(wait(&mut set, None), [0], "unread bytes are still ready");
        let mut byte = [0u8; 1];
        rx.read_exact(&mut byte).unwrap();
        assert_eq!(wait(&mut set, None), [0], "one byte of two is still unread");
        rx.read_exact(&mut byte).unwrap();
        other_tx.write_all(&[3]).unwrap();
        assert_eq!(wait(&mut set, None), [1], "drained: no longer reported");
    }

    #[test]
    fn a_removed_descriptor_is_never_reported() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (b_tx, b_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.add(a_rx.as_raw_fd(), 0).unwrap();
        set.add(b_rx.as_raw_fd(), 1).unwrap();
        a_tx.write_all(&[1]).unwrap(); // ready, and never read
        drop(b_tx); // hung up: ready too
        assert_eq!(wait(&mut set, None), [0, 1], "a hung-up peer is ready");
        set.remove(a_rx.as_raw_fd());
        set.remove(b_rx.as_raw_fd());
        assert!(settle(&mut set).is_empty(), "neither is watched any more");
        // A copy made by `dup` is a registration of its own.
        let copy = a_rx.try_clone().unwrap();
        set.add(copy.as_raw_fd(), 2).unwrap();
        assert_eq!(wait(&mut set, None), [2]);
    }

    /// The set once kept descriptors by index and moved the last one into
    /// a removed slot; tokens replaced that, so the check is now that a
    /// removal leaves every other descriptor reporting under its own token.
    #[test]
    fn a_hung_up_peer_is_ready_and_swap_remove_keeps_indices_aligned() {
        let (a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let (c_tx, c_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        for (token, rx) in [&a_rx, &b_rx, &c_rx].into_iter().enumerate() {
            set.add(rx.as_raw_fd(), token as u64).unwrap();
        }
        drop(a_tx);
        drop(c_tx);
        assert_eq!(wait(&mut set, None), [0, 2], "hung-up peers are ready");
        set.remove(a_rx.as_raw_fd());
        assert_eq!(
            wait(&mut set, None),
            [2],
            "c keeps its token, readiness and all"
        );
    }

    #[test]
    fn of_five_hundred_idle_pairs_and_one_busy_only_the_busy_one_is_ready() {
        let idle: Vec<(UnixStream, UnixStream)> =
            (0..500).map(|_| UnixStream::pair().unwrap()).collect();
        let (mut busy_tx, busy_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        for (token, (_, rx)) in idle.iter().enumerate() {
            set.add(rx.as_raw_fd(), token as u64).unwrap();
        }
        set.add(busy_rx.as_raw_fd(), 1000).unwrap();
        busy_tx.write_all(&[1]).unwrap();
        assert_eq!(wait(&mut set, None), [1000]);
    }

    #[test]
    fn a_waker_is_reported_once_per_wake_and_never_read() {
        let waker = Waker::new().unwrap();
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.add_waker(&waker, 0).unwrap();
        set.add(rx.as_raw_fd(), 1).unwrap();
        waker.wake();
        waker.wake();
        assert_eq!(wait(&mut set, None), [0], "woken");
        tx.write_all(&[1]).unwrap();
        assert_eq!(
            wait(&mut set, None),
            [1],
            "two wakes before a wait are one report"
        );
        rx.read_exact(&mut [0u8; 1]).unwrap();
        // Another thread's wake ends a wait with no deadline.
        let waker = std::sync::Arc::new(waker);
        let late = std::thread::spawn({
            let waker = std::sync::Arc::clone(&waker);
            move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            }
        });
        assert_eq!(
            wait(&mut set, None),
            [0],
            "a wake after the wait is reported anew"
        );
        late.join().unwrap();
    }

    #[test]
    fn a_writable_socket_is_reported_when_it_joins_and_when_room_returns() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();
        let mut set = PollSet::new().unwrap();
        set.add_writable(tx.as_raw_fd(), 7).unwrap();
        assert_eq!(wait(&mut set, None), [7], "an empty send buffer has room");
        assert!(
            settle(&mut set).is_empty(),
            "reported once, not while room lasts"
        );
        let chunk = [0u8; 4096];
        let mut sent = 0;
        while let Ok(wrote) = (&tx).write(&chunk) {
            sent += wrote;
        }
        assert!(
            settle(&mut set).is_empty(),
            "a full send buffer has no room"
        );
        let mut buf = vec![0u8; 1 << 16];
        let mut read = 0;
        while read < sent {
            read += rx.read(&mut buf).unwrap();
        }
        assert_eq!(
            wait(&mut set, None),
            [7],
            "room returned after the push back"
        );
    }

    #[test]
    fn a_timed_wait_with_nothing_ready_ends_at_its_deadline_never_before() {
        let mut set = PollSet::new().unwrap();
        let (_tx, rx) = UnixStream::pair().unwrap();
        set.add(rx.as_raw_fd(), 0).unwrap();
        assert!(wait(&mut set, Some(Duration::ZERO)).is_empty(), "a check");
        for micros in [300, 2_300] {
            let timeout = Duration::from_micros(micros);
            let started = Instant::now();
            assert!(wait(&mut set, Some(timeout)).is_empty());
            let waited = started.elapsed();
            assert!(waited >= timeout, "{waited:?} is short of {timeout:?}");
        }
    }
}
