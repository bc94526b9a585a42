//! Readiness: block until one of many sockets can be read (or written).
//!
//! std can wait on one socket (a blocking `read`) or on none (a
//! non-blocking `read` that returns `WouldBlock`), but not on several —
//! and a blocking reader per connection is the O(n²) thread model the
//! mesh left behind. [`PollSet`] is the missing primitive: a
//! level-triggered `epoll(7)` instance, so a descriptor is registered once
//! and a wait costs what is ready, not what is watched. A [`Waker`] is
//! the descriptor another thread makes ready to end a wait. The kernel is
//! reached through the foreign declarations below (std already links
//! libc, so this adds no dependency), every call through the one dispatch
//! function [`sys`]. Its block is this crate's only `unsafe` and one of
//! two in the workspace; `scripts/check_unsafe` keeps it that way.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

#[cfg(not(target_os = "linux"))]
compile_error!("sft-network waits on sockets with epoll(7), which only Linux provides");

/// `struct epoll_event` of `<sys/epoll.h>`: packed on x86-64, naturally
/// aligned everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The watched descriptor's index in its [`PollSet`].
    data: u64,
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
const EPOLL_CTL_MOD: c_int = 3;

/// Most events one wait takes in. Level-triggered readiness left over
/// is reported again by the next wait, so this bounds a buffer, not what
/// is seen.
const MAX_EVENTS: usize = 256;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
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
    /// Blocks until `epfd` has a ready descriptor; fills `events`.
    Wait {
        epfd: RawFd,
        events: &'a mut [EpollEvent],
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
    // SAFETY: each call passes the kernel only plain integers and
    // pointers to memory this function holds for the call's whole
    // duration: `Ctl` a pointer to its own `EpollEvent` (laid out as
    // `struct epoll_event`, which the kernel only reads), `Wait` the
    // buffer's pointer with its length (capped to `c_int`) as
    // `maxevents`, so the kernel writes only inside the exclusively
    // borrowed slice, and `Increment` the 8 bytes of `one`, which the
    // kernel only reads. `Close` is only ever given a descriptor `Create`
    // or `EventFd` returned, by the one `PollSet` or `Waker` that owns
    // it, once, as that owner drops.
    let ret = unsafe {
        match call {
            Call::Create => epoll_create1(EPOLL_CLOEXEC) as isize,
            Call::Ctl {
                epfd,
                op,
                fd,
                mut event,
            } => epoll_ctl(epfd, op, fd, &mut event) as isize,
            Call::Wait { epfd, events } => epoll_wait(
                epfd,
                events.as_mut_ptr(),
                events.len().min(c_int::MAX as usize) as c_int,
                -1,
            ) as isize,
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

/// A watched descriptor and what it is watched for.
#[derive(Clone, Copy)]
struct Watched {
    fd: RawFd,
    interest: u32,
}

/// The descriptors one thread waits on, in caller-chosen index order,
/// each registered once with the kernel under its index. The caller
/// keeps every descriptor open while it is in the set.
pub(crate) struct PollSet {
    epfd: RawFd,
    watched: Vec<Watched>,
    /// Per index, the number of the last wait that reported it.
    ready_in: Vec<u64>,
    /// Waits so far: the number the next one stamps is this plus one.
    waits: u64,
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
            watched: Vec::new(),
            ready_in: Vec::new(),
            waits: 0,
            events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    /// Adds `fd` at the next index, watched for readability.
    ///
    /// # Errors
    ///
    /// The OS error of the registration; `fd` is then not in the set.
    pub(crate) fn push(&mut self, fd: RawFd) -> io::Result<()> {
        self.add(Watched {
            fd,
            interest: EPOLLIN,
        })
    }

    /// Adds `waker` at the next index: reported by the first wait after
    /// each [`wake`](Waker::wake), never read back (edge-triggered).
    ///
    /// # Errors
    ///
    /// The OS error of the registration; `waker` is then not in the set.
    pub(crate) fn push_waker(&mut self, waker: &Waker) -> io::Result<()> {
        self.add(Watched {
            fd: waker.fd,
            interest: EPOLLIN | EPOLLET,
        })
    }

    /// Adds `fd` at the next index, watched for room to write
    /// (edge-triggered): reported by the first wait after it joins, then
    /// only when room returns. A TCP socket's room returns only after a
    /// write that pushed back, so a socket that keeps up wakes no one.
    ///
    /// # Errors
    ///
    /// The OS error of the registration; `fd` is then not in the set.
    pub(crate) fn push_writable(&mut self, fd: RawFd) -> io::Result<()> {
        self.add(Watched {
            fd,
            interest: EPOLLOUT | EPOLLET,
        })
    }

    fn add(&mut self, watched: Watched) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, watched, self.watched.len())?;
        self.watched.push(watched);
        self.ready_in.push(0);
        Ok(())
    }

    fn ctl(&self, op: c_int, watched: Watched, index: usize) -> io::Result<usize> {
        sys(Call::Ctl {
            epfd: self.epfd,
            op,
            fd: watched.fd,
            event: EpollEvent {
                events: watched.interest,
                data: index as u64,
            },
        })
    }

    /// How many descriptors the set holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.watched.len()
    }

    /// Removes index `i`; the last descriptor takes its place (and keeps
    /// the readiness [`wait`](Self::wait) reported for it), re-registered
    /// under its new index.
    ///
    /// # Errors
    ///
    /// The OS error of that re-registration. The moved descriptor is then
    /// still at index `i` but would be reported under its old index,
    /// which no longer exists: the caller removes it too.
    pub(crate) fn swap_remove(&mut self, i: usize) -> io::Result<()> {
        // Fails only for a descriptor that is not registered, and every
        // one in `watched` is; the caller closes it next either way.
        let _ = self.ctl(EPOLL_CTL_DEL, self.watched[i], i);
        self.watched.swap_remove(i);
        self.ready_in.swap_remove(i);
        match self.watched.get(i) {
            Some(&moved) => self.ctl(EPOLL_CTL_MOD, moved, i).map(drop),
            None => Ok(()),
        }
    }

    /// Blocks until at least one descriptor is ready.
    ///
    /// # Errors
    ///
    /// Returns the OS error when `epoll_wait` fails for any reason other
    /// than an interrupting signal (which is retried).
    pub(crate) fn wait(&mut self) -> io::Result<()> {
        let ready = loop {
            match sys(Call::Wait {
                epfd: self.epfd,
                events: &mut self.events,
            }) {
                Ok(ready) => break ready,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        };
        self.waits += 1;
        for event in &self.events[..ready] {
            let index = { event.data } as usize;
            if let Some(stamp) = self.ready_in.get_mut(index) {
                *stamp = self.waits;
            }
        }
        Ok(())
    }

    /// Whether the last [`wait`](Self::wait) found index `i` ready for
    /// what it is watched for, hung up, or failed — anything a `read` (or
    /// `write`) would not block on. Indices pushed since that wait report
    /// `false`.
    pub(crate) fn is_ready(&self, i: usize) -> bool {
        self.waits > 0 && self.ready_in[i] == self.waits
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

    #[test]
    fn wait_reports_exactly_the_readable_descriptors() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.push(a_rx.as_raw_fd()).unwrap();
        set.push(b_rx.as_raw_fd()).unwrap();
        a_tx.write_all(&[1]).unwrap();
        set.wait().unwrap();
        assert!(set.is_ready(0), "a byte is waiting");
        assert!(!set.is_ready(1), "the quiet socket is not reported");
    }

    #[test]
    fn unread_bytes_are_reported_again_by_the_next_wait() {
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        let (mut other_tx, other_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.push(rx.as_raw_fd()).unwrap();
        set.push(other_rx.as_raw_fd()).unwrap();
        tx.write_all(&[1, 2]).unwrap();
        set.wait().unwrap();
        assert!(set.is_ready(0));
        // Nothing read: level-triggered, so the next wait says so again.
        set.wait().unwrap();
        assert!(set.is_ready(0), "unread bytes are still ready");
        let mut byte = [0u8; 1];
        rx.read_exact(&mut byte).unwrap();
        set.wait().unwrap();
        assert!(set.is_ready(0), "one byte of two is still unread");
        rx.read_exact(&mut byte).unwrap();
        other_tx.write_all(&[3]).unwrap();
        set.wait().unwrap();
        assert!(!set.is_ready(0), "drained: no longer reported");
        assert!(set.is_ready(1));
    }

    #[test]
    fn after_swap_remove_the_moved_descriptor_answers_at_its_new_index() {
        let (_a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let (mut c_tx, c_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        for rx in [&a_rx, &b_rx, &c_rx] {
            set.push(rx.as_raw_fd()).unwrap();
        }
        set.swap_remove(0).unwrap(); // c moves from index 2 to 0
        assert_eq!(set.len(), 2);
        c_tx.write_all(&[1]).unwrap();
        set.wait().unwrap();
        assert!(set.is_ready(0), "c is reported under its new index");
        assert!(!set.is_ready(1));
    }

    #[test]
    fn a_removed_descriptor_is_never_reported() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (mut b_tx, b_rx) = UnixStream::pair().unwrap();
        let (_c_tx, c_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        for rx in [&a_rx, &b_rx, &c_rx] {
            set.push(rx.as_raw_fd()).unwrap();
        }
        a_tx.write_all(&[1]).unwrap(); // ready, and never read
        set.swap_remove(0).unwrap(); // c moves to 0
        set.swap_remove(1).unwrap(); // b goes too
        assert_eq!(set.len(), 1);
        b_tx.write_all(&[1]).unwrap();
        // Only the removed descriptors have anything to say; a wait that
        // reported them would return at once. Give the only watched one
        // a byte from another thread after a pause instead.
        let (mut wake_tx, wake_rx) = UnixStream::pair().unwrap();
        set.push(wake_rx.as_raw_fd()).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            wake_tx.write_all(&[1]).unwrap();
            wake_tx
        });
        set.wait().unwrap();
        assert!(!set.is_ready(0), "c is quiet");
        assert!(set.is_ready(1), "the wait ended on the late byte");
        drop(late.join().unwrap());
    }

    #[test]
    fn a_hung_up_peer_is_ready_and_swap_remove_keeps_indices_aligned() {
        let (a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let (c_tx, c_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        for rx in [&a_rx, &b_rx, &c_rx] {
            set.push(rx.as_raw_fd()).unwrap();
        }
        drop(a_tx);
        drop(c_tx);
        set.wait().unwrap();
        assert!(set.is_ready(0) && !set.is_ready(1) && set.is_ready(2));
        set.swap_remove(0).unwrap(); // c takes a's place, readiness and all
        assert!(set.is_ready(0) && !set.is_ready(1));
    }

    #[test]
    fn of_five_hundred_idle_pairs_and_one_busy_only_the_busy_one_is_ready() {
        let idle: Vec<(UnixStream, UnixStream)> =
            (0..500).map(|_| UnixStream::pair().unwrap()).collect();
        let (mut busy_tx, busy_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        for (_, rx) in &idle[..250] {
            set.push(rx.as_raw_fd()).unwrap();
        }
        set.push(busy_rx.as_raw_fd()).unwrap();
        for (_, rx) in &idle[250..] {
            set.push(rx.as_raw_fd()).unwrap();
        }
        busy_tx.write_all(&[1]).unwrap();
        set.wait().unwrap();
        let ready: Vec<usize> = (0..set.len()).filter(|&i| set.is_ready(i)).collect();
        assert_eq!(ready, [250]);
    }

    #[test]
    fn a_waker_is_reported_once_per_wake_and_never_read() {
        let waker = Waker::new().unwrap();
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::new().unwrap();
        set.push_waker(&waker).unwrap();
        set.push(rx.as_raw_fd()).unwrap();
        waker.wake();
        waker.wake();
        set.wait().unwrap();
        assert!(set.is_ready(0), "woken");
        tx.write_all(&[1]).unwrap();
        set.wait().unwrap();
        assert!(!set.is_ready(0), "two wakes before a wait are one report");
        assert!(set.is_ready(1));
        rx.read_exact(&mut [0u8; 1]).unwrap();
        waker.wake();
        set.wait().unwrap();
        assert!(set.is_ready(0), "a wake after the wait is reported anew");
        assert!(!set.is_ready(1));
    }

    /// Waits on `set` with one more descriptor, given a byte 50 ms from
    /// now so that a wait with nothing else to report still returns.
    /// Returns whether that byte was reported; the descriptor is gone
    /// again, and the other indices keep what the wait found.
    fn wait_with_a_late_byte(set: &mut PollSet) -> bool {
        let (mut late_tx, late_rx) = UnixStream::pair().unwrap();
        set.push(late_rx.as_raw_fd()).unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            late_tx.write_all(&[1]).unwrap();
            late_tx
        });
        set.wait().unwrap();
        drop(writer.join().unwrap());
        let late = set.len() - 1;
        let reported = set.is_ready(late);
        set.swap_remove(late).unwrap();
        reported
    }

    #[test]
    fn a_writable_socket_is_reported_when_it_joins_and_when_room_returns() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();
        let mut set = PollSet::new().unwrap();
        set.push_writable(tx.as_raw_fd()).unwrap();
        set.wait().unwrap();
        assert!(set.is_ready(0), "an empty send buffer has room");
        assert!(wait_with_a_late_byte(&mut set));
        assert!(!set.is_ready(0), "reported once, not while room lasts");
        let chunk = [0u8; 4096];
        let mut sent = 0;
        while let Ok(wrote) = (&tx).write(&chunk) {
            sent += wrote;
        }
        assert!(wait_with_a_late_byte(&mut set));
        assert!(!set.is_ready(0), "a full send buffer has no room");
        let mut buf = vec![0u8; 1 << 16];
        let mut read = 0;
        while read < sent {
            read += rx.read(&mut buf).unwrap();
        }
        set.wait().unwrap();
        assert!(set.is_ready(0), "room returned after the push back");
    }
}
