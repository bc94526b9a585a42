//! Readiness: block until one of many sockets has something to read.
//!
//! std can wait on one socket (a blocking `read`) or on none (a
//! non-blocking `read` that returns `WouldBlock`), but not on several —
//! and a blocking reader per connection is the O(n²) thread model the
//! mesh left behind. [`PollSet`] is the missing primitive: `poll(2)`,
//! reached through the one foreign declaration below (std already
//! links libc, so this adds no dependency). It is this crate's only
//! `unsafe` and one of two in the workspace; `scripts/check_unsafe` keeps
//! it that way.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `POLLIN`: data to read (or a pending accept, EOF, or error — the
/// `read`/`accept` that follows tells which).
const POLLIN: c_short = 0x001;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// The descriptors one thread waits on, in caller-chosen index order.
/// The caller keeps every descriptor open while it is in the set.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Adds `fd` at the next index, watched for readability.
    pub(crate) fn push(&mut self, fd: RawFd) {
        self.fds.push(PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
    }

    /// Removes index `i`; the last descriptor takes its place (and keeps
    /// the readiness [`wait`](Self::wait) reported for it).
    pub(crate) fn swap_remove(&mut self, i: usize) {
        self.fds.swap_remove(i);
    }

    /// Blocks until at least one descriptor is ready.
    ///
    /// # Errors
    ///
    /// Returns the OS error when `poll` fails for any reason other than
    /// an interrupting signal (which is retried).
    pub(crate) fn wait(&mut self) -> io::Result<()> {
        loop {
            // SAFETY: `fds` points at `len` initialised `PollFd`s —
            // `#[repr(C)]` with the field order and widths of `struct
            // pollfd` — which this `&mut self` borrows exclusively for
            // the call; `poll` writes only their `revents` fields.
            let ready = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, -1) };
            if ready >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Whether the last [`wait`](Self::wait) found index `i` readable,
    /// hung up, or failed — anything a `read` would not block on.
    /// Indices pushed since that wait report `false`.
    pub(crate) fn is_ready(&self, i: usize) -> bool {
        self.fds[i].revents != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn wait_reports_exactly_the_readable_descriptors() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::default();
        set.push(a_rx.as_raw_fd());
        set.push(b_rx.as_raw_fd());
        a_tx.write_all(&[1]).unwrap();
        set.wait().unwrap();
        assert!(set.is_ready(0), "a byte is waiting");
        assert!(!set.is_ready(1), "the quiet socket is not reported");
    }

    #[test]
    fn a_hung_up_peer_is_ready_and_swap_remove_keeps_indices_aligned() {
        let (a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let (c_tx, c_rx) = UnixStream::pair().unwrap();
        let mut set = PollSet::default();
        for rx in [&a_rx, &b_rx, &c_rx] {
            set.push(rx.as_raw_fd());
        }
        drop(a_tx);
        drop(c_tx);
        set.wait().unwrap();
        assert!(set.is_ready(0) && !set.is_ready(1) && set.is_ready(2));
        set.swap_remove(0); // c takes a's place, readiness and all
        assert!(set.is_ready(0) && !set.is_ready(1));
    }
}
