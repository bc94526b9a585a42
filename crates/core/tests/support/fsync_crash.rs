//! A [`WalSink`] whose k-th fsync fails — shared by the WAL's own crash
//! properties (`wal_prop.rs`) and the run loop's failure test
//! (`sim/tests/runner_seams.rs`).

use std::io;
use std::sync::{Arc, Mutex};

use sft_core::WalSink;

/// The fsync-failing sibling of `wal_prop.rs`'s `TornSink`: appends always
/// land in the byte image, but the k-th sync (and every one after — the
/// process is "dead") fails, and only bytes present at the last
/// *successful* sync count as durable. This models a crash between
/// `write(2)` and `fsync(2)`: the page cache held the tail, the platter
/// never saw it.
#[derive(Clone)]
pub struct FsyncCrashSink {
    state: Arc<Mutex<FsyncCrashState>>,
}

struct FsyncCrashState {
    bytes: Vec<u8>,
    /// Byte length covered by the last successful sync — the crash image.
    durable_len: usize,
    syncs: u64,
    fail_at: u64,
}

impl FsyncCrashSink {
    pub fn new(fail_at: u64) -> Self {
        Self {
            state: Arc::new(Mutex::new(FsyncCrashState {
                bytes: Vec::new(),
                durable_len: 0,
                syncs: 0,
                fail_at,
            })),
        }
    }

    /// The bytes a reboot would find: everything through the last
    /// successful fsync, nothing after.
    pub fn crash_image(&self) -> Vec<u8> {
        let state = self.state.lock().unwrap();
        state.bytes[..state.durable_len].to_vec()
    }

    /// True once the failing fsync has been attempted: nothing appended
    /// from here on will ever be durable.
    pub fn crashed(&self) -> bool {
        let state = self.state.lock().unwrap();
        state.syncs >= state.fail_at
    }
}

impl WalSink for FsyncCrashSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.state.lock().unwrap().bytes.extend_from_slice(frame);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        state.syncs += 1;
        if state.syncs >= state.fail_at {
            return Err(io::Error::other("injected fsync crash"));
        }
        state.durable_len = state.bytes.len();
        Ok(())
    }
}
