//! The four workloads: what each cluster looks like, what traffic it gets
//! and why it exists. A workload is data; `cluster` turns it into a run.

use std::time::Duration;

use sft_sim::DurabilityMode;

/// Client connections per run, and load-generator threads: connection
/// `c` dials replica `c`. Two, because the box has two cores.
pub const CONNECTIONS: usize = 2;

/// Leader batch cap: at most this many transactions per block.
pub const BATCH_CAP: u32 = 256;

/// Admission cap on each replica's mempool. Far above any window used
/// here, so `Busy` only appears when the cluster stalls for seconds.
pub const MEMPOOL_CAP: u32 = 4096;

/// How a connection offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Offer {
    /// Poisson arrivals at this rate per connection, sent on schedule
    /// whether or not earlier requests were answered.
    Open {
        /// Requests per second per connection.
        rate_per_conn: f64,
    },
    /// A fixed number of requests in flight per connection; the next one
    /// goes out when an ack frees a slot.
    Closed {
        /// Requests in flight per connection.
        window: usize,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// Replicas.
    pub n: usize,
    /// Whether replica `n - 1` withholds its votes.
    pub withhold_last: bool,
    /// How replicas persist their logs.
    pub durability: DurabilityMode,
    /// Payload bytes per transaction.
    pub payload_bytes: usize,
    /// Open or closed loop, and how much.
    pub offer: Offer,
    /// The two `ack_at` levels requests draw from: the standard commit
    /// (`f`) and the strongest level this cluster can reach.
    pub ack_levels: [u64; 2],
}

/// Every workload, in the order they run.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lat_n4_wal",
        why: "open loop, 300 req/s of 256 B, n=4, group-commit WAL on files: light load, so ack latency is the protocol's critical path",
        n: 4,
        withhold_last: false,
        durability: DurabilityMode::GroupCommit,
        payload_bytes: 256,
        offer: Offer::Open {
            rate_per_conn: 150.0,
        },
        ack_levels: [1, 2],
    },
    Workload {
        name: "sat_n4_mem",
        why: "closed loop, 2x128 in flight, 128 B, n=4, no disk: saturates the consensus CPU path; a WAL change must not move it",
        n: 4,
        withhold_last: false,
        durability: DurabilityMode::InMemory,
        payload_bytes: 128,
        offer: Offer::Closed { window: 128 },
        ack_levels: [1, 2],
    },
    Workload {
        name: "sat_n10_withhold",
        why: "closed loop, 2x128, n=10 with one vote withholder, no disk: work that grows with n; strong acks wait for the slowest of 9 voters",
        n: 10,
        withhold_last: true,
        durability: DurabilityMode::InMemory,
        payload_bytes: 128,
        offer: Offer::Closed { window: 128 },
        ack_levels: [3, 5],
    },
    Workload {
        name: "sat_n4_wal_4k",
        why: "closed loop, 2x32 in flight, 4 KiB payloads, n=4, group-commit WAL on files: the same layers used per byte instead of per message",
        n: 4,
        withhold_last: false,
        durability: DurabilityMode::GroupCommit,
        payload_bytes: 4096,
        offer: Offer::Closed { window: 32 },
        ack_levels: [1, 2],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The phases of one run on the clients' clock, which starts when the
/// cluster hands out its gateway addresses.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Requests due here are sent and answered but not measured.
    pub warmup: Duration,
    /// Requests due here are the attempted operations.
    pub measure: Duration,
    /// How long after the measured window a request may still resolve
    /// before it counts as failed.
    pub grace: Duration,
}

impl Phases {
    /// The standard shape around a measured window of `seconds`.
    pub fn for_seconds(seconds: u64) -> Self {
        Self {
            warmup: Duration::from_secs(3),
            measure: Duration::from_secs(seconds),
            grace: Duration::from_millis(1500),
        }
    }

    /// A run just long enough to see the first acks — one set-up sample.
    /// First acks take 10–45 ms here; half a second leaves room to *measure*
    /// a set-up that got ten times slower instead of missing it.
    pub fn setup_only() -> Self {
        Self {
            warmup: Duration::ZERO,
            measure: Duration::from_millis(350),
            grace: Duration::from_millis(150),
        }
    }

    /// When the measured window closes.
    pub fn measure_end(&self) -> Duration {
        self.warmup + self.measure
    }

    /// When clients give up on whatever is still unanswered.
    pub fn end(&self) -> Duration {
        self.measure_end() + self.grace
    }
}
