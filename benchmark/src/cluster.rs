//! One run: a loopback-TCP SFT-DiemBFT cluster (`run_over_tcp_serving`:
//! `TcpCluster`, file-backed group-commit WALs with real `fdatasync`) in
//! this process, with the load generator's connections dialled in.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sft_sim::{run_over_tcp_serving, Behavior, Protocol, SimConfig, SimReport, TcpPacing};
use sft_types::{ReplicaId, SimDuration};

use crate::loadgen::{run_client, ClientConfig, ClientLog};
use crate::workload::{Phases, Workload, BATCH_CAP, CONNECTIONS, MEMPOOL_CAP};

/// Rounds the cluster may run: never the reason a run ends.
const UNBOUNDED_ROUNDS: u64 = 1 << 40;

/// Margin between the clients' last instant and the cluster's horizon.
const HORIZON_SLACK: Duration = Duration::from_millis(100);

/// What one run produced, before any metric is derived from it.
pub struct RunOutcome {
    /// The cluster's own report.
    pub report: SimReport,
    /// One log per connection.
    pub clients: Vec<ClientLog>,
    /// The phases the clients followed.
    pub phases: Phases,
    /// Seconds from calling the cluster up to the first `Committed` ack
    /// on every connection: mesh up, clients said hello, WAL directories
    /// open, engines built, first blocks committed. The first ack is the
    /// earliest signal of all that a client can see.
    pub setup_s: Option<f64>,
}

/// Runs `workload` through `phases` under `seed`; `recording` turns the
/// stack's own metric registry on (the traced run).
///
/// # Errors
///
/// Returns socket errors from the mesh or a connection, as text.
pub fn run(
    workload: &Workload,
    phases: Phases,
    seed: u64,
    recording: bool,
) -> Result<RunOutcome, String> {
    let mut config = SimConfig::new(workload.n, UNBOUNDED_ROUNDS)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(BATCH_CAP)
        .with_mempool_txn_cap(MEMPOOL_CAP)
        .with_durability(workload.durability)
        .with_live_clients(true)
        .with_recording(recording);
    if workload.withhold_last {
        config = config.with_behavior((workload.n - 1) as u16, Behavior::WithholdVote);
    }
    // `EngineRunner::run` stops once the next pacemaker deadline lies past
    // the horizon, which is `base_timeout` *before* it. Add that back so
    // the cluster outlives the clients, who stop on their own clock.
    let mut pacing = TcpPacing::default();
    pacing.horizon = SimDuration::from_micros((phases.end() + HORIZON_SLACK).as_micros() as u64)
        + pacing.base_timeout;

    let started = Instant::now();
    let mut handles = Vec::new();
    let report = run_over_tcp_serving(&config, pacing, |addrs: &[SocketAddr]| {
        let epoch = Instant::now();
        for (conn, &addr) in addrs.iter().enumerate().take(CONNECTIONS) {
            let workload = *workload;
            handles.push(std::thread::spawn(move || {
                run_client(&ClientConfig {
                    addr,
                    replica: ReplicaId::new(conn as u16),
                    conn,
                    workload: &workload,
                    phases,
                    seed,
                    epoch,
                })
            }));
        }
    })
    .map_err(|e| format!("cluster: {e}"))?;

    let mut clients = Vec::new();
    for handle in handles {
        let log = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())?
            .map_err(|e| format!("client: {e}"))?;
        clients.push(log);
    }
    let setup_s = clients
        .iter()
        .map(|log| log.first_ack)
        .collect::<Option<Vec<Instant>>>()
        .and_then(|firsts| firsts.into_iter().max())
        .map(|last| last.duration_since(started).as_secs_f64());
    Ok(RunOutcome {
        report,
        clients,
        phases,
        setup_s,
    })
}
