//! `sft-node`: one replica as one OS process.
//!
//! ```text
//! sft-node --id I --peers HOST:PORT,HOST:PORT,... --data-dir DIR [flags]
//!
//!   --id I                 this replica's id (index into --peers)
//!   --peers LIST           full address table, replica 0 first (>= 2 entries)
//!   --data-dir DIR         where wal.log and commit.out live
//!   --listen ADDR          listen address (default: the --peers entry for --id)
//!   --protocol P           streamlet | fbft             (default streamlet)
//!   --epochs E             target epochs/rounds         (default 20)
//!   --budget-ms MS         hard wall-clock budget       (default 60000)
//!   --linger-ms MS         serve peers after finishing  (default 2000)
//!   --delta-ms MS          pacing unit δ                (default 25)
//!   --base-timeout-ms MS   fbft base round timeout      (default 1000)
//!   --start-at-unix-ms T   cluster genesis instant as UNIX millis; pass
//!                          the SAME value to every replica so protocol
//!                          clocks align across processes (default: this
//!                          process's start)
//!   --trace-out PATH       append an NDJSON event trace (node lifecycle,
//!                          proposals, votes, QCs, commits) to PATH and
//!                          turn on metric recording; omit for the free
//!                          no-op path
//! ```
//!
//! On startup the node names the SHA-256 kernel its CPU selected
//! (`sha-ni` or `portable`) on stderr, replays `<data-dir>/wal.log`
//! (recovering from a crash at any point, torn tails included) and only
//! then joins the protocol. The log is group-committed: a writer thread batches fsyncs
//! and every outbound frame waits for the durability watermark to cover
//! the records that justify it. At exit it writes its committed chain to
//! `<data-dir>/commit.out`, one block hash per line. See the
//! `sft_bench::node` module docs for the recovery semantics.

#![deny(unsafe_code)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use sft_bench::node::{run_node, NodeOpts};
use sft_sim::Protocol;

fn parse_ms(value: &str, what: &str) -> Result<Duration, String> {
    value
        .parse::<u64>()
        .map(Duration::from_millis)
        .map_err(|_| format!("bad {what} {value:?}; need milliseconds"))
}

fn parse_args() -> Result<NodeOpts, String> {
    let mut id: Option<u16> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut data_dir: Option<String> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut protocol = Protocol::Streamlet;
    let mut epochs = 20u64;
    let mut budget = Duration::from_secs(60);
    let mut linger = Duration::from_secs(2);
    let mut delta = Duration::from_millis(25);
    let mut base_timeout = Duration::from_millis(1000);
    let mut start_at: Option<Duration> = None;
    let mut trace_out: Option<String> = None;

    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            iter.next().ok_or(format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--id" => {
                let v = value("--id")?;
                id = Some(v.parse().map_err(|_| format!("bad id {v:?}"))?);
            }
            "--peers" => {
                let v = value("--peers")?;
                peers = v
                    .split(',')
                    .map(|a| a.parse().map_err(|_| format!("bad peer address {a:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--data-dir" => data_dir = Some(value("--data-dir")?.clone()),
            "--listen" => {
                let v = value("--listen")?;
                listen = Some(v.parse().map_err(|_| format!("bad listen address {v:?}"))?);
            }
            "--protocol" => {
                protocol = match value("--protocol")?.as_str() {
                    "streamlet" => Protocol::Streamlet,
                    "fbft" => Protocol::Fbft,
                    other => return Err(format!("unknown protocol {other:?}")),
                };
            }
            "--epochs" => {
                let v = value("--epochs")?;
                epochs = v.parse().map_err(|_| format!("bad epoch count {v:?}"))?;
            }
            "--budget-ms" => budget = parse_ms(value("--budget-ms")?, "budget")?,
            "--linger-ms" => linger = parse_ms(value("--linger-ms")?, "linger")?,
            "--delta-ms" => delta = parse_ms(value("--delta-ms")?, "delta")?,
            "--base-timeout-ms" => {
                base_timeout = parse_ms(value("--base-timeout-ms")?, "base timeout")?;
            }
            "--start-at-unix-ms" => {
                start_at = Some(parse_ms(value("--start-at-unix-ms")?, "start instant")?);
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }

    let id = id.ok_or("--id is required")?;
    if peers.len() < 2 {
        return Err("--peers needs at least two addresses".to_string());
    }
    let Some(own) = peers.get(id as usize).copied() else {
        return Err(format!("id {id} out of range for {} peers", peers.len()));
    };
    Ok(NodeOpts {
        id,
        listen: listen.unwrap_or(own),
        peers,
        protocol,
        data_dir: data_dir.ok_or("--data-dir is required")?.into(),
        epochs,
        budget,
        linger,
        delta,
        base_timeout,
        start_at,
        trace_out: trace_out.map(Into::into),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // Which hash path a run's numbers came from, for whoever reads its log.
    eprintln!(
        "sft-node {}: sha256 kernel {}",
        opts.id,
        sft_crypto::sha256::Sha256::kernel()
    );
    match run_node(&opts) {
        Ok(outcome) => {
            println!(
                "sft-node {}: round {}, {} blocks committed ({} by this run, {} WAL fsyncs), \
                 {} WAL records recovered, {} appended, {} disconnects, {} dropped",
                opts.id,
                outcome.round,
                outcome.committed.len(),
                outcome.blocks_committed,
                outcome.wal_fsyncs,
                outcome.recovered,
                outcome.appended,
                outcome.disconnects,
                outcome.dropped,
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("sft-node {}: {message}", opts.id);
            ExitCode::FAILURE
        }
    }
}
