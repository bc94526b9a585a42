//! `sft-loadgen`: closed-loop load generation against an in-process
//! loopback TCP cluster, reporting end-to-end client latency.
//!
//! The binary hosts the cluster itself (the same replica set and run
//! loop `sft_sim::run_over_tcp` uses, with live clients enabled) and
//! fans a fleet of closed-loop clients out over the replicas' client
//! gateways. Clients are assigned ack strengths round-robin from `0` up
//! to `--ack-at`, so one run exercises every grade of the paper's
//! strength-graded commit as a client-visible SLA.
//!
//! ```text
//! sft-loadgen [N EPOCHS] [options]
//!   --protocol streamlet|fbft|both   protocols to drive (default both)
//!   --clients C                      closed-loop clients (default 4)
//!   --txns T                         transactions per client (default 32)
//!   --window W                       in-flight window per client (default 8)
//!   --ack-at X                       max ack strength requested (default 1)
//!   --batch-size B                   leader batch size (default 64)
//!   --payload-bytes P                bytes per transaction (default 128)
//!   --durability MODE                in-memory | group-commit
//!                                    (default in-memory)
//!   --json-dir DIR                   write BENCH_loadgen_<protocol>.json
//! ```
//!
//! Exit is non-zero on lost acks, under-strength acks, safety-invariant
//! violations, or any client socket error — the same contract the
//! `loadgen-smoke` CI job enforces.

#![deny(unsafe_code)]

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use sft_core::ProtocolConfig;
use sft_loadgen::{run_client, ClientConfig, LoadReport};
use sft_sim::{run_over_tcp_serving, DurabilityMode, Protocol, SimConfig, SimReport, TcpPacing};
use sft_types::ReplicaId;

struct Args {
    n: usize,
    epochs: u64,
    protocols: Vec<Protocol>,
    clients: u16,
    txns: u64,
    window: usize,
    ack_at: u64,
    batch_size: u32,
    payload_bytes: usize,
    durability: DurabilityMode,
    json_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 4,
        epochs: 24,
        protocols: vec![Protocol::Streamlet, Protocol::Fbft],
        clients: 4,
        txns: 16,
        window: 8,
        ack_at: 1,
        batch_size: 64,
        payload_bytes: 128,
        durability: DurabilityMode::InMemory,
        json_dir: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    let mut positional = 0;
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => {
                args.protocols = match value("--protocol")?.as_str() {
                    "streamlet" => vec![Protocol::Streamlet],
                    "fbft" => vec![Protocol::Fbft],
                    "both" => vec![Protocol::Streamlet, Protocol::Fbft],
                    other => return Err(format!("unknown protocol {other}")),
                }
            }
            "--clients" => {
                args.clients = value("--clients")?.parse().map_err(|e| format!("{e}"))?
            }
            "--txns" => args.txns = value("--txns")?.parse().map_err(|e| format!("{e}"))?,
            "--window" => args.window = value("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--ack-at" => args.ack_at = value("--ack-at")?.parse().map_err(|e| format!("{e}"))?,
            "--batch-size" => {
                args.batch_size = value("--batch-size")?.parse().map_err(|e| format!("{e}"))?
            }
            "--payload-bytes" => {
                args.payload_bytes = value("--payload-bytes")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--durability" => {
                args.durability = match value("--durability")?.as_str() {
                    "in-memory" => DurabilityMode::InMemory,
                    "group-commit" => DurabilityMode::GroupCommit,
                    other => return Err(format!("unknown durability mode {other}")),
                }
            }
            "--json-dir" => args.json_dir = Some(value("--json-dir")?),
            other if !other.starts_with("--") && positional < 2 => {
                if positional == 0 {
                    args.n = other.parse().map_err(|e| format!("n: {e}"))?;
                } else {
                    args.epochs = other.parse().map_err(|e| format!("epochs: {e}"))?;
                }
                positional += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.window == 0 || args.txns == 0 || args.clients == 0 {
        return Err("--clients, --txns, and --window must be positive".into());
    }
    Ok(args)
}

fn protocol_name(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Streamlet => "streamlet",
        Protocol::Fbft => "fbft",
    }
}

fn durability_name(mode: DurabilityMode) -> &'static str {
    match mode {
        DurabilityMode::InMemory => "in-memory",
        DurabilityMode::GroupCommit => "group-commit",
    }
}

/// Runs one protocol's cluster with the client fleet and returns the
/// merged client view plus the cluster's own report.
fn drive(args: &Args, protocol: Protocol) -> Result<(LoadReport, SimReport), String> {
    // The run must outlive the client fleet: a submission that lands in
    // one of the last blocks can never climb to its requested strength
    // (upgrades ride successor commits), so late tails read as lost.
    // Streamlet epochs are wall-clock paced (2δ each); SFT-DiemBFT
    // rounds close on QCs and fly by over loopback, so the same wall
    // clock needs a much larger round budget.
    let epochs = match protocol {
        Protocol::Streamlet => args.epochs,
        Protocol::Fbft => args.epochs * 16,
    };
    let config = SimConfig::new(args.n, epochs)
        .with_protocol(protocol)
        .with_batch_size(args.batch_size)
        .with_durability(args.durability)
        .with_live_clients(true);
    let pacing = TcpPacing::default();
    // Clients must give up before the post-run drain ends, or their
    // unresolved tail blocks nothing but still reads as "lost".
    let deadline = Duration::from_secs(90);
    let mut handles = Vec::new();
    let report = run_over_tcp_serving(&config, pacing, |addrs: &[SocketAddr]| {
        for c in 0..args.clients {
            let replica = usize::from(c) % addrs.len();
            let cfg = ClientConfig {
                addr: addrs[replica],
                replica: ReplicaId::new(replica as u16),
                client: 100 + c,
                total: args.txns,
                window: args.window,
                payload_bytes: args.payload_bytes,
                // Round-robin over strengths: every grade up to the
                // ceiling gets a per-strength ack target.
                ack_at: u64::from(c) % (args.ack_at + 1),
                retry_busy: true,
                deadline,
            };
            handles.push(std::thread::spawn(move || run_client(&cfg)));
        }
    })
    .map_err(|e| format!("cluster: {e}"))?;
    let mut reports = Vec::new();
    for handle in handles {
        let client = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())?
            .map_err(|e| format!("client: {e}"))?;
        reports.push(client);
    }
    Ok((LoadReport::merge(reports), report))
}

fn summary_json(args: &Args, protocol: Protocol, load: &LoadReport, report: &SimReport) -> String {
    let cfg = ProtocolConfig::for_replicas(args.n);
    let mut out = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(out, "  \"{key}\": {value},");
    };
    field("protocol", format!("\"{}\"", protocol_name(protocol)));
    field("n", args.n.to_string());
    field("f", cfg.f().to_string());
    field("epochs", args.epochs.to_string());
    field("behavior", "\"loadgen\"".to_string());
    field("batch_size", args.batch_size.to_string());
    field("clients", args.clients.to_string());
    field("window", args.window.to_string());
    field("ack_at_max", args.ack_at.to_string());
    field(
        "durability",
        format!("\"{}\"", durability_name(args.durability)),
    );
    field("wal_fsyncs", report.wal_fsyncs.to_string());
    field("agreement", report.agreement().to_string());
    field(
        "strength_monotone",
        report.commit_strength_monotone().to_string(),
    );
    field("committed_blocks", report.max_committed().to_string());
    field("txns_committed", report.txns_committed.to_string());
    field("client_requests", load.requests_sent.to_string());
    field("acks_committed", load.committed.to_string());
    field("client_rejected", load.rejected.to_string());
    field("lost_acks", load.lost.to_string());
    field("under_strength_acks", load.under_strength.to_string());
    field("e2e_ack_p50_us", load.p50_us().to_string());
    field("e2e_ack_p99_us", load.p99_us().to_string());
    field("e2e_txns_per_sec", format!("{:.3}", load.txns_per_sec()));
    let _ = writeln!(out, "  \"elapsed_us\": {}\n}}", load.elapsed.as_micros());
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sft-loadgen: {e}");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    for &protocol in &args.protocols {
        println!(
            "loadgen SFT-{}: n={}, {} epochs, {} clients x {} txns (window {}), \
             ack-at 0..={}, wal {}",
            protocol_name(protocol),
            args.n,
            args.epochs,
            args.clients,
            args.txns,
            args.window,
            args.ack_at,
            durability_name(args.durability),
        );
        let (load, report) = match drive(&args, protocol) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("sft-loadgen [{}]: {e}", protocol_name(protocol));
                failed = true;
                continue;
            }
        };
        println!(
            "  committed {} / rejected {} / lost {} acks in {:?} \
             (p50 {} us, p99 {} us, {:.1} txns/s)",
            load.committed,
            load.rejected,
            load.lost,
            load.elapsed,
            load.p50_us(),
            load.p99_us(),
            load.txns_per_sec(),
        );
        if let Some(dir) = &args.json_dir {
            let path = format!("{dir}/BENCH_loadgen_{}.json", protocol_name(protocol));
            let json = summary_json(&args, protocol, &load, &report);
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("sft-loadgen: writing {path}: {e}");
                failed = true;
            } else {
                println!("  wrote {path}");
            }
        }
        let expected = u64::from(args.clients) * args.txns;
        if load.lost > 0 {
            eprintln!("  FAIL: {} of {expected} submissions lost", load.lost);
            failed = true;
        }
        if load.under_strength > 0 {
            eprintln!(
                "  FAIL: {} acks below their requested strength",
                load.under_strength
            );
            failed = true;
        }
        if !report.agreement() || !report.commit_strength_monotone() {
            eprintln!("  FAIL: safety invariant violated");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
