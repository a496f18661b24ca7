//! Two tenants, one daemon: a smart-building light session and a BLE tunnel
//! session run concurrently against `avoc-serve`, each governed by its own
//! VDX document from `specs/`, multiplexed over real TCP. The admin
//! observability endpoint is on (scrape it while the example runs), a live
//! `/metrics` excerpt is printed once the tenants drain, and the daemon's
//! counters are dumped after the graceful shutdown.
//!
//! ```text
//! cargo run --release --example voter_service [rounds]
//! ```

use avoc::core::ModuleId;
use avoc::net::{Message, SpecSource};
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::sim::{BleScenario, LightScenario};
use std::net::SocketAddr;
use std::sync::Arc;

/// One tenant: opens a session, streams its trace, collects fused rounds.
fn tenant(
    addr: SocketAddr,
    session: u64,
    spec: &str,
    series: Vec<Vec<Option<f64>>>,
) -> std::io::Result<Vec<(u64, Option<f64>)>> {
    let modules = series.len() as u32;
    let rounds = series.first().map_or(0, Vec::len);
    let mut client = ServeClient::connect(addr)?;
    client.open_session(session, modules, SpecSource::Named(spec.into()))?;
    for round in 0..rounds {
        for (m, s) in series.iter().enumerate() {
            if let Some(v) = s[round] {
                client.send_reading(session, ModuleId::new(m as u32), round as u64, v)?;
            }
        }
    }
    client.close_session(session)?;
    // A round the daemon never heard a single reading for (total packet
    // loss) produces no result frame, so expect one result per non-empty
    // round only.
    let expected = (0..rounds)
        .filter(|&r| series.iter().any(|s| s[r].is_some()))
        .count();
    let mut fused = Vec::new();
    for msg in client.recv_n(expected)? {
        match msg {
            Message::SessionResult { round, value, .. } => fused.push((round, value)),
            Message::Error { message, .. } => eprintln!("tenant {session}: {message}"),
            other => eprintln!("tenant {session}: unexpected {other:?}"),
        }
    }
    Ok(fused)
}

fn main() -> std::io::Result<()> {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);

    // The daemon: every VDX document in specs/ becomes a named spec tenants
    // can open sessions against.
    let registry = SpecRegistry::new();
    let loaded = registry.load_dir("specs")?;
    // Observability on: the admin HTTP endpoint binds an ephemeral port
    // and one round in eight leaves spans in the trace ring.
    let service = Arc::new(VoterService::start(
        ServeConfig {
            admin_addr: Some("127.0.0.1:0".into()),
            trace_sample: 8,
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    println!(
        "daemon: {loaded} specs ({}), {} shard(s)",
        service.registry().names().join(", "),
        service.shards()
    );
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service))?;
    let addr = server.local_addr();
    let admin = server.admin_addr().expect("admin endpoint configured");
    println!("scrape me: curl http://{admin}/metrics  (also /healthz /sessions /trace)");

    // Tenant 1 — UC-1: five light sensors in the smart building.
    let light = LightScenario::new(5, rounds, 42).generate();
    let light_series: Vec<Vec<Option<f64>>> = (0..5).map(|m| light.series(m)).collect();
    let t1 = std::thread::spawn(move || tenant(addr, 1, "smart-building", light_series));

    // Tenant 2 — UC-2: one RSSI stream per beacon in the BLE tunnel.
    let ble = BleScenario::new(3, rounds, 7).generate().stack_a;
    let ble_series: Vec<Vec<Option<f64>>> = (0..3).map(|m| ble.series(m)).collect();
    let t2 = std::thread::spawn(move || tenant(addr, 2, "ble-tunnel", ble_series));

    let light_out = t1.join().expect("light tenant")?;
    let ble_out = t2.join().expect("ble tenant")?;

    let by_round = |out: &[(u64, Option<f64>)], r: u64| -> String {
        out.iter()
            .find(|(round, _)| *round == r)
            .and_then(|(_, v)| *v)
            .map_or("--".into(), |v| format!("{v:.2}"))
    };
    println!("\nround  smart-building (klm)  ble-tunnel (dBm)");
    for i in (0..rounds as u64).step_by((rounds / 10).max(1)) {
        println!(
            "{i:>5}  {:>20}  {:>16}",
            by_round(&light_out, i),
            by_round(&ble_out, i)
        );
    }

    // A live scrape before shutdown: the fuse counters and latency
    // histogram the daemon would hand Prometheus.
    let (_, metrics) = avoc::obs::http::get(&admin.to_string(), "/metrics")?;
    println!("\nlive /metrics excerpt:");
    for line in metrics.lines().filter(|l| {
        l.starts_with("avoc_rounds_fused_total")
            || l.starts_with("avoc_fuse_latency_ns_count")
            || l.starts_with("avoc_fuse_latency_ns_sum")
    }) {
        println!("  {line}");
    }

    let c = server.shutdown();
    println!("\nfinal service counters:");
    println!("  sessions opened   {}", c.sessions_opened);
    println!("  rounds fused      {}", c.rounds_fused);
    println!("  fallbacks         {}", c.fallbacks);
    println!("  readings dropped  {}", c.readings_dropped);
    println!("  results dropped   {}", c.results_dropped);
    println!("  result batches    {}", c.result_batches);
    println!(
        "  bytes in / out    {} / {}",
        c.bytes_received, c.bytes_sent
    );
    Ok(())
}
