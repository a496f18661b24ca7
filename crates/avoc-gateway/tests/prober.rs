//! The health prober between probes: it waits for its next round or its
//! stop signal, not for a timer slice. Its own test binary, so the one
//! `avoc-gateway-prober` thread in `/proc/self/task` is this test's.

use avoc_gateway::{Gateway, GatewayConfig, Member};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// The prober's tid. The kernel keeps the first 15 bytes of a thread name,
/// so `avoc-gateway-prober` reads back as `avoc-gateway-pr`.
fn prober_tid() -> Option<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable")
        .find_map(|entry| {
            let path = entry.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            comm.starts_with("avoc-gateway-pr")
                .then(|| path.file_name()?.to_str().map(str::to_owned))?
        })
}

/// Voluntary context switches thread `tid` has made so far.
fn voluntary_switches(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
        .expect("thread status readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("voluntary_ctxt_switches line")
}

/// With a 10 s health interval, the prober makes at most one voluntary
/// context switch in the 300 ms after its first probe (sleeping in short
/// slices would wake it about a dozen times), and `shutdown` still returns
/// within a second.
#[test]
fn an_idle_prober_sleeps_until_its_next_probe_or_shutdown() {
    // An admin address nothing listens on: the first probe fails fast and
    // marks the member unhealthy, which bumps the gateway's epoch.
    let dead_admin = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let gateway = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig {
            members: vec![Member {
                node: 1,
                addr: "127.0.0.1:1".into(),
                admin: Some(dead_admin),
            }],
            health_interval: Duration::from_secs(10),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");

    let deadline = Instant::now() + Duration::from_secs(5);
    while gateway.epoch() == 0 {
        assert!(Instant::now() < deadline, "the first probe never ran");
        std::thread::sleep(Duration::from_millis(10));
    }
    let tid = prober_tid().expect("the prober is running");
    let before = voluntary_switches(&tid);
    std::thread::sleep(Duration::from_millis(300));
    let switches = voluntary_switches(&tid) - before;
    assert!(
        switches <= 1,
        "the idle prober made {switches} voluntary context switches in 300 ms"
    );

    let started = Instant::now();
    gateway.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
}
