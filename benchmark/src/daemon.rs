//! `avoc-serve` daemons in child processes.
//!
//! The bench binary re-executes itself as `serve`: the child builds a
//! `VoterService` + `TcpServer` from the public crates, prints its two
//! addresses and then sits on its stdin. Running the daemon in a process
//! of its own keeps its CPU time and resident memory apart from the
//! generator's (both are read from `/proc/<pid>`), and lets a workload
//! `SIGKILL` it. The child exits when its stdin closes, which the kernel
//! does for it if the bench dies — no run leaves a daemon behind.

use avoc_serve::{Persistence, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc_vdx::VdxSpec;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::stats::Scrape;

/// Shared inter-node secret of the bench cluster.
pub const CLUSTER_SECRET: u64 = 0xBE4C_C1A5;

/// Set when a daemon was found gone before the bench killed it.
static CRASHED: AtomicBool = AtomicBool::new(false);

/// Whether a daemon of this run exited on its own after it had announced
/// its addresses. That is the program's failure, not the host's: no
/// repetition is run again to hide it.
pub fn crashed() -> bool {
    CRASHED.load(Ordering::SeqCst)
}

/// How one daemon is configured; everything else is `ServeConfig::default()`.
#[derive(Debug, Clone, Default)]
pub struct DaemonSpec {
    /// Durable state directory; `None` runs memory-only.
    pub state_dir: Option<PathBuf>,
    /// Cluster node id; non-zero also arms the cluster verbs.
    pub node_id: u64,
    /// The daemon's own `trace_sample` (0 = tracing off).
    pub trace_sample: u64,
    /// The one CPU the daemon is confined to; `None` leaves it free.
    pub cpu: Option<usize>,
}

/// The child's `main`: serve until stdin closes.
pub fn serve_main(args: &[String]) -> ! {
    let mut spec = DaemonSpec::default();
    for pair in args.chunks(2) {
        let value = pair.get(1).expect("serve flags take a value");
        match pair[0].as_str() {
            "--state-dir" => spec.state_dir = Some(PathBuf::from(value)),
            "--node-id" => spec.node_id = value.parse().expect("--node-id is a number"),
            "--trace-sample" => {
                spec.trace_sample = value.parse().expect("--trace-sample is a number")
            }
            "--cpu" => spec.cpu = Some(value.parse().expect("--cpu is a number")),
            other => panic!("unknown serve flag `{other}`"),
        }
    }
    // Before the service starts a thread, so that all of them inherit it and
    // the default shard and reactor counts are sized for one CPU.
    if let Some(cpu) = spec.cpu {
        assert!(
            crate::confine(&[cpu]),
            "the daemon can be confined to CPU {cpu}"
        );
    }
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let config = ServeConfig {
        // A tick workload's sessions go quiet between ticks by design.
        idle_ticks: u64::MAX,
        admin_addr: Some("127.0.0.1:0".into()),
        trace_sample: spec.trace_sample,
        persistence: Persistence {
            state_dir: spec.state_dir,
            node_id: spec.node_id,
            cluster_secret: (spec.node_id != 0).then_some(CLUSTER_SECRET),
            ..Persistence::default()
        },
        ..ServeConfig::default()
    };
    let service = Arc::new(VoterService::start(config, Arc::new(registry)));
    let server = TcpServer::start("127.0.0.1:0", service).expect("daemon binds a loopback port");
    println!(
        "{} {}",
        server.local_addr(),
        server
            .admin_addr()
            .expect("the admin endpoint is configured")
    );
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    std::process::exit(0);
}

/// A running daemon child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub admin: SocketAddr,
}

impl Daemon {
    pub fn spawn(spec: &DaemonSpec) -> std::io::Result<Daemon> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("serve");
        if let Some(dir) = &spec.state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        cmd.arg("--node-id").arg(spec.node_id.to_string());
        cmd.arg("--trace-sample").arg(spec.trace_sample.to_string());
        if let Some(cpu) = spec.cpu {
            cmd.arg("--cpu").arg(cpu.to_string());
        }
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("child stdout is piped");
        let parsed = BufReader::new(stdout)
            .read_line(&mut line)
            .ok()
            .and_then(|_| {
                let mut parts = line.split_whitespace();
                Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
            });
        match parsed {
            Some((addr, admin)) => Ok(Daemon { child, addr, admin }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "daemon child did not announce its addresses (said `{}`)",
                    line.trim()
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`s the daemon and reaps it: durable state stays exactly as
    /// the last completed checkpoint left it.
    pub fn kill(self) {
        drop(self);
    }

    /// One `/metrics?format=json` scrape of the daemon's admin port.
    pub fn scrape(&self) -> std::io::Result<Scrape> {
        let (status, body) = avoc_obs::http::get(&self.admin.to_string(), "/metrics?format=json")?;
        Scrape::parse(&body)
            .filter(|_| status == 200)
            .ok_or_else(|| std::io::Error::other(format!("metrics scrape answered {status}")))
    }

    /// The daemon's `/trace` ring as `(stage, dur_ns)` pairs.
    pub fn trace_spans(&self) -> std::io::Result<Vec<(String, u64)>> {
        let (_, body) = avoc_obs::http::get(&self.admin.to_string(), "/trace")?;
        let doc: serde_json::Value = serde_json::from_str(&body)?;
        Ok(doc
            .as_array()
            .map(|spans| {
                spans
                    .iter()
                    .filter_map(|s| Some((s["stage"].as_str()?.to_string(), s["dur_ns"].as_u64()?)))
                    .collect()
            })
            .unwrap_or_default())
    }

    pub fn proc_stat(&self) -> ProcStat {
        ProcStat::read(self.pid())
    }

    /// ns the daemon's threads have spent on a CPU so far — the one counter
    /// read at every slice boundary, so nothing else is read with it.
    pub fn cpu_ns(&self) -> u64 {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", self.pid()));
        tasks
            .into_iter()
            .flatten()
            .flatten()
            .map(|task| schedstat_ns(&task.path()))
            .sum()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(Some(status)) = self.child.try_wait() {
            eprintln!(
                "benchmark: daemon {} exited on its own ({status})",
                self.child.id()
            );
            CRASHED.store(true, Ordering::SeqCst);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What `/proc/<pid>` says about a process right now.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Σ over threads of `schedstat` field 1: ns spent on a CPU.
    pub cpu_ns: u64,
    /// Σ over threads of voluntary + involuntary context switches.
    pub ctx_switches: u64,
    pub threads: u64,
    pub fds: u64,
    /// `VmRSS`, bytes.
    pub rss_bytes: u64,
    /// `VmHWM` (peak resident set), bytes.
    pub peak_rss_bytes: u64,
}

/// Field 1 of a task's `schedstat`: ns spent on a CPU (0 if unreadable).
fn schedstat_ns(task: &Path) -> u64 {
    std::fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl ProcStat {
    /// Reads the process's counters; fields of a process that is gone read 0.
    pub fn read(pid: u32) -> ProcStat {
        let root = PathBuf::from(format!("/proc/{pid}"));
        let mut out = ProcStat::default();
        for task in std::fs::read_dir(root.join("task"))
            .into_iter()
            .flatten()
            .flatten()
        {
            out.threads += 1;
            out.cpu_ns += schedstat_ns(&task.path());
            if let Ok(s) = std::fs::read_to_string(task.path().join("status")) {
                out.ctx_switches += status_field(&s, "voluntary_ctxt_switches")
                    + status_field(&s, "nonvoluntary_ctxt_switches");
            }
        }
        out.fds = std::fs::read_dir(root.join("fd")).map_or(0, |d| d.count() as u64);
        if let Ok(s) = std::fs::read_to_string(root.join("status")) {
            out.rss_bytes = status_field(&s, "VmRSS") * 1024;
            out.peak_rss_bytes = status_field(&s, "VmHWM") * 1024;
        }
        out
    }
}

/// CPUs this process was given (0 if unknown).
pub fn cores() -> usize {
    crate::host_cpus().len()
}

/// The host's cumulative `(stolen, total)` CPU ticks from `/proc/stat`:
/// time a hypervisor gave this guest's CPUs to someone else, and all time.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The bench's scratch directory (`benchmark/out`), created on first use.
pub fn out_dir() -> PathBuf {
    let dir = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

/// A state directory under `benchmark/out`, removed when dropped.
pub struct StateDir(pub PathBuf);

impl StateDir {
    pub fn create(tag: &str) -> StateDir {
        let dir = out_dir().join(format!("state-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("a state directory can be created");
        StateDir(dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes state directories under `out/`: those of `pid`, or with `None`
/// those whose process is gone (what a killed earlier run left behind).
pub fn sweep_state(pid: Option<u32>) {
    for entry in std::fs::read_dir(out_dir()).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let owner = name
            .strip_prefix("state-")
            .and_then(|rest| rest.split('-').next()?.parse::<u32>().ok());
        let stale = match (owner, pid) {
            (Some(owner), Some(pid)) => owner == pid,
            (Some(owner), None) => !Path::new(&format!("/proc/{owner}")).exists(),
            (None, _) => false,
        };
        if stale {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// The file-system type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
