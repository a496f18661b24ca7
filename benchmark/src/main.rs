//! The repository's benchmark: four workloads against real `avoc-serve`
//! daemons in child processes, over loopback TCP, through the public
//! crates only. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- aa [--sets 2] [--runs 5]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- selftest
//! ```

mod aa;
mod daemon;
mod input;
mod loadgen;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use avoc_net::Message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use input::{check_session, Input};
use workload::Workload;

/// Counts heap allocations for the probes' allocs-per-round columns. It
/// lives in the binary because the workspace libraries forbid `unsafe`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations this process has made so far.
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add
// that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process was given, ascending: read once, before anything
/// is confined. Empty if the kernel will not say.
pub fn host_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is writable for the 128 bytes passed as its length,
        // the size of the kernel's `cpu_set_t`; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (0..1024)
            .filter(|cpu| rc == 0 && mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Confines the calling thread, and every thread it starts from now on, to
/// `cpus`. Returns whether the kernel agreed.
pub fn confine(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for cpu in cpus.iter().filter(|cpu| **cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is readable for the 128 bytes passed as its length;
    // pid 0 is the calling thread.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

/// Deadline of the repetition in flight, ns on the bench clock (0 = none).
static WATCHDOG_DEADLINE: AtomicU64 = AtomicU64::new(0);

/// Arms (or with `None` disarms) the hard per-repetition timeout. When it
/// fires the process exits: the daemon children see their stdin close and
/// exit with it, and the state directories are removed here because no
/// destructor will run.
pub fn arm_watchdog(limit: Option<Duration>) {
    static STARTED: std::sync::Once = std::sync::Once::new();
    STARTED.call_once(|| {
        std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(|| loop {
                std::thread::sleep(Duration::from_millis(250));
                let deadline = WATCHDOG_DEADLINE.load(Ordering::SeqCst);
                if deadline != 0 && loadgen::now_ns() > deadline {
                    eprintln!(
                        "benchmark: a repetition exceeded its hard timeout; aborting the run"
                    );
                    daemon::sweep_state(Some(std::process::id()));
                    std::process::exit(3);
                }
            })
            .expect("the watchdog thread starts");
    });
    let deadline = limit.map_or(0, |l| loadgen::now_ns() + l.as_nanos() as u64);
    WATCHDOG_DEADLINE.store(deadline, Ordering::SeqCst);
}

/// Proves the oracle can fail: a stream with one flipped mantissa bit, one
/// dropped round and one `Error` frame must count three failed operations,
/// and the same stream left alone none.
fn selftest() -> bool {
    let input = Input::generate(report::DEFAULT_SEED);
    let expected = input.reference(3, 64);
    let frames = |tamper: bool| -> Vec<Message> {
        let mut frames: Vec<Message> = expected
            .iter()
            .enumerate()
            .filter(|(round, _)| !(tamper && *round == 40))
            .map(|(round, fused)| {
                let flip = u64::from(tamper && round == 17);
                Message::SessionResult {
                    session: 3,
                    round: round as u64,
                    value: fused.bits.map(|b| f64::from_bits(b ^ flip)),
                    voted: fused.voted,
                }
            })
            .collect();
        if tamper {
            frames.push(Message::Error {
                session: 3,
                message: "selftest: injected error frame".into(),
            });
        }
        frames
    };
    let failures = |tamper: bool| {
        let got = loadgen::replay_frames(4, frames(tamper));
        check_session(&expected, &got.verdicts[3]).failed + got.error_frames
    };
    let (clean, tampered) = (failures(false), failures(true));
    println!("selftest: untouched stream {clean} failed operations, tampered stream {tampered}");
    clean == 0 && tampered == 3
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: report::DEFAULT_SEED,
        seconds: report::RUN_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    for pair in args.chunks(2) {
        let flag = pair[0].as_str();
        let value = pair.get(1).ok_or(format!("`{flag}` takes a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}` is not a number"))
        };
        match flag {
            "--workload" => {
                out.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.max(1),
            "--trace" => out.trace = number()? != 0,
            "--sets" => out.sets = number()?.max(1) as usize,
            "--runs" => out.runs = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(out)
}

fn run(args: &Args) -> std::io::Result<bool> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut outcomes = Vec::new();
    for &w in &workloads {
        let outcome = if args.trace {
            report::run_traced(w, args.seed, args.seconds)?
        } else {
            report::run_end_to_end(w, args.seed, args.seconds)?
        };
        outcome.print_lines();
        outcomes.push(outcome);
    }
    if args.trace && args.workload.is_none() {
        report::write_stages_md()?;
    }
    let path = report::write_run_file(&outcomes, args.seconds)?;
    println!("run file: {}", path.display());
    // The machine-readable result goes last, one object per workload.
    for outcome in &outcomes {
        println!("{}", outcome.result_line());
    }
    // Failed operations are reported in the result (`correct: false`), not
    // through the exit code: the run itself completed.
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    host_cpus();
    if command == "serve" {
        daemon::serve_main(rest);
    }
    daemon::sweep_state(None);
    let parsed = parse(rest).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    });
    let ok = match command {
        "run" => run(&parsed),
        "aa" => aa::run(parsed.sets, parsed.runs, parsed.seconds),
        "selftest" => Ok(selftest()),
        "manifest" => {
            print!("{}", report::manifest());
            Ok(true)
        }
        _ => {
            eprintln!("usage: benchmark run|aa|selftest [flags]   (see benchmark/README.md)");
            std::process::exit(2);
        }
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}
