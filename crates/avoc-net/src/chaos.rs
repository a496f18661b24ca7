//! A deterministic fault-injection TCP proxy — the chaos harness.
//!
//! Sits between a client and a daemon and injects the network's four
//! canonical misbehaviours: **connection resets**, **stalls**, **partial
//! writes**, and **byte corruption**. Every fault is scheduled from the
//! connection index and a fixed seed, so a failing chaos test replays
//! byte-for-byte — "deterministic chaos" in the tradition of seeded fault
//! injectors (the simulator's `FaultInjector` does the same for sensor
//! values; this module does it for the transport under them).
//!
//! Faults are applied to the client→server direction (the readings path,
//! where the recovery protocol has to work hardest); the server→client
//! direction is forwarded verbatim, except that a [`Fault::Reset`] severs
//! both. Each accepted connection takes the next fault from the configured
//! schedule, cycling — so a client that reconnects after a reset meets the
//! next fault in line.
//!
//! # Example
//!
//! ```no_run
//! use avoc_net::chaos::{ChaosConfig, ChaosProxy, Fault};
//!
//! let config = ChaosConfig {
//!     seed: 7,
//!     faults: vec![Fault::Reset { after_bytes: 512 }, Fault::None],
//! };
//! let proxy = ChaosProxy::start("127.0.0.1:9000".parse().unwrap(), config)?;
//! // Point the client at proxy.local_addr() instead of the daemon ...
//! proxy.stop();
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One connection's scheduled misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward traffic untouched.
    None,
    /// Forward writes in deterministic dribbles of at most `max_chunk`
    /// bytes (never aligned to frame boundaries), exercising the decoder's
    /// partial-frame reassembly.
    Chop {
        /// Largest forwarded piece, in bytes (at least 1).
        max_chunk: usize,
    },
    /// Freeze the stream for `millis` once `after_bytes` client bytes have
    /// been forwarded, then continue normally.
    Stall {
        /// Bytes forwarded before the stall.
        after_bytes: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Sever the connection (both directions) after forwarding exactly
    /// `after_bytes` client bytes.
    Reset {
        /// Bytes forwarded before the cut.
        after_bytes: u64,
    },
    /// XOR-flip one bit of the client byte at absolute stream offset
    /// `at_byte`, leaving everything else intact.
    Corrupt {
        /// Zero-based offset of the corrupted byte in the client→server
        /// stream.
        at_byte: u64,
    },
}

/// Proxy configuration: a seed and a per-connection fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds the chop-size stream; two proxies with the same seed and
    /// schedule inject byte-identical faults.
    pub seed: u64,
    /// Connection `k` suffers `faults[k % faults.len()]`. An empty schedule
    /// means every connection is [`Fault::None`].
    pub faults: Vec<Fault>,
}

/// A running fault-injection proxy. Dropping it without [`ChaosProxy::stop`]
/// leaves its threads serving until the process exits — tests should stop it.
#[derive(Debug)]
pub struct ChaosProxy {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept_join: JoinHandle<()>,
    accepted: Arc<AtomicUsize>,
    /// Clones of every live socket, so `stop` can shut them down and
    /// unblock the pump threads.
    live: Arc<Mutex<Vec<TcpStream>>>,
}

/// splitmix64 — the deterministic byte-stream generator behind `Chop`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every accepted connection
    /// to `upstream`, injecting the configured faults.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let accepted = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(Mutex::new(Vec::new()));
        let accept_join = {
            let running = Arc::clone(&running);
            let accepted = Arc::clone(&accepted);
            let live = Arc::clone(&live);
            std::thread::Builder::new()
                .name("avoc-chaos-accept".into())
                .spawn(move || accept_loop(listener, upstream, config, running, accepted, live))
                .expect("spawn chaos accept loop")
        };
        Ok(ChaosProxy {
            local_addr,
            running,
            accept_join,
            accepted,
            live,
        })
    }

    /// The address clients should connect to instead of the daemon.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far (each consumed one schedule slot).
    pub fn connections(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stops accepting, severs every proxied connection and joins the
    /// worker threads.
    pub fn stop(self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        for s in self.live.lock().expect("chaos live-socket lock").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        let _ = self.accept_join.join();
    }
}

#[allow(clippy::needless_pass_by_value)]
fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    config: ChaosConfig,
    running: Arc<AtomicBool>,
    accepted: Arc<AtomicUsize>,
    live: Arc<Mutex<Vec<TcpStream>>>,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while running.load(Ordering::SeqCst) {
        let Ok((client, _)) = listener.accept() else {
            break;
        };
        if !running.load(Ordering::SeqCst) {
            break; // the stop() wake-up connection
        }
        let index = accepted.fetch_add(1, Ordering::SeqCst);
        let fault = if config.faults.is_empty() {
            Fault::None
        } else {
            config.faults[index % config.faults.len()]
        };
        let Ok(server) = TcpStream::connect(upstream) else {
            // Upstream down (e.g. mid kill/restart): drop the client so it
            // retries against a later incarnation.
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        {
            let mut reg = live.lock().expect("chaos live-socket lock");
            if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                reg.push(c);
                reg.push(s);
            }
        }
        let seed = config.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (c2s_from, c2s_to) = (client.try_clone(), server.try_clone());
        pumps.push(std::thread::spawn(move || {
            if let (Ok(from), Ok(to)) = (c2s_from, c2s_to) {
                pump_faulted(from, to, fault, seed);
            }
        }));
        pumps.push(std::thread::spawn(move || pump_clean(server, client)));
    }
    for p in pumps {
        let _ = p.join();
    }
}

/// Server→client: verbatim forwarding; EOF or error on either side severs
/// the other so its pump exits too.
fn pump_clean(mut from: TcpStream, mut to: TcpStream) {
    // One buffer for the lifetime of the pump, allocated up front — the
    // forwarding loop itself never touches the allocator. The 4096-byte
    // read granularity is part of the deterministic fault schedule; keep
    // it in sync with the chop arithmetic below.
    let mut buf = vec![0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Client→server: forwarding with the connection's scheduled fault.
fn pump_faulted(mut from: TcpStream, mut to: TcpStream, fault: Fault, seed: u64) {
    let mut rng = seed;
    let mut forwarded: u64 = 0;
    let mut stalled = false;
    // As in `pump_clean`: one reused buffer per pump thread, and the
    // 1024-byte read granularity is load-bearing for determinism (fault
    // offsets are computed against these read boundaries).
    let mut buf = vec![0u8; 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let end = forwarded + n as u64;
        if let Fault::Corrupt { at_byte } = fault {
            if at_byte >= forwarded && at_byte < end {
                buf[(at_byte - forwarded) as usize] ^= 0x01;
            }
        }
        if let Fault::Reset { after_bytes } = fault {
            if end > after_bytes {
                // Forward the prefix up to the cut, then sever both ways.
                let keep = after_bytes.saturating_sub(forwarded) as usize;
                let _ = to.write_all(&buf[..keep]);
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
        }
        if let Fault::Stall {
            after_bytes,
            millis,
        } = fault
        {
            if !stalled && end > after_bytes {
                stalled = true;
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
        let ok = match fault {
            Fault::Chop { max_chunk } => {
                let max_chunk = max_chunk.max(1);
                let mut rest = &buf[..n];
                let mut ok = true;
                while !rest.is_empty() {
                    let take = (splitmix64(&mut rng) as usize % max_chunk + 1).min(rest.len());
                    if to.write_all(&rest[..take]).is_err() {
                        ok = false;
                        break;
                    }
                    // A write boundary only forces a segment boundary if the
                    // kernel doesn't coalesce; with nodelay set and a yield
                    // between pieces the receiver sees genuinely partial
                    // frames.
                    std::thread::yield_now();
                    rest = &rest[take..];
                }
                ok
            }
            _ => to.write_all(&buf[..n]).is_ok(),
        };
        if !ok {
            break;
        }
        forwarded = end;
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo server for proxy tests.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            // Serve a bounded number of connections, then exit.
            for stream in listener.incoming().take(4).flatten() {
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let mut buf = [0u8; 1024];
                    loop {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if stream.write_all(&buf[..n]).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, join)
    }

    fn send_recv(addr: SocketAddr, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.write_all(payload)?;
        let mut got = vec![0u8; payload.len()];
        s.read_exact(&mut got)?;
        Ok(got)
    }

    #[test]
    fn clean_and_chopped_connections_pass_traffic_through() {
        let (addr, _join) = echo_server();
        let proxy = ChaosProxy::start(
            addr,
            ChaosConfig {
                seed: 1,
                faults: vec![Fault::None, Fault::Chop { max_chunk: 3 }],
            },
        )
        .unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();
        // Connection 0: None. Connection 1: Chop. Both must be lossless.
        assert_eq!(send_recv(proxy.local_addr(), &payload).unwrap(), payload);
        assert_eq!(send_recv(proxy.local_addr(), &payload).unwrap(), payload);
        assert_eq!(proxy.connections(), 2);
        proxy.stop();
    }

    #[test]
    fn reset_severs_after_the_configured_bytes() {
        let (addr, _join) = echo_server();
        let proxy = ChaosProxy::start(
            addr,
            ChaosConfig {
                seed: 2,
                faults: vec![Fault::Reset { after_bytes: 8 }],
            },
        )
        .unwrap();
        let mut s = TcpStream::connect(proxy.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&[7u8; 64]).unwrap();
        // At most the 8 pre-cut bytes echo back before EOF.
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert!(got.len() <= 8, "read {} bytes past the cut", got.len());
        proxy.stop();
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let (addr, _join) = echo_server();
        let proxy = ChaosProxy::start(
            addr,
            ChaosConfig {
                seed: 3,
                faults: vec![Fault::Corrupt { at_byte: 5 }],
            },
        )
        .unwrap();
        let payload = [0u8; 16];
        let got = send_recv(proxy.local_addr(), &payload).unwrap();
        let diffs: Vec<usize> = (0..16).filter(|&i| got[i] != payload[i]).collect();
        assert_eq!(diffs, vec![5]);
        assert_eq!(got[5], 0x01);
        proxy.stop();
    }
}
