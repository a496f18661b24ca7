//! The edge voter service: the full Fig. 1 pipeline, VDX-configured.
//!
//! "We proposed voting definition format VDX that can be used to describe a
//! voting procedure to a compatible voter service running on an edge node"
//! (§8) — [`EdgeVoter`] is that service: it takes a VDX document, spawns one
//! feeder thread per sensor (each speaking the wire protocol), assembles
//! rounds in a [`SensorHub`] and fuses them on a [`SinkNode`].

use crate::hub::SensorHub;
use crate::message::Message;
use crate::sink::{SinkNode, SinkOutput};
use avoc_core::ModuleId;
use avoc_sim::RecordedTrace;
use avoc_vdx::{build_engine, VdxError, VdxSpec};
use crossbeam::channel;

/// Capacity of the feeder → hub wire channel. Trace replays are bursty —
/// every feeder pushes as fast as it can — so the channel is bounded to
/// backpressure feeders once the hub falls behind, instead of buffering an
/// entire trace. Entries are multi-frame chunks of up to
/// [`FEEDER_CHUNK_BYTES`], so 256 slots still bound memory to ~1 MiB.
const WIRE_CHANNEL_CAPACITY: usize = 256;

/// Feeders encode frames allocation-free into a reused scratch buffer and
/// ship it once this many bytes accumulate (~160 frames), so the
/// per-reading cost is one `Vec` per chunk instead of two allocations per
/// frame.
const FEEDER_CHUNK_BYTES: usize = 4096;

/// Capacity of the hub → sink and sink → collector round channels. Rounds
/// are produced at most once per `expected.len()` frames, so a much smaller
/// buffer than [`WIRE_CHANNEL_CAPACITY`] already decouples voting latency
/// spikes from round assembly without unbounded growth.
const ROUND_CHANNEL_CAPACITY: usize = 64;

/// A VDX-configured edge voting service.
///
/// # Example
///
/// ```
/// use avoc_net::EdgeVoter;
/// use avoc_sim::LightScenario;
/// use avoc_vdx::VdxSpec;
///
/// let trace = LightScenario::new(5, 20, 3).generate();
/// let outputs = EdgeVoter::new(VdxSpec::avoc())?.run_trace(&trace);
/// assert_eq!(outputs.len(), 20);
/// assert!(outputs.iter().all(|o| o.result.is_ok()));
/// # Ok::<(), avoc_vdx::VdxError>(())
/// ```
#[derive(Debug)]
pub struct EdgeVoter {
    spec: VdxSpec,
}

impl EdgeVoter {
    /// Creates the service, validating the spec eagerly.
    ///
    /// # Errors
    ///
    /// Propagates [`VdxSpec::validate`] failures.
    pub fn new(spec: VdxSpec) -> Result<Self, VdxError> {
        spec.validate()?;
        Ok(EdgeVoter { spec })
    }

    /// The service's VDX definition.
    pub fn spec(&self) -> &VdxSpec {
        &self.spec
    }

    /// Replays a recorded trace through the full pipeline: one feeder
    /// thread per sensor encodes wire messages, the hub assembles rounds,
    /// the sink votes. Returns the per-round outputs in round order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run_trace(&self, trace: &RecordedTrace) -> Vec<SinkOutput> {
        let engine = build_engine(&self.spec).expect("spec validated in constructor");
        let modules: Vec<ModuleId> = (0..trace.modules().len())
            .map(|i| ModuleId::new(i as u32))
            .collect();

        // Sensor feeders → hub thread.
        let (wire_tx, wire_rx) = channel::bounded::<Vec<u8>>(WIRE_CHANNEL_CAPACITY);
        let mut feeders = Vec::new();
        for (idx, &module) in modules.iter().enumerate() {
            let series = trace.series(idx);
            let tx = wire_tx.clone();
            feeders.push(std::thread::spawn(move || {
                // One reused scratch per feeder thread: frames append
                // in place and whole chunks cross the channel.
                let mut scratch = bytes::BytesMut::with_capacity(FEEDER_CHUNK_BYTES + 64);
                for (round, value) in series.into_iter().enumerate() {
                    let msg = match value {
                        Some(v) => Message::Reading {
                            module,
                            round: round as u64,
                            value: v,
                        },
                        None => Message::Missing {
                            module,
                            round: round as u64,
                        },
                    };
                    msg.encode_into(&mut scratch);
                    if scratch.len() >= FEEDER_CHUNK_BYTES {
                        if tx.send(scratch.to_vec()).is_err() {
                            return;
                        }
                        scratch.clear();
                    }
                }
                if !scratch.is_empty() {
                    let _ = tx.send(scratch.to_vec());
                }
            }));
        }
        drop(wire_tx);

        // Hub thread: decode frames, assemble rounds.
        let (round_tx, round_rx) = channel::bounded(ROUND_CHANNEL_CAPACITY);
        let hub_modules = modules.clone();
        let rounds_total = trace.rounds();
        let hub_handle = std::thread::spawn(move || {
            // Feeders interleave arbitrarily; a generous lag tolerance keeps
            // rounds complete, and the final flush drains the tail.
            let mut hub = SensorHub::new(hub_modules).with_lag_tolerance(rounds_total as u64 + 1);
            let mut buf = bytes::BytesMut::new();
            for frame in wire_rx.iter() {
                buf.extend_from_slice(&frame);
                loop {
                    match Message::decode(&mut buf) {
                        Ok(msg) => {
                            for round in hub.accept(msg) {
                                if round_tx.send(round).is_err() {
                                    return hub;
                                }
                            }
                        }
                        Err(crate::message::DecodeError::Incomplete) => break,
                        Err(crate::message::DecodeError::FrameTooLarge { .. }) => {
                            // Unreachable with our own encoder upstream, but
                            // a capped frame cannot be resynced past: stop.
                            return hub;
                        }
                        Err(_) => continue, // resynchronised past a bad frame
                    }
                }
            }
            for round in hub.flush_all() {
                if round_tx.send(round).is_err() {
                    break;
                }
            }
            hub
        });

        // Sink node.
        let (out_tx, out_rx) = channel::bounded(ROUND_CHANNEL_CAPACITY);
        let sink = SinkNode::spawn(engine, round_rx, out_tx);

        let mut outputs: Vec<SinkOutput> = out_rx.iter().collect();
        for f in feeders {
            f.join().expect("feeder thread panicked");
        }
        hub_handle.join().expect("hub thread panicked");
        sink.join();
        outputs.sort_by_key(|o| o.round);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_core::RoundResult;
    use avoc_sim::{FaultInjector, FaultKind, LightScenario};

    #[test]
    fn pipeline_votes_every_round() {
        let trace = LightScenario::new(5, 40, 1).generate();
        let outputs = EdgeVoter::new(VdxSpec::avoc()).unwrap().run_trace(&trace);
        assert_eq!(outputs.len(), 40);
        for (i, o) in outputs.iter().enumerate() {
            assert_eq!(o.round, i as u64);
            assert!(o.result.is_ok());
        }
    }

    #[test]
    fn pipeline_masks_injected_fault() {
        let clean = LightScenario::new(5, 30, 2).generate();
        let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 0);
        let voter = EdgeVoter::new(VdxSpec::avoc()).unwrap();
        let outputs = voter.run_trace(&faulty);
        for o in &outputs {
            let val = match o.result.as_ref().unwrap() {
                RoundResult::Voted(v) => v.number().unwrap(),
                other => panic!("expected vote, got {other:?}"),
            };
            assert!(val < 20.0, "fault leaked into output: {val}");
        }
    }

    #[test]
    fn pipeline_handles_missing_values() {
        let clean = LightScenario::new(5, 30, 3).generate();
        let sparse =
            FaultInjector::new(1, FaultKind::Dropout { probability: 0.5 }).apply(&clean, 1);
        let mut spec = VdxSpec::avoc();
        // Majority quorum so dropped readings don't kill rounds.
        spec.quorum = avoc_vdx::QuorumKind::Majority;
        let outputs = EdgeVoter::new(spec).unwrap().run_trace(&sparse);
        assert_eq!(outputs.len(), 30);
        assert!(outputs.iter().all(|o| o.result.is_ok()));
    }

    #[test]
    fn invalid_spec_is_rejected_up_front() {
        let mut spec = VdxSpec::avoc();
        spec.params.error = f64::NAN;
        assert!(EdgeVoter::new(spec).is_err());
    }
}
