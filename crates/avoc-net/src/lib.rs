//! # avoc-net — the edge-voting middleware substrate
//!
//! The paper's UC-1 deployment (Fig. 1) wires five light sensors through a
//! VINT hub that streams to a voting sink node; UC-2 runs an "edge voter"
//! on a laptop. This crate reproduces that pipeline as an in-process
//! middleware over `crossbeam` channels:
//!
//! * [`message`] — the length-prefixed binary wire protocol (built on
//!   `bytes`) sensors speak to the hub;
//! * [`cork`] — the [`cork::CorkedWriter`]: allocation-free frame
//!   encoding into a reusable buffer, flushed with one `write` per
//!   wakeup instead of one per frame;
//! * [`hub`] — the [`hub::SensorHub`]: assembles per-module readings into
//!   complete voting rounds, deadline-flushing partial rounds so missing
//!   values surface as `None` ballots;
//! * [`sink`] — the [`sink::SinkNode`]: a worker thread driving a
//!   [`avoc_core::VotingEngine`] over incoming rounds;
//! * [`edge`] — the [`edge::EdgeVoter`]: the full VDX-configured service —
//!   spawn sensor feeders from a recorded trace, run hub + sink, collect
//!   fused outputs;
//! * [`reactor`] — the readiness-based socket core ([`reactor::spawn_pool`])
//!   the `avoc-serve` daemon and the `avoc-gateway` both serve from: the
//!   only socket server in the workspace;
//! * [`chaos`] — a seeded fault-injecting TCP proxy for tests.
//!
//! # Example
//!
//! ```
//! use avoc_net::edge::EdgeVoter;
//! use avoc_sim::LightScenario;
//! use avoc_vdx::VdxSpec;
//!
//! let trace = LightScenario::new(5, 50, 7).generate();
//! let outputs = EdgeVoter::new(VdxSpec::avoc())?.run_trace(&trace);
//! assert_eq!(outputs.len(), 50);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cork;
pub mod edge;
pub mod hub;
pub mod message;
pub mod reactor;
pub mod sink;

pub use cork::{CorkMetrics, CorkedWriter, FlushOutcome, WriterStats};
pub use edge::EdgeVoter;
pub use hub::{Liveness, SensorHub};
pub use message::{
    BatchReading, BatchResult, Message, SpecSource, MAX_BATCH_READINGS, MAX_BATCH_RESULTS,
};
pub use reactor::{
    spawn_pool, ConnWaker, DecodeStep, FrameVerdict, Handler, ReactorConfig, ReactorMetrics,
    ReactorPool, StreamDecoder,
};
pub use sink::SinkNode;
