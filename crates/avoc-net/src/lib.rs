//! # avoc-net — the edge-voting middleware substrate
//!
//! The paper's UC-1 deployment (Fig. 1) wires five light sensors through a
//! VINT hub that streams to a voting sink node; UC-2 runs an "edge voter"
//! on a laptop. This crate is the substrate that pipeline is served from —
//! the voter itself is the `avoc-serve` daemon:
//!
//! * [`message`] — the length-prefixed binary wire protocol (built on
//!   `bytes`) sensors speak to the hub;
//! * [`cork`] — the [`cork::CorkedWriter`]: allocation-free frame
//!   encoding into a reusable buffer, flushed with one `write` per
//!   wakeup instead of one per frame;
//! * [`hub`] — the [`hub::SensorHub`]: assembles per-module readings into
//!   complete voting rounds, emitted as rows ([`hub::Rows`]) or as
//!   rounds, deadline-flushing partial rounds so missing values surface as
//!   NaN cells or `None` ballots;
//! * [`reactor`] — the readiness-based socket core ([`reactor::spawn_pool`])
//!   the `avoc-serve` daemon and the `avoc-gateway` both serve from: the
//!   only socket server in the workspace. Handlers run each frame to
//!   completion on the reactor and encode answers into the connection's
//!   [`reactor::Outbox`], which the reactor flushes after every read;
//! * [`chaos`] — a seeded fault-injecting TCP proxy for tests.
//!
//! # Example
//!
//! A sensor's frame crosses the wire and completes a round at the hub:
//!
//! ```
//! use avoc_core::ModuleId;
//! use avoc_net::{Message, SensorHub};
//!
//! let mut hub = SensorHub::new(vec![ModuleId::new(0), ModuleId::new(1)]);
//! let mut wire = bytes::BytesMut::new();
//! for (module, value) in [(0, 18.0), (1, 18.2)] {
//!     let module = ModuleId::new(module);
//!     Message::Reading { module, round: 7, value }.encode_into(&mut wire);
//! }
//! let mut rounds = Vec::new();
//! while let Ok(frame) = Message::decode(&mut wire) {
//!     rounds.extend(hub.accept(frame));
//! }
//! assert_eq!(rounds.len(), 1);
//! assert_eq!((rounds[0].round, rounds[0].present_count()), (7, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cork;
pub mod hub;
pub mod message;
pub mod reactor;

pub use cork::{CorkMetrics, CorkSnapshot, CorkedWriter, FlushOutcome, WriterStats};
pub use hub::{Rows, SensorHub};
pub use message::{
    BatchReading, BatchResult, BatchView, Message, PackedResult, SpecSource, MAX_BATCH_READINGS,
    MAX_BATCH_RESULTS,
};
pub use reactor::{
    spawn_pool, DecodeStep, FrameVerdict, Handler, Outbox, ReactorConfig, ReactorMetrics,
    ReactorPool, ReactorSnapshot, StreamDecoder,
};
