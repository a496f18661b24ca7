//! `avoc-serve`: a sharded, multi-tenant VDX voter service daemon.
//!
//! The paper's vision (§8) is a *voter service* on an edge node that any
//! deployment can hand a VDX document to. This crate is that service: a
//! long-running daemon that multiplexes many concurrent **voting
//! sessions** — each with its own VDX spec, module set, fusion engine and
//! history — over the `avoc-net` wire substrate.
//!
//! # Architecture
//!
//! ```text
//!                 ┌─────────────────────────────────────────────┐
//!  TCP clients ──▶│ avoc-net reactor pool: R event-loop threads │
//!                 │ (one SO_REUSEPORT listener per reactor)     │
//!                 │ each owns its accepted sockets for life;    │
//!                 │ streaming decode of tags 5–13 and 16–18     │
//!                 └──────────────┬──────────────────────────────┘
//!                                │ route by hash(session id): ONE step
//!                                │ per socket read (or FeedBatch) per
//!                                │ shard, run on the reactor thread —
//!                                │ or handed to a helper thread while a
//!                                │ core is spare for it
//!                 ┌──────────────▼──────────────┐
//!                 │ shard 0 .. shard N-1        │  one lock each: the
//!                 │  each: HashMap<id, Session> │  shard's steps run in
//!                 │  + its queue of handed feeds│  lock order, queued
//!                 │  Session = SensorHub        │  feeds first, each to
//!                 │          + VotingEngine     │  completion
//!                 └──────────────┬──────────────┘
//!                                │ ResultSink: verdicts encoded straight
//!                                │ into the connection's Outbox bytes
//!                 ┌──────────────▼──────────────┐
//!                 │ owning reactor flushes the  │──▶ back to the client
//!                 │ outbox after each read      │
//!                 └─────────────────────────────┘
//! ```
//!
//! * [`SpecRegistry`] — named VDX documents loaded from a `specs/`
//!   directory, plus inline VDX accepted at session open
//!   ([`avoc_net::SpecSource`]).
//! * [`VoterService`] — the sharded executor: sessions are pinned to one of
//!   N shards by session-id hash, each shard's sessions behind one lock, so
//!   each session's rounds are fused in order on whichever thread fed
//!   them, and a call's effects are complete when it returns. Only the
//!   TCP front-end's reactors hand feeds to the service's helper threads.
//! * [`ServeConfig`] — shard and reactor counts, session capacity (opens
//!   past it are refused), idle-tick eviction, round-assembly lag, crash
//!   safety, the admin address and trace sampling.
//! * [`CountersSnapshot`] — sessions opened/evicted/rejected, rounds fused,
//!   fallbacks, readings/results dropped and the wire and reactor cells,
//!   copied in process by [`VoterService::counters`] and returned by a
//!   drain. Shards never block on a tenant's result sink: a slow tenant
//!   loses its own overflow (counted) instead of stalling the fleet.
//! * [`TcpServer`] / [`ServeClient`] — the socket front-end and a small
//!   blocking client for it.
//! * the admin endpoint — optional plain-HTTP observability routes
//!   (`/metrics`, `/healthz`, `/sessions`, `/segments`, `/trace`) over
//!   [`avoc_obs`]'s registry and span ring, served by the shared
//!   [`avoc_obs::http::Server`] listener; enabled via
//!   [`ServeConfig::admin_addr`] (see [`TcpServer::admin_addr`]), off by
//!   default.
//!
//! # Example (in-process)
//!
//! ```
//! use avoc_net::SpecSource;
//! use avoc_serve::{ServeConfig, SpecRegistry, VoterService};
//! use avoc_core::ModuleId;
//! use std::sync::Arc;
//!
//! let mut registry = SpecRegistry::new();
//! registry.insert("avoc", avoc_vdx::VdxSpec::avoc());
//! let service = VoterService::start(ServeConfig::default(), Arc::new(registry));
//!
//! let (sink, results) = crossbeam::channel::unbounded();
//! service
//!     .open_session(7, 3, &SpecSource::Named("avoc".into()), sink)
//!     .unwrap();
//! for (module, value) in [(0, 18.0), (1, 18.2), (2, 17.9)] {
//!     service.feed(7, ModuleId::new(module), 0, value).unwrap();
//! }
//! service.close_session(7).unwrap();
//! let snapshot = service.drain();
//! assert_eq!(snapshot.rounds_fused, 1);
//! assert!(results.try_recv().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admin;
mod client;
mod metrics;
mod persist;
mod registry;
mod ring;
mod server;
mod service;
mod session;
mod shard;
mod sink;

pub use client::{
    ClientConfig, ClientIoStats, ClientStats, ResilientClient, RetryPolicy, ServeClient,
    MAX_REDIRECT_HOPS,
};
pub use metrics::{CountersSnapshot, ServiceSnapshot};
pub use persist::Persistence;
pub use registry::SpecRegistry;
pub use server::TcpServer;
pub use service::{ServeConfig, ServeError, VoterService};
pub use sink::ResultSink;
