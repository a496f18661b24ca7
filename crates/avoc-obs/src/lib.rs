//! `avoc-obs`: the live observability plane for the AVOC serving stack.
//!
//! The paper's argument is about *convergence behaviour over rounds* (§6),
//! yet aggregate counters dumped at drain time cannot show it on a running
//! daemon. This crate supplies the three pieces every serious serving stack
//! grows — without pulling in a single external crate:
//!
//! * [`Registry`] — a lock-free metric registry of atomic [`Counter`]s,
//!   [`Gauge`]s and log-linear [`Histogram`]s with small label sets
//!   (tenant/session, frame tag, shard). Handles are `Arc`-backed: record
//!   paths touch only relaxed atomics, so instrumented hot paths stay
//!   allocation-free. Exposition is Prometheus text format
//!   ([`Registry::render_prometheus`]) or JSON ([`Registry::render_json`]).
//! * [`facts!`] — declares a table of metric facts once: the handle
//!   struct, its registration, a plain-value snapshot and its family list
//!   all come from one row per fact.
//! * [`TraceRing`] — a fixed-capacity ring of structured per-round span
//!   events ([`Span`]: `ingest → queue → fuse → flush`), sampled 1-in-N so
//!   queue delay, fuse time and flush time are separable per tenant while
//!   the hot path pays one relaxed atomic per sampling decision and zero
//!   allocations per recorded span.
//! * [`Health`] — the graceful-degradation plane: named domains
//!   (persistence, segments, accept) each carry an `ok`/`degraded`/
//!   `critical` level with a reason; the worst domain decides what
//!   `/healthz` answers (`200` vs `503` + JSON reasons).
//! * [`http`] — a minimal, hostile-input-hardened HTTP/1.1 request parser
//!   and response writer, the substrate for the daemon's admin endpoint
//!   (`/metrics`, `/healthz`, `/sessions`, `/trace`), plus a tiny blocking
//!   GET client for tests, benches and smoke probes.
//!
//! The registry and ring are deliberately clock-free at the API level:
//! callers stamp spans with [`now_ns`], a monotonic nanosecond counter
//! anchored at first use, so recorded timelines are comparable across
//! threads of one process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facts;
pub mod health;
pub mod histogram;
pub mod http;
pub mod registry;
pub mod rollup;
pub mod trace;

pub use facts::Fact;
pub use health::{Health, HealthLevel};
pub use histogram::{Histogram, HistogramSnapshot};
pub use http::{reason, write_response};
pub use registry::{Counter, Gauge, Kind, Registry};
pub use trace::{now_ns, Span, Stage, TraceRing};
