//! `avoc-gateway`: the multi-node routing tier in front of `avoc-serve`.
//!
//! A single [`avoc_serve::TcpServer`] daemon scales to many tenants on one
//! machine; this crate scales the *deployment* to many machines without
//! giving up the single-node story's crash guarantees. The design keeps
//! the gateway stateless about fusion and sessions-at-rest — it owns only
//! *placement*:
//!
//! ```text
//!            OpenSession / ResumeSession
//!   client ────────────────────────────▶ gateway
//!   client ◀──────────────────────────── Redirect { session, epoch, addr }
//!            (client re-dials the owning daemon directly;
//!             the gateway is off the data path)
//!
//!   gateway ── ExportSession ──▶ daemon A      (drain / rebalance)
//!   gateway ◀── SessionState ─── daemon A      (quiesced checkpoint + WAL)
//!   gateway ── SessionState ───▶ daemon B
//!   gateway ◀── Resumed{warm} ── daemon B      (placement flips, epoch++)
//! ```
//!
//! * [`HashRing`] — consistent hashing with virtual nodes: session ids
//!   hash onto a `u64` ring, each member contributes `vnodes` points, and
//!   excluding a degraded node moves only that node's sessions.
//! * [`Gateway`] — the running tier: an `avoc-net` reactor answering
//!   open/resume frames with `Redirect`, a `/healthz` prober that routes
//!   around degraded members, checkpoint-shipping migration
//!   ([`Gateway::migrate_session`], [`Gateway::drain_node`]), and a
//!   cluster admin endpoint whose `/metrics` merges every member's scrape
//!   into one roll-up ([`avoc_obs::rollup`]).
//! * [`Member`] / [`GatewayConfig`] — the static membership and tuning.
//!
//! Clients need no new machinery: [`avoc_serve::ResilientClient`] already
//! follows `Redirect` frames (hop-capped, loop-rejecting), so pointing it
//! at a gateway instead of a daemon is the whole integration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gateway;
mod ring;

pub use gateway::{Gateway, GatewayConfig, Member};
pub use ring::HashRing;
