//! # avoc — history-aware data fusion for reliable IoT analytics
//!
//! A complete Rust implementation of the system described in *"AVOC:
//! History-Aware Data Fusion for Reliable IoT Analytics"* (Middleware '22):
//! history-aware software voting for redundant sensors, the AVOC clustering
//! bootstrap, the VDX voting-definition format, an edge-voting middleware
//! pipeline, scenario simulators for the paper's two case studies, durable
//! history datastores, and the evaluation metrics used by the paper's
//! experiments.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `avoc-core` | values, rounds, the voter family, the engine |
//! | [`cluster`] | `avoc-cluster` | agreement clustering (the AVOC bootstrap), mean-shift (its vector form) |
//! | [`vdx`] | `avoc-vdx` | the VDX JSON spec, validation, voter factory |
//! | [`sim`] | `avoc-sim` | light-sensor and BLE-beacon scenario generators, fault injection |
//! | [`store`] | `avoc-store` | durable history datastores: WAL, columnar segments |
//! | [`net`] | `avoc-net` | wire protocol, corked writer, sensor hub, socket reactor |
//! | [`serve`] | `avoc-serve` | sharded multi-tenant voter daemon, TCP server + client |
//! | [`gateway`] | `avoc-gateway` | multi-node routing tier: hash-ring placement, migration |
//! | [`obs`] | `avoc-obs` | metric registry, latency histograms, trace ring, scrape HTTP |
//! | [`metrics`] | `avoc-metrics` | convergence, ambiguity, series ops, reports |
//!
//! # Quickstart
//!
//! ```
//! use avoc::prelude::*;
//!
//! // Describe the voting scheme in VDX (Listing 1 of the paper) ...
//! let spec = VdxSpec::avoc();
//! // ... build the fully-policied engine from it ...
//! let mut engine = avoc::vdx::build_engine(&spec)?;
//! // ... and fuse a round of redundant readings with one faulty sensor.
//! let outcome = engine.submit(&Round::from_numbers(0, &[18.0, 18.1, 24.0, 17.9, 18.05]))?;
//! let fused = outcome.number().expect("voted");
//! assert!((fused - 18.0).abs() < 0.3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for the paper's two case studies end to
//! end, and the `avoc-bench` crate for every figure/table reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use avoc_cluster as cluster;
pub use avoc_core as core;
pub use avoc_gateway as gateway;
pub use avoc_metrics as metrics;
pub use avoc_net as net;
pub use avoc_obs as obs;
pub use avoc_serve as serve;
pub use avoc_sim as sim;
pub use avoc_store as store;
pub use avoc_vdx as vdx;

/// Compiles the Rust blocks of `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most common imports, for `use avoc::prelude::*`.
pub mod prelude {
    pub use avoc_core::algorithms::{
        AverageVoter, HistoryAlgorithm, HistoryVoter, MajorityVoter, Verdict, Voter,
    };
    pub use avoc_core::{
        AgreementParams, Ballot, Collation, Exclusion, FaultPolicy, ModuleId, Quorum, Round,
        RoundResult, Value, VoteError, VoterConfig, VotingEngine,
    };
    pub use avoc_metrics::{AmbiguityReport, ConvergenceReport};
    pub use avoc_net::SpecSource;
    pub use avoc_serve::{
        ClientConfig, Persistence, ResilientClient, RetryPolicy, ServeClient, ServeConfig,
        SpecRegistry, TcpServer, VoterService,
    };
    pub use avoc_sim::{BleScenario, FaultInjector, FaultKind, LightScenario, RecordedTrace};
    pub use avoc_store::{CompactionReport, TieredStore};
    pub use avoc_vdx::{build_engine, build_voter, VdxSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_whole_stack() {
        let trace = LightScenario::new(5, 10, 1).generate();
        let registry = std::sync::Arc::new(SpecRegistry::new());
        let service = VoterService::start(ServeConfig::default(), registry);
        let (sink, results) = crossbeam::channel::unbounded();
        let spec = SpecSource::Inline(VdxSpec::avoc().to_json());
        service.open_session(1, 5, &spec, sink).expect("valid spec");
        for round in trace.iter_rounds() {
            for (module, value) in round.present_numbers() {
                service.feed(1, module, round.round, value).expect("feed");
            }
        }
        service.close_session(1).expect("close");
        assert_eq!(service.drain().rounds_fused, 10);
        assert!(results.try_recv().is_ok());
    }
}
