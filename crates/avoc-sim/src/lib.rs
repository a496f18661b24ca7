//! # avoc-sim — scenario simulators for the AVOC experiments
//!
//! The paper evaluates on two recorded hardware testbeds; this crate is
//! their synthetic substitute (see `DESIGN.md`, *Substitutions*):
//!
//! * [`light`] — the UC-1 smart-building testbed: 5 redundant light sensors
//!   polled at 8 S/s for 10 000 rounds, values in the 17–20 klm band of
//!   Fig. 6-a;
//! * [`ble`] — the UC-2 tunnel-positioning testbed: two stacks of 9 BLE
//!   beacons 15 m apart, a robot driving between them at 0.09 m/s, RSSI
//!   with log-distance path loss, shadowing, fast fading and
//!   distance-dependent packet loss (missing values);
//! * [`shelf`] — the introduction's smart-shopping shelf: dozens of
//!   redundant proximity sensors with infrared glitches;
//! * [`faults`] — the fault injector (offset, stuck-at, dropout, spike,
//!   drift, noise burst) used for the Fig. 6-c error-injection experiment;
//! * [`trace`] — recorded traces: the `(round × module)` matrices every
//!   experiment replays, with CSV export for reproducibility.
//!
//! Everything is deterministic under a caller-supplied seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ble;
pub mod faults;
pub mod light;
pub mod robot;
pub mod shelf;
pub mod trace;

pub use ble::{BleScenario, BleTrace};
pub use faults::{FaultInjector, FaultKind};
pub use light::LightScenario;
pub use robot::RobotPath;
pub use shelf::ShelfScenario;
pub use trace::RecordedTrace;
