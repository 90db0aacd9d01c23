//! # nnrt-manycore
//!
//! A discrete-event simulator of an Intel Knights Landing (KNL)-class manycore
//! processor, together with an analytical cost model for dataflow *operations*
//! (the fine-grained units of work a machine-learning framework schedules).
//!
//! The crate substitutes for the hardware the paper
//! *"Runtime Concurrency Control and Operation Scheduling for High Performance
//! Neural Network Training"* (Liu et al., IPDPS 2019) evaluates on — a Xeon Phi
//! 7250 node of the Cori supercomputer:
//!
//! * 68 cores organised as 34 tiles × 2 cores, two cores per tile sharing a
//!   1 MB L2 (the last-level cache),
//! * 4 SMT hardware threads per core (272 logical CPUs),
//! * 16 GB of on-package MCDRAM configured in *cache mode* (no NUMA effects).
//!
//! ## Layers
//!
//! * [`topology`] — the machine description (tiles, cores, SMT contexts).
//! * [`workload`] — [`workload::WorkProfile`], the machine-independent
//!   description of one operation instance (flops, bytes, parallel slack, …).
//! * [`cost`] — [`cost::CostModel`]: solo execution time of a profile under a
//!   given thread count and cache-sharing mode. The curve is convex in the
//!   thread count with a shape-dependent optimum, reproducing the paper's
//!   Figure 1 / Table II observations.
//! * [`noise`] — duration-dependent measurement noise (short operations are
//!   noisy to time, which is what defeats the paper's regression models).
//! * [`placement`] — allocation of hardware contexts to jobs (compact /
//!   scatter affinity, primary vs. hyper-thread contexts).
//! * [`engine`] — the discrete-event engine that co-runs jobs and models
//!   cross-job interference (SMT sharing, MCDRAM bandwidth contention).
//! * [`hash`] — the stable FNV-1a and SplitMix64 helpers every crate
//!   fingerprints, checksums and derives seeds with.
//!
//! ## Determinism
//!
//! Every stochastic element is driven by a caller-provided seed; two runs with
//! the same seed produce bit-identical traces.

#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod error;
pub mod hash;
pub mod health;
pub mod noise;
pub mod placement;
pub mod signature;
pub mod topology;
pub mod workload;

pub use cost::{CostModel, KnlCostModel, KnlParams};
pub use engine::{Engine, EngineEvent, EventKind, JobId, JobOutcome};
pub use error::MachineError;
pub use health::{NodeHealth, DEFAULT_HEALTH_WINDOW, DEFAULT_STRAGGLER_THRESHOLD};
pub use noise::NoiseModel;
pub use placement::{Placement, PlacementRequest, SharingMode, SlotPreference};
pub use signature::MachineSignature;
pub use topology::{CoreId, TileId, Topology};
pub use workload::WorkProfile;
