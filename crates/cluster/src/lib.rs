//! # nnrt-cluster
//!
//! Multi-KNL training — the paper's Section V, implemented rather than left
//! as future work.
//!
//! The paper argues its runtime needs no changes on multiple KNLs:
//!
//! * **Data parallelism** duplicates the model; each node runs the runtime
//!   on its own batch shard, then gradients synchronize (here: a ring
//!   all-reduce over the interconnect). "Our runtime system can work on
//!   individual KNLs without any change."
//! * **Model parallelism** partitions the operations across nodes; each node
//!   schedules fewer operations, so "we have less opportunities to co-run
//!   operations, but our control over intra-op parallelism should remain
//!   the same."
//!
//! Both regimes run on one discrete-event simulator ([`sim`]): compute lanes
//! and interconnect links are serial resources, gradients and activations
//! move as events. Its synchronous baseline ([`ClusterStrategy::NoOverlap`])
//! is the analytic `compute + allreduce` step; the overlapping policies and
//! microbatch pipelines extend it. The `cluster_scaling` and
//! `cluster_overlap` benches and the crate tests check the paper's claims.

#![warn(missing_docs)]

pub mod interconnect;
pub mod sim;

pub use interconnect::{ChunkedAllreduce, Interconnect};
pub use sim::{
    partition_graph, per_op_secs, pipeline_stage_profile, simulate_data_parallel,
    simulate_pipeline, ClusterConfig, ClusterMode, ClusterStepReport, ClusterStrategy, Partition,
    StageSecs,
};
