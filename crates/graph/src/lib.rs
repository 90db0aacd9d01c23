//! # nnrt-graph
//!
//! Dataflow graphs of neural-network training operations, in the style of the
//! TensorFlow executor the paper extends: a training step is a directed
//! acyclic graph whose nodes are *operation instances* (an op kind plus the
//! tensor shape it runs on) and whose edges are data/control dependencies.
//! An operation is ready to run once all its predecessors finished.
//!
//! The crate provides:
//!
//! * [`OpKind`] — the op catalog (convolutions and their backprops, matmuls,
//!   poolings, element-wise ops, reductions, optimizer updates, and the
//!   MKL-DNN layout-conversion ops the paper's Table VI surfaces).
//! * [`Shape`] — tensor shapes, e.g. the paper's `par_input (32,8,8,384)`.
//! * [`OpInstance`] / [`DataflowGraph`] — nodes and the DAG, with validation,
//!   topological iteration and a ready-set frontier.
//! * [`listsched`] — offline list scheduling of a task DAG over pools of
//!   lanes, the event loop of the GPU stream runtime and the cluster
//!   simulator.
//! * [`profile`] — the mapping from `(kind, shape)` to a machine-independent
//!   [`WorkProfile`](nnrt_manycore::WorkProfile), which is what gives every
//!   op its own scalability curve on the simulated KNL.

#![warn(missing_docs)]

pub mod dist;
pub mod graph;
pub mod listsched;
pub mod ops;
pub mod profile;
pub mod shape;

pub use dist::{grad_param_bindings, GradBinding};
pub use graph::{DataflowGraph, GraphError, NodeId, OpInstance, ReadyTracker};
pub use ops::{Backend, OpAux, OpKind};
pub use profile::{op_key, work_profile, OpKey};
pub use shape::Shape;
