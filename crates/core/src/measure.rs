//! The dynamic-profiling harness.
//!
//! During the first few training steps the runtime runs operations standalone
//! (serially, to avoid interference — §III-B "we run the operations in serial
//! ... to ensure accuracy of feature collection") and measures their
//! execution time under chosen thread counts and affinities. On the simulated
//! machine a "measurement" is the cost model's solo time perturbed by the
//! duration-dependent [`NoiseModel`].

use nnrt_graph::{op_key, DataflowGraph, NodeId, OpKey};
use nnrt_manycore::hash::{fnv1a64_update, mix64, FNV1A64_OFFSET};
use nnrt_manycore::{CostModel, KnlCostModel, NoiseModel, SharingMode, WorkProfile};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Per-graph cache of work profiles, indexed both by node and by op key.
#[derive(Debug, Clone)]
pub struct OpCatalog {
    by_node: Vec<WorkProfile>,
    by_key: HashMap<OpKey, WorkProfile>,
    counts: HashMap<OpKey, usize>,
    keys: Vec<OpKey>,
}

impl OpCatalog {
    /// Builds the catalog for `graph`.
    pub fn new(graph: &DataflowGraph) -> Self {
        let mut by_node = Vec::with_capacity(graph.len());
        let mut by_key: HashMap<OpKey, WorkProfile> = HashMap::new();
        let mut counts: HashMap<OpKey, usize> = HashMap::new();
        for (_, op) in graph.iter() {
            let profile = nnrt_graph::work_profile(op.kind, &op.shape, &op.aux);
            let key = op_key(op.kind, &op.shape);
            by_key.entry(key.clone()).or_insert(profile);
            *counts.entry(key).or_default() += 1;
            by_node.push(profile);
        }
        let mut keys: Vec<OpKey> = by_key.keys().cloned().collect();
        keys.sort();
        OpCatalog {
            by_node,
            by_key,
            counts,
            keys,
        }
    }

    /// Number of instances of `key` in the graph (0 if absent). One
    /// profiling step observes every instance, so a key with many instances
    /// yields an effectively averaged, lower-noise measurement.
    pub fn key_count(&self, key: &OpKey) -> usize {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Profile of a node.
    pub fn profile(&self, node: NodeId) -> &WorkProfile {
        &self.by_node[node.0 as usize]
    }

    /// Profile of an op key (any instance with that kind and shape).
    pub fn profile_of_key(&self, key: &OpKey) -> Option<&WorkProfile> {
        self.by_key.get(key)
    }

    /// All distinct keys, sorted (deterministic iteration order).
    pub fn keys(&self) -> &[OpKey] {
        &self.keys
    }
}

/// Stable 64-bit fingerprint of an op key: FNV-1a over the kind's display
/// name and the shape's dimensions. Used to derive per-key measurement
/// seeds, so it must never depend on process-local state (hash randomization,
/// enum discriminant order, allocation addresses).
fn key_fingerprint(key: &OpKey) -> u64 {
    let mut h = FNV1A64_OFFSET;
    fnv1a64_update(&mut h, key.0.to_string().as_bytes());
    // Separator: kind name and dims must not concatenate ambiguously.
    fnv1a64_update(&mut h, &[0xFF]);
    for &dim in &key.1 .0 {
        fnv1a64_update(&mut h, &(dim as u64).to_le_bytes());
    }
    h
}

/// Derives the measurement seed of one op key from a base seed — the recipe
/// [`Measurer::fork_for_key`] uses, exported so other backends (the GPU
/// profiler) produce curves that are a pure function of `(base, key)` and
/// therefore independent of worker count and climb order.
pub fn per_key_seed(base: u64, key: &OpKey) -> u64 {
    mix64(base ^ key_fingerprint(key))
}

/// Measures standalone operation runs on the simulated machine.
///
/// Owns the ground-truth cost model, the measurement noise and a seeded RNG;
/// everything downstream (profilers, schedulers) sees only noisy
/// measurements, as a real runtime would.
#[derive(Debug, Clone)]
pub struct Measurer {
    cost: KnlCostModel,
    noise: NoiseModel,
    rng: ChaCha8Rng,
    seed: u64,
    measurements: u64,
}

impl Measurer {
    /// A measurer over `cost` with `noise`, seeded deterministically.
    pub fn new(cost: KnlCostModel, noise: NoiseModel, seed: u64) -> Self {
        Measurer {
            cost,
            noise,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
            measurements: 0,
        }
    }

    /// A fresh measurer whose noise stream is a pure function of this
    /// measurer's base seed and `key` — *not* of how many measurements were
    /// taken before. Profilers fork one measurer per op key, so a key's
    /// measured curve is identical no matter which worker climbs it, in what
    /// order, or alongside which other keys. That independence is what makes
    /// the parallel profiling pipeline byte-identical to the sequential one.
    pub fn fork_for_key(&self, key: &OpKey) -> Measurer {
        Measurer::new(self.cost.clone(), self.noise, per_key_seed(self.seed, key))
    }

    /// Folds `n` measurements taken by forked measurers back into this
    /// measurer's cost accounting (the forks' counters die with them).
    pub fn absorb(&mut self, n: u64) {
        self.measurements += n;
    }

    /// The ground-truth cost model (used by executors to derive *actual*
    /// durations; profilers must go through [`Measurer::measure`] instead).
    pub fn cost_model(&self) -> &KnlCostModel {
        &self.cost
    }

    /// One noisy standalone measurement.
    pub fn measure(&mut self, profile: &WorkProfile, threads: u32, mode: SharingMode) -> f64 {
        self.measurements += 1;
        let t = self.cost.solo_time(profile, threads, mode);
        self.noise.observe(t, &mut self.rng)
    }

    /// The mean of `samples` noisy measurements — what a profiling step
    /// observes for an op key that has `samples` instances in the graph
    /// (each instance is one observation of the same configuration).
    pub fn measure_averaged(
        &mut self,
        profile: &WorkProfile,
        threads: u32,
        mode: SharingMode,
        samples: usize,
    ) -> f64 {
        let samples = samples.clamp(1, 32);
        let mut total = 0.0;
        for _ in 0..samples {
            total += self.measure(profile, threads, mode);
        }
        total / samples as f64
    }

    /// The exact (noise-free) time — ground truth for accuracy evaluation.
    pub fn true_time(&self, profile: &WorkProfile, threads: u32, mode: SharingMode) -> f64 {
        self.cost.solo_time(profile, threads, mode)
    }

    /// Number of measurements taken so far (profiling cost accounting).
    pub fn measurements_taken(&self) -> u64 {
        self.measurements
    }

    /// Maximum threads the machine supports with one context per core.
    pub fn max_threads(&self) -> u32 {
        self.cost.topology().num_cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{OpKind, Shape};

    fn small_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let a = g.add_op(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32), &[]);
        let _b = g.add_op(OpKind::Relu, Shape::nhwc(8, 16, 16, 32), &[a]);
        let _c = g.add_op(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32), &[a]);
        g
    }

    #[test]
    fn catalog_dedups_keys() {
        let g = small_graph();
        let cat = OpCatalog::new(&g);
        assert_eq!(cat.keys().len(), 2, "two Conv2D instances share one key");
        assert!(cat
            .profile_of_key(&(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32)))
            .is_some());
        assert!(cat.profile_of_key(&(OpKind::Mul, Shape::vec1(1))).is_none());
    }

    #[test]
    fn measurement_is_noisy_but_near_truth() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 42);
        let truth = m.true_time(&prof, 16, SharingMode::Compact);
        let mut sum = 0.0;
        for _ in 0..200 {
            sum += m.measure(&prof, 16, SharingMode::Compact);
        }
        let mean = sum / 200.0;
        assert!((mean - truth).abs() / truth < 0.05);
        assert_eq!(m.measurements_taken(), 200);
    }

    #[test]
    fn noiseless_measurer_is_exact() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 0);
        assert_eq!(
            m.measure(&prof, 8, SharingMode::Scatter),
            m.true_time(&prof, 8, SharingMode::Scatter)
        );
    }

    #[test]
    fn forked_measurers_are_order_and_history_independent() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let key = cat.keys()[0].clone();
        let other = cat.keys()[1].clone();

        // Fork after different amounts of parent history: same stream.
        let mut a = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 7);
        let b = a.fork_for_key(&key);
        for _ in 0..5 {
            a.measure(&prof, 4, SharingMode::Compact);
        }
        let c = a.fork_for_key(&key);
        let (mut b, mut c) = (b, c);
        for p in 1..10 {
            assert_eq!(
                b.measure(&prof, p, SharingMode::Compact),
                c.measure(&prof, p, SharingMode::Compact),
                "a key's fork must not depend on the parent's history"
            );
        }

        // Different keys get decorrelated streams.
        let mut d = a.fork_for_key(&other);
        let mut e = a.fork_for_key(&key);
        let x = d.measure(&prof, 4, SharingMode::Compact);
        let y = e.measure(&prof, 4, SharingMode::Compact);
        assert_ne!(x, y, "distinct keys must draw distinct noise");

        // Fork counters fold back explicitly, not implicitly.
        let taken_before = a.measurements_taken();
        a.absorb(d.measurements_taken());
        assert_eq!(a.measurements_taken(), taken_before + 1);
    }

    #[test]
    fn determinism_under_seed() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let mut a = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 7);
        let mut b = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 7);
        for p in 1..20 {
            assert_eq!(
                a.measure(&prof, p, SharingMode::Compact),
                b.measure(&prof, p, SharingMode::Compact)
            );
        }
    }
}
