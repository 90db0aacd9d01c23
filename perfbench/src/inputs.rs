//! Seeded workload inputs. The seed decides job order, priorities, weights
//! and the cold shapes; the program only ever sees the generated jobs.
//!
//! Every workload has a fixed composition (each model equally often in
//! every priority class of every burst, and the same shapes whatever the
//! seed), so the amount of host work does not depend on the seed and runs
//! with different seeds stay comparable.

use nnrt_graph::DataflowGraph;
use std::sync::Arc;
use std::time::Instant;

/// The five `nnrt serve` models at the batch sizes its CLI uses.
pub const SERVE_MODELS: [(&str, usize); 5] = [
    ("resnet50", 16),
    ("dcgan", 16),
    ("inception", 4),
    ("lstm", 8),
    ("transformer", 4),
];

/// Small-batch shapes the rpc-live tenants submit.
pub const RPC_MODELS: [(&str, usize); 5] = [
    ("resnet50", 4),
    ("dcgan", 4),
    ("inception", 2),
    ("lstm", 2),
    ("transformer", 2),
];

/// Distinct job plans a fleet-warm run cycles through. Each plan is one
/// burst; the fleet's simulated throughput depends on which job lands on
/// which device class, so it is read over all plans together, not from one.
pub const PLANS: usize = 16;

/// Seeded job orders of a fleet-cold run. Each order runs as one plan per
/// model rotation (see [`fleet_cold`]), so a run cycles through
/// `COLD_ORDERS × 5` plans.
pub const COLD_ORDERS: usize = 8;

/// Priority classes; every block of jobs holds each model once per class.
const PRIORITIES: usize = 3;

/// Blocks per fleet-warm plan: 3 blocks of 15 jobs, 45 jobs per burst.
pub const WARM_BLOCKS: usize = 3;

/// Blocks per fleet-cold plan: 2 blocks of 15 jobs, so every plan has six
/// shapes of each model.
pub const COLD_BLOCKS: usize = 2;

/// Training steps of every fleet job.
pub const FLEET_STEPS: u32 = 3;

/// Training steps of every rpc-live job.
pub const RPC_STEPS: u32 = 2;

/// SplitMix64: a tiny, fully specified generator, so inputs depend on the
/// seed alone and never on a library version.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6E6E_7274_5045_5246)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One (model, batch) shape with its built graph.
pub struct Shape {
    pub model: &'static str,
    pub batch: usize,
    pub graph: Arc<DataflowGraph>,
    /// Wall time `nnrt_models::by_name` took to build it, seconds.
    pub build_secs: f64,
}

impl Shape {
    pub fn build(model: &'static str, batch: usize) -> Shape {
        let t = Instant::now();
        let spec = nnrt_models::by_name(model, Some(batch)).expect("built-in model name");
        let build_secs = t.elapsed().as_secs_f64();
        Shape {
            model,
            batch,
            graph: Arc::new(spec.graph),
            build_secs,
        }
    }

    pub fn label(&self) -> String {
        format!("{}@b{}", self.model, self.batch)
    }
}

/// One job of a workload, referring to its shape by index.
#[derive(Clone)]
pub struct JobPlan {
    pub name: String,
    pub shape: usize,
    pub steps: u32,
    pub priority: u8,
    pub weight: f64,
}

/// The generated inputs of a fleet workload: its shapes and its plans.
pub struct FleetInputs {
    pub shapes: Vec<Shape>,
    pub plans: Vec<Vec<JobPlan>>,
}

/// One job of a seeded order: the model, the model's `n`-th job in the
/// plan, its priority class and its weight.
#[derive(Clone, Copy)]
struct Slot {
    model: usize,
    n: usize,
    priority: usize,
    weight: f64,
}

/// A job order of `blocks` blocks. A block holds every model once in every
/// priority class, in seeded order, with seeded weights.
fn order(rng: &mut Rng, blocks: usize) -> Vec<Slot> {
    let models = SERVE_MODELS.len();
    let mut slots = Vec::with_capacity(blocks * models * PRIORITIES);
    for block in 0..blocks {
        let mut cells: Vec<(usize, usize)> = (0..models)
            .flat_map(|m| (0..PRIORITIES).map(move |p| (m, p)))
            .collect();
        rng.shuffle(&mut cells);
        for (model, priority) in cells {
            slots.push(Slot {
                model,
                n: block * PRIORITIES + priority,
                priority,
                weight: 1.0 + rng.below(4) as f64,
            });
        }
    }
    slots
}

/// The plan of `order` with every model `m` replaced by model
/// `(m + rotation) % 5`; `shape_of(model, n)` picks the shape of the
/// model's `n`-th job.
fn plan(
    order: &[Slot],
    rotation: usize,
    shapes: &[Shape],
    shape_of: impl Fn(usize, usize) -> usize,
) -> Vec<JobPlan> {
    let models = SERVE_MODELS.len();
    let mut jobs = Vec::with_capacity(order.len());
    for slot in order {
        let shape = shape_of((slot.model + rotation) % models, slot.n);
        jobs.push(JobPlan {
            name: format!("{}-{}", shapes[shape].label(), jobs.len()),
            shape,
            steps: FLEET_STEPS,
            priority: slot.priority as u8,
            weight: slot.weight,
        });
    }
    jobs
}

/// fleet-warm: the five serve shapes, `PLANS` seeded plans of
/// `WARM_BLOCKS` blocks.
pub fn fleet_warm(seed: u64) -> FleetInputs {
    let mut rng = Rng::new(seed);
    let shapes: Vec<Shape> = SERVE_MODELS
        .iter()
        .map(|&(m, b)| Shape::build(m, b))
        .collect();
    let plans = (0..PLANS)
        .map(|_| plan(&order(&mut rng, WARM_BLOCKS), 0, &shapes, |model, _| model))
        .collect();
    FleetInputs { shapes, plans }
}

/// fleet-cold: every job of a plan has a shape of its own, so every
/// placement in a fresh fleet profiles. Each model has six shapes, batches
/// 3, 6, …, 18, in every plan; the seed decides which job gets which.
///
/// A cold plan's makespan hangs on the few jobs that land on the GPU node,
/// whose cold profiling costs up to twenty times the other classes' (most
/// of all inception's), so one plan's simulated throughput varies by about
/// 45% (coefficient of variation) with the job order. The plans are
/// therefore many and stratified: each seeded order runs five times, once
/// per rotation of the models through its slots, so every model takes every
/// queue position once per order. Over 16 seeds, the 40 plans' summed
/// `sim_steps_per_s` varied by 6%; over 24, the sum over 32 independent
/// orders had varied by 9%, and over 16 by 12%.
pub fn fleet_cold(seed: u64) -> FleetInputs {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let per_model = COLD_BLOCKS * PRIORITIES;
    let shapes: Vec<Shape> = SERVE_MODELS
        .iter()
        .flat_map(|&(model, _)| (0..per_model).map(move |n| Shape::build(model, 3 + 3 * n)))
        .collect();
    let mut plans = Vec::with_capacity(COLD_ORDERS * SERVE_MODELS.len());
    for _ in 0..COLD_ORDERS {
        let mut order = order(&mut rng, COLD_BLOCKS);
        // Which of its shapes a model's job in a given slot gets is seeded
        // too, so a shape's priority and queue position vary by seed.
        for model in 0..SERVE_MODELS.len() {
            let mut ns: Vec<usize> = (0..per_model).collect();
            rng.shuffle(&mut ns);
            for slot in order.iter_mut().filter(|s| s.model == model) {
                slot.n = ns[slot.n];
            }
        }
        for rotation in 0..SERVE_MODELS.len() {
            plans.push(plan(&order, rotation, &shapes, |model, n| {
                model * per_model + n
            }));
        }
    }
    FleetInputs { shapes, plans }
}

/// The endless job stream of one rpc-live tenant: blocks of the five rpc
/// shapes in seeded order, so any prefix of whole blocks is balanced.
pub struct TenantStream {
    rng: Rng,
    block: Vec<usize>,
}

impl TenantStream {
    pub fn new(seed: u64, tenant: u64) -> Self {
        TenantStream {
            rng: Rng::new(seed ^ (tenant + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            block: Vec::new(),
        }
    }

    /// Index into [`RPC_MODELS`] of the next job, and its priority.
    pub fn next_job(&mut self) -> (usize, u8) {
        if self.block.is_empty() {
            self.block = (0..RPC_MODELS.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        let shape = self.block.pop().expect("refilled above");
        (shape, self.rng.below(3) as u8)
    }
}
