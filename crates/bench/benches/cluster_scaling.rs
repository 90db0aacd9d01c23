//! Section V (multi-KNL), quantified: the paper discusses data and model
//! parallelism qualitatively and leaves evaluation as future work. This
//! bench runs both regimes over 1/2/4/8 simulated KNLs and checks the two
//! claims: (1) under data parallelism the runtime's advantage over the
//! recommendation is preserved unchanged on every node; (2) under model
//! parallelism each node sees fewer ready operations, so Strategy 3's
//! co-running opportunity shrinks.
//!
//! Data-parallel steps run on the event simulator's synchronous baseline
//! (`ClusterStrategy::NoOverlap`, one fused all-reduce after the backward
//! pass). Microbatch pipelining and comm/compute overlap live in the
//! `cluster_overlap` bench.

use nnrt_bench::{ExperimentRecord, Table};
use nnrt_cluster::{
    partition_graph, per_op_secs, simulate_data_parallel, ClusterConfig, ClusterStrategy,
};
use nnrt_manycore::KnlCostModel;
use nnrt_sched::{CorunStats, OpCatalog, Runtime, RuntimeConfig, TfExecutor, TfExecutorConfig};

fn main() {
    let mut record = ExperimentRecord::new(
        "cluster_scaling",
        "Multi-KNL data/model parallelism (the paper's Section V)",
    );

    // --- Data parallelism: DCGAN, global batch 64 ---
    let mut t = Table::new([
        "nodes",
        "compute (ms)",
        "all-reduce (ms)",
        "total (ms)",
        "runtime vs rec",
    ]);
    let knl = KnlCostModel::knl();
    for nodes in [1u32, 2, 4, 8] {
        // Every replica computes its shard, then one fused all-reduce runs
        // after the backward pass.
        let g = nnrt_models::dcgan(64 / nodes as usize).graph;
        let cfg = ClusterConfig {
            nodes,
            strategy: ClusterStrategy::NoOverlap,
            chunks: 1,
            ..ClusterConfig::default()
        };
        let ours_step = Runtime::prepare(&g, knl.clone(), RuntimeConfig::default())
            .run_step(&g)
            .total_secs;
        let rec_step = TfExecutor::new(TfExecutorConfig::recommendation())
            .run_step(&g, &OpCatalog::new(&g), &knl)
            .total_secs;
        let ours = simulate_data_parallel(&g, &per_op_secs(&g, ours_step), &cfg);
        let rec = simulate_data_parallel(&g, &per_op_secs(&g, rec_step), &cfg);
        let adv = rec.makespan_secs / ours.makespan_secs;
        t.row([
            nodes.to_string(),
            format!("{:.1}", ours.compute_secs * 1e3),
            format!("{:.2}", ours.comm_secs * 1e3),
            format!("{:.1}", ours.makespan_secs * 1e3),
            format!("{adv:.2}x"),
        ]);
        record.push(&format!("dp_advantage_{nodes}"), adv, f64::NAN);
    }
    t.print("Data parallelism (DCGAN, global batch 64, ring all-reduce over Aries)");

    // --- Model parallelism: Inception-v3 over partitions, one runtime each ---
    let g = nnrt_models::inception_v3(8).graph;
    let mut t = Table::new([
        "partitions",
        "sum of steps (ms)",
        "cut bytes (MB)",
        "avg co-running ops/node",
    ]);
    for nodes in [1u32, 2, 4, 8] {
        let parts = partition_graph(&g, nodes);
        let mut secs = 0.0;
        let mut corun = 0.0;
        for part in &parts {
            let mut rt = Runtime::prepare(&part.graph, knl.clone(), RuntimeConfig::default());
            rt.record_trace(true);
            let report = rt.run_step(&part.graph);
            secs += report.total_secs;
            corun += CorunStats::from_trace(&report.trace).avg_corunning;
        }
        let avg = corun / parts.len() as f64;
        let cut_bytes: f64 = parts.iter().map(|p| p.input_bytes).sum();
        t.row([
            nodes.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{:.1}", cut_bytes / 1e6),
            format!("{avg:.2}"),
        ]);
        record.push(&format!("mp_corun_{nodes}"), avg, f64::NAN);
    }
    t.print("Model parallelism (Inception-v3, contiguous pipeline partitions)");

    record.notes(
        "Claim 1 holds: the per-node runtime needs no changes and its \
         advantage over the recommendation persists (and grows - smaller \
         shards are overhead-dominated, which the runtime tunes away) at \
         every node count. Claim 2 is weak in our graphs: partitioning \
         shrinks the ready pool, but the optimizer fan-out in the tail \
         partition keeps average co-running roughly flat rather than \
         falling.",
    );
    record.write();
}
