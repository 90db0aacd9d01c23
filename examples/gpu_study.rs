//! The paper's Section VII preliminary GPU study, end to end: tune both
//! intra-op parallelism dimensions of a P100 launch configuration for the
//! five studied ops, and measure the benefit of co-running two instances
//! on two CUDA streams.
//!
//! Run with: `cargo run --release --example gpu_study`

use nnrt::gpu::{
    gpu_op, simulate_streams, tune_exhaustive, tune_independent, GpuModel, GpuOpKind, LaunchConfig,
    StreamLaunch,
};

fn main() {
    let m = GpuModel::p100();
    let default = LaunchConfig::tf_default();
    println!(
        "device: {} SMs, {:.1} Tflop/s FP32, {:.0} GB/s HBM2\n",
        m.spec().sms,
        m.spec().peak_flops() / 1e12,
        m.spec().hbm_bw / 1e9
    );

    for kind in GpuOpKind::ALL {
        let k = gpu_op(kind);
        let t_default = m.time(&k, default);

        // Exhaustive 2-D search (the search space the paper's future work
        // wants to shrink to O(2n) by treating the axes independently).
        let best = tune_exhaustive(&m, &k);
        // The paper's dimensional-independence observation: climbing each
        // axis separately (O(2n)) should land near the joint optimum.
        let independent = tune_independent(&m, &k);

        // Table VII: two instances on two streams vs one after the other.
        let pair = [StreamLaunch {
            kernel: k,
            config: default,
        }; 2];
        let corun = simulate_streams(&m, &pair, &[vec![], vec![]], 2, f64::INFINITY).makespan;

        println!("{}:", kind.name());
        println!(
            "  default (1024 t/b, 56 blocks): {:.1} us   joint best ({} t/b, {} blocks): {:.1} us ({:+.1}%)",
            t_default * 1e6,
            best.config.threads_per_block,
            best.config.num_blocks,
            best.secs * 1e6,
            (t_default / best.secs - 1.0) * 100.0
        );
        println!(
            "  independent-axis search ({} evals) lands within {:.1}% of the joint best ({} evals)",
            independent.evaluations,
            (independent.secs / best.secs - 1.0) * 100.0,
            best.evaluations
        );
        println!(
            "  two-stream co-run speedup over serial: {:.2}x\n",
            2.0 * t_default / corun
        );
    }
}
