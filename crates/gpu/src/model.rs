//! The P100 occupancy model.

use serde::{Deserialize, Serialize};

/// Static device description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Streaming multiprocessors (P100: 56).
    pub sms: u32,
    /// FP32 cores per SM (P100: 64).
    pub cores_per_sm: u32,
    /// Maximum resident threads per SM (2048).
    pub max_threads_per_sm: u32,
    /// Hardware maximum threads per block (1024); larger requests serialize.
    pub max_threads_per_block: u32,
    /// Unified L2 cache capacity, bytes (P100: 4 MB). The occupancy model
    /// does not time L2 explicitly, but the capacity is part of the device's
    /// identity: profiles fitted on a different cache do not transfer.
    pub l2_bytes: u64,
    /// Core clock, Hz.
    pub clock: f64,
    /// HBM2 bandwidth, bytes/s.
    pub hbm_bw: f64,
    /// Kernel launch latency, seconds.
    pub launch_overhead: f64,
    /// Per-block scheduling cost, seconds.
    pub block_overhead: f64,
    /// Resident threads at which bandwidth reaches half saturation.
    pub bw_half_saturation: f64,
    /// Resident warps per SM at which latency hiding reaches ~50%.
    pub warp_half_saturation: f64,
    /// Fraction of peak HBM bandwidth a *single* kernel's access pattern can
    /// reach — the chip can serve more in aggregate, which is why co-running
    /// two bandwidth-bound kernels on two streams still pays off (Table VII).
    pub kernel_bw_ceiling: f64,
    /// Inefficiency factor on the SM-slot footprint when two streams share
    /// the device (scheduling friction).
    pub stream_friction: f64,
}

impl GpuSpec {
    /// A Tesla P100 (the paper's device).
    pub fn p100() -> Self {
        GpuSpec {
            sms: 56,
            cores_per_sm: 64,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            l2_bytes: 4 << 20,
            clock: 1.3e9,
            hbm_bw: 732e9,
            launch_overhead: 5e-6,
            block_overhead: 0.01e-6,
            bw_half_saturation: 600.0,
            warp_half_saturation: 10.0,
            kernel_bw_ceiling: 0.55,
            stream_friction: 1.12,
        }
    }

    /// Peak FP32 throughput (flop/s), counting FMA as two.
    pub fn peak_flops(&self) -> f64 {
        self.sms as f64 * self.cores_per_sm as f64 * self.clock * 2.0
    }

    /// The device's identity for persisted profiles: launch-config curves
    /// fitted on this device are keyed under this signature in a shared
    /// [`ProfileStore`](https://docs.rs/nnrt-serve), next to (and never
    /// mixed with) KNL thread-count curves.
    pub fn signature(&self) -> nnrt_manycore::MachineSignature {
        nnrt_manycore::MachineSignature::of_gpu(
            self.sms,
            self.cores_per_sm,
            self.l2_bytes,
            self.hbm_bw,
        )
    }
}

/// A kernel launch configuration — the paper's two intra-op parallelism
/// dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Requested threads per block (TensorFlow default: 1024). Values above
    /// the hardware maximum serialize inside the block.
    pub threads_per_block: u32,
    /// Number of thread blocks (TensorFlow default: one per SM, 56).
    pub num_blocks: u32,
}

impl LaunchConfig {
    /// TensorFlow's default on the paper's platform.
    pub fn tf_default() -> Self {
        LaunchConfig {
            threads_per_block: 1024,
            num_blocks: 56,
        }
    }
}

/// The occupancy-level timing model.
#[derive(Debug, Clone)]
pub struct GpuModel {
    spec: GpuSpec,
}

impl GpuModel {
    /// Model over a P100.
    pub fn p100() -> Self {
        GpuModel {
            spec: GpuSpec::p100(),
        }
    }

    /// Model over a custom device.
    pub fn new(spec: GpuSpec) -> Self {
        GpuModel { spec }
    }

    /// The device description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Fraction of the device a launch engages: wave balance across SMs ×
    /// latency hiding from resident warps.
    pub fn utilization(&self, cfg: LaunchConfig) -> f64 {
        let s = &self.spec;
        let tpb_eff = cfg.threads_per_block.clamp(1, s.max_threads_per_block);
        let nb = cfg.num_blocks.max(1);
        // Wave balance: 57 blocks on 56 SMs run as badly as 112.
        let waves = nb.div_ceil(s.sms);
        let wave_eff = nb as f64 / (waves * s.sms) as f64;

        // Latency hiding: resident warps per active SM.
        let blocks_per_sm = nb
            .div_ceil(s.sms)
            .min((s.max_threads_per_sm / tpb_eff).max(1));
        let warps = (blocks_per_sm * tpb_eff.div_ceil(32)).min(64) as f64;
        let latency_hiding = warps / (warps + self.spec.warp_half_saturation);
        wave_eff * latency_hiding
    }

    /// Effective bandwidth fraction: enough threads in flight are needed to
    /// keep HBM busy.
    pub fn bandwidth_fraction(&self, cfg: LaunchConfig) -> f64 {
        let s = &self.spec;
        let tpb_eff = cfg.threads_per_block.clamp(1, s.max_threads_per_block) as f64;
        let resident =
            (cfg.num_blocks.max(1) as f64 * tpb_eff).min((s.sms * s.max_threads_per_sm) as f64);
        resident / (resident + s.bw_half_saturation)
    }

    /// Execution time of `kernel` under `cfg`, seconds.
    pub fn time(&self, kernel: &crate::ops::GpuKernel, cfg: LaunchConfig) -> f64 {
        let s = &self.spec;
        assert!(
            cfg.threads_per_block >= 1 && cfg.num_blocks >= 1,
            "degenerate launch config"
        );
        let u = self.utilization(cfg).max(1e-6);
        let t_compute = kernel.flops / (s.peak_flops() * kernel.eff * u);
        let t_mem = kernel.bytes / (s.hbm_bw * s.kernel_bw_ceiling * self.bandwidth_fraction(cfg));
        // Oversized logical blocks (the paper sweeps threads/block to 16384,
        // 16x the hardware maximum) grid-stride inside the SM: a couple of
        // doublings amortize block scheduling and improve locality — the
        // paper's Figure 5a finds the default (1024) up to 18% away from the
        // best — before the serial tail costs again at 16x.
        let x = (cfg.threads_per_block as f64 / s.max_threads_per_block as f64)
            .max(1.0)
            .log2();
        let granularity = 1.0 + 0.035 * x * (x - 4.0);
        // Block-tail imbalance: with one wave of coarse blocks the kernel
        // waits for its slowest block; many small waves smooth the tail out
        // (the paper's Figure 5b finds the 56-block default ~11% away from
        // the best block count).
        let waves = cfg.num_blocks.div_ceil(s.sms) as f64;
        let imbalance = 1.0 + 0.1 / waves;
        let overhead = s.launch_overhead + s.block_overhead * cfg.num_blocks as f64;
        t_compute.max(t_mem) * granularity * imbalance + overhead
    }

    /// Device-resource demand of a launch, in `(0, 1]` — the largest of the
    /// raw compute share, the chip-bandwidth share, and the (friction-scaled)
    /// SM-slot footprint. Two streams contend for whatever this runs out of.
    pub fn demand(&self, kernel: &crate::ops::GpuKernel, cfg: LaunchConfig) -> f64 {
        let s = &self.spec;
        let t = self.time(kernel, cfg);
        let compute_share = kernel.flops / s.peak_flops() / t;
        let bw_share = kernel.bytes / s.hbm_bw / t;
        let tpb_eff = cfg.threads_per_block.clamp(1, s.max_threads_per_block) as f64;
        let slots =
            (cfg.num_blocks as f64 * tpb_eff) / (s.sms as f64 * s.max_threads_per_sm as f64);
        let slot_share = s.stream_friction * slots.min(1.0);
        compute_share.max(bw_share).max(slot_share).clamp(0.0, 1.0)
    }

    /// Makespan of two kernels launched simultaneously on two CUDA streams.
    ///
    /// While both run, each proceeds at full speed if their combined demand
    /// fits the device, and is scaled down proportionally otherwise; when the
    /// shorter finishes, the longer runs alone.
    pub fn corun_span(
        &self,
        a: (&crate::ops::GpuKernel, LaunchConfig),
        b: (&crate::ops::GpuKernel, LaunchConfig),
    ) -> f64 {
        let ta = self.time(a.0, a.1);
        let tb = self.time(b.0, b.1);
        let da = self.demand(a.0, a.1);
        let db = self.demand(b.0, b.1);
        let contention = (da + db).max(1.0); // both slow down by this factor
        let (short, long) = if ta <= tb { (ta, tb) } else { (tb, ta) };
        // Shorter stream finishes at short*contention; the longer has
        // progressed short/contention... of its work by then, then finishes
        // alone.
        let t_first = short * contention;
        let progressed = short; // solo-seconds of the longer stream done
        t_first + (long - progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gpu_op, GpuOpKind};

    #[test]
    fn default_config_is_not_optimal_over_tpb() {
        // Figure 5a: sweeping threads/block moves BiasAdd's time by >= 10%.
        let m = GpuModel::p100();
        let k = gpu_op(GpuOpKind::BiasAdd);
        let grid = [64u32, 128, 1024, 2048, 4096, 16384];
        let times: Vec<f64> = grid
            .iter()
            .map(|&tpb| {
                m.time(
                    &k,
                    LaunchConfig {
                        threads_per_block: tpb,
                        num_blocks: 56,
                    },
                )
            })
            .collect();
        let t_default = times[2];
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let delta = t_default / best - 1.0;
        assert!(delta > 0.05, "default should be beatable, got {delta:.3}");
        assert!(delta < 0.40, "but not absurdly so, got {delta:.3}");
    }

    #[test]
    fn block_count_sweep_is_mild_for_memory_bound_ops() {
        // Figure 5b: ~11% spread over block counts for bandwidth-bound ops.
        let m = GpuModel::p100();
        let k = gpu_op(GpuOpKind::MaxPooling);
        let grid = [14u32, 56, 112, 224, 896];
        let times: Vec<f64> = grid
            .iter()
            .map(|&nb| {
                m.time(
                    &k,
                    LaunchConfig {
                        threads_per_block: 1024,
                        num_blocks: nb,
                    },
                )
            })
            .collect();
        let worst = times.iter().cloned().fold(0.0, f64::max);
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let spread = worst / best - 1.0;
        assert!(
            (0.03..0.5).contains(&spread),
            "block-count spread should be mild, got {spread:.3}"
        );
    }

    #[test]
    fn corun_speedups_match_table7_band() {
        let m = GpuModel::p100();
        for kind in GpuOpKind::ALL {
            let k = gpu_op(kind);
            let cfg = LaunchConfig::tf_default();
            let s = 2.0 * m.time(&k, cfg) / m.corun_span((&k, cfg), (&k, cfg));
            assert!(
                (1.4..=2.0).contains(&s),
                "{kind:?}: co-run speedup {s:.2} outside the paper's band"
            );
        }
    }

    #[test]
    fn utilization_sane() {
        let m = GpuModel::p100();
        let full = m.utilization(LaunchConfig::tf_default());
        let tiny = m.utilization(LaunchConfig {
            threads_per_block: 32,
            num_blocks: 1,
        });
        assert!(full > tiny);
        assert!(full <= 1.0 && tiny > 0.0);
        // 57 blocks schedule as two waves: worse than 56.
        let w56 = m.utilization(LaunchConfig {
            threads_per_block: 256,
            num_blocks: 56,
        });
        let w57 = m.utilization(LaunchConfig {
            threads_per_block: 256,
            num_blocks: 57,
        });
        assert!(w57 < w56);
    }

    #[test]
    fn demand_bounded() {
        let m = GpuModel::p100();
        for kind in GpuOpKind::ALL {
            let d = m.demand(&gpu_op(kind), LaunchConfig::tf_default());
            assert!((0.0..=1.0).contains(&d), "{kind:?}: demand {d}");
        }
    }

    #[test]
    #[should_panic(expected = "degenerate launch config")]
    fn zero_blocks_panics() {
        let m = GpuModel::p100();
        m.time(
            &gpu_op(GpuOpKind::BiasAdd),
            LaunchConfig {
                threads_per_block: 0,
                num_blocks: 0,
            },
        );
    }
}
