//! Machine identity for persisted profiles.
//!
//! Hill-climb curves measured on one machine are only valid on machines with
//! the same topology and cost-model calibration. [`MachineSignature`] folds
//! both into a 64-bit fingerprint so a profile store can key curves by the
//! machine they were measured on and refuse to warm-start a job on different
//! hardware.

use crate::cost::KnlParams;
use crate::hash::{fnv1a64_update, FNV1A64_OFFSET};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Fingerprint of a simulated machine: topology + cost-model parameters.
///
/// Two cost models produce the same signature iff every topology count and
/// every calibration constant is bit-identical, so a signature match means
/// measured curves transfer exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineSignature(pub u64);

impl MachineSignature {
    /// Computes the signature of a machine description.
    pub fn of(topo: &Topology, params: &KnlParams) -> Self {
        let mut h = FNV1A64_OFFSET;
        // Domain tag: a KNL signature can never collide with a GPU one even
        // if the hashed numbers happen to coincide.
        fnv1a64_update(&mut h, b"knl");
        for n in [topo.tiles, topo.cores_per_tile, topo.smt_per_core] {
            fnv1a64_update(&mut h, &n.to_le_bytes());
        }
        for f in [
            params.core_peak_flops,
            params.single_thread_bw,
            params.mcdram_bw,
            params.spawn_cost,
            params.barrier_cost,
            params.smt_thrash,
            params.sat_exponent,
            params.sharing_gain,
            params.reconfig_cost,
            params.bw_interference,
            params.cache_interference,
        ] {
            fnv1a64_update(&mut h, &f.to_bits().to_le_bytes());
        }
        for f in params.smt_peak {
            fnv1a64_update(&mut h, &f.to_bits().to_le_bytes());
        }
        MachineSignature(h)
    }

    /// Computes the signature of a GPU device from its topology: streaming
    /// multiprocessors, FP32 cores per SM, L2 capacity, and HBM bandwidth.
    ///
    /// The byte stream is domain-tagged, so a GPU signature can never equal
    /// a KNL signature — curves fitted on one device class are invisible to
    /// the other even in a store shared by a mixed fleet.
    pub fn of_gpu(sms: u32, cores_per_sm: u32, l2_bytes: u64, hbm_bw: f64) -> Self {
        let mut h = FNV1A64_OFFSET;
        fnv1a64_update(&mut h, b"gpu");
        for n in [sms, cores_per_sm] {
            fnv1a64_update(&mut h, &n.to_le_bytes());
        }
        fnv1a64_update(&mut h, &l2_bytes.to_le_bytes());
        fnv1a64_update(&mut h, &hbm_bw.to_bits().to_le_bytes());
        MachineSignature(h)
    }

    /// Computes the signature of a multi-node training cluster: the member
    /// machine's signature plus the replica count and the interconnect's
    /// latency/bandwidth calibration.
    ///
    /// Domain-tagged like [`MachineSignature::of_gpu`]: curves profiled by a
    /// cluster head (whose step times embed gradient-synchronization
    /// effects) never warm-start a single-node job of the same device
    /// class, and vice versa.
    pub fn of_cluster(member: MachineSignature, nodes: u32, latency: f64, bandwidth: f64) -> Self {
        let mut h = FNV1A64_OFFSET;
        fnv1a64_update(&mut h, b"clu");
        fnv1a64_update(&mut h, &member.0.to_le_bytes());
        fnv1a64_update(&mut h, &nodes.to_le_bytes());
        for f in [latency, bandwidth] {
            fnv1a64_update(&mut h, &f.to_bits().to_le_bytes());
        }
        MachineSignature(h)
    }
}

impl fmt::Display for MachineSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_machines_share_a_signature() {
        let a = MachineSignature::of(&Topology::knl(), &KnlParams::default());
        let b = MachineSignature::of(&Topology::knl(), &KnlParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn topology_and_params_both_matter() {
        let base = MachineSignature::of(&Topology::knl(), &KnlParams::default());
        let small = MachineSignature::of(&Topology::tiny(4), &KnlParams::default());
        assert_ne!(base, small);

        let mut params = KnlParams::default();
        params.mcdram_bw *= 2.0;
        let fat = MachineSignature::of(&Topology::knl(), &params);
        assert_ne!(base, fat);
    }

    #[test]
    fn gpu_signatures_hash_every_topology_field() {
        let p100 = MachineSignature::of_gpu(56, 64, 4 << 20, 732e9);
        assert_eq!(p100, MachineSignature::of_gpu(56, 64, 4 << 20, 732e9));
        assert_ne!(p100, MachineSignature::of_gpu(80, 64, 4 << 20, 732e9));
        assert_ne!(p100, MachineSignature::of_gpu(56, 32, 4 << 20, 732e9));
        assert_ne!(p100, MachineSignature::of_gpu(56, 64, 6 << 20, 732e9));
        assert_ne!(p100, MachineSignature::of_gpu(56, 64, 4 << 20, 900e9));
    }

    #[test]
    fn cluster_signatures_separate_by_every_field() {
        let knl = MachineSignature::of(&Topology::knl(), &KnlParams::default());
        let c = MachineSignature::of_cluster(knl, 4, 1.3e-6, 8.0e9);
        assert_eq!(c, MachineSignature::of_cluster(knl, 4, 1.3e-6, 8.0e9));
        assert_ne!(c, knl, "a cluster of KNLs is not a KNL");
        assert_ne!(c, MachineSignature::of_cluster(knl, 8, 1.3e-6, 8.0e9));
        assert_ne!(c, MachineSignature::of_cluster(knl, 4, 2.6e-6, 8.0e9));
        assert_ne!(c, MachineSignature::of_cluster(knl, 4, 1.3e-6, 1.0e10));
    }

    #[test]
    fn gpu_and_knl_domains_never_collide() {
        // Same leading bytes would hash identically without the domain tag;
        // with it, the device classes partition the signature space.
        let knl = MachineSignature::of(&Topology::knl(), &KnlParams::default());
        let gpu = MachineSignature::of_gpu(56, 64, 4 << 20, 732e9);
        assert_ne!(knl, gpu);
    }

    #[test]
    fn displays_as_16_hex_digits() {
        let s = MachineSignature::of(&Topology::knl(), &KnlParams::default());
        let text = s.to_string();
        assert_eq!(text.len(), 16);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
