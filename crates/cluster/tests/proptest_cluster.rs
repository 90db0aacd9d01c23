//! Property tests for the cluster layer's communication model: the chunked
//! streaming ring all-reduce must be a pure refinement of the unchunked one
//! — same makespan, same wire bytes, for every chunk count — and the event
//! simulator built on it must keep the wire volume a property of the model,
//! not of the scheduling policy.

use nnrt_cluster::{simulate_data_parallel, ClusterConfig, ClusterStrategy, Interconnect};
use nnrt_sched::{Runtime, RuntimeConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunking changes *when* intermediate results land, never the total:
    /// the last chunk of the streamed reduce completes exactly when the
    /// unchunked ring all-reduce would, and the injected bytes match.
    #[test]
    fn chunked_allreduce_is_invariant_under_chunk_count(
        bytes in 0.0f64..1e9,
        nodes in 1u32..=16,
        chunks in 1u32..=64,
    ) {
        let net = Interconnect::aries();
        let sched = net.ring_allreduce_chunked(bytes, nodes, chunks);
        let whole = net.ring_allreduce(bytes, nodes);
        prop_assert_eq!(sched.chunk_done.len(), chunks as usize);
        prop_assert!(
            (sched.makespan - whole).abs() <= 1e-9 * whole.max(1e-30),
            "makespan must not depend on chunking: {} vs {}", sched.makespan, whole
        );
        prop_assert!(
            (sched.wire_bytes - net.ring_wire_bytes(bytes, nodes)).abs() <= 1e-6,
            "wire bytes must not depend on chunking"
        );
        // Completion times are nondecreasing and end at the makespan.
        for pair in sched.chunk_done.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        prop_assert_eq!(*sched.chunk_done.last().unwrap(), sched.makespan);
    }

    /// More participants never make a single node inject fewer bytes, and
    /// the volume stays below the well-known 2x payload bound.
    #[test]
    fn ring_wire_bytes_grow_monotonically_toward_twice_payload(
        bytes in 1.0f64..1e9,
        nodes in 2u32..=32,
    ) {
        let net = Interconnect::aries();
        let here = net.ring_wire_bytes(bytes, nodes);
        let more = net.ring_wire_bytes(bytes, nodes + 1);
        prop_assert!(here <= more);
        prop_assert!(here < 2.0 * bytes);
    }
}

proptest! {
    // The full simulator is expensive per case; a few cases cover the
    // chunk-count axis well since the schedule is deterministic.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The simulated step's wire volume depends only on the model's
    /// gradients — never on chunking — and the step never finishes before
    /// its compute or its exposed communication would allow.
    #[test]
    fn simulated_step_conserves_wire_bytes_across_chunkings(
        chunks in 1u32..=16,
        nodes in 2u32..=8,
    ) {
        let g = nnrt_models::dcgan(1).graph;
        let rt = Runtime::prepare(&g, nnrt_manycore::KnlCostModel::knl(), RuntimeConfig::default());
        let secs = nnrt_cluster::per_op_secs(&g, rt.run_step(&g).total_secs);
        let cfg = ClusterConfig {
            nodes,
            chunks,
            strategy: ClusterStrategy::CriticalPath,
            ..ClusterConfig::default()
        };
        let report = simulate_data_parallel(&g, &secs, &cfg);
        let param_bytes: f64 = nnrt_graph::grad_param_bindings(&g).iter().map(|b| b.bytes).sum();
        let expected = nnrt_cluster::Interconnect::aries().ring_wire_bytes(param_bytes, nodes);
        prop_assert!(
            (report.bytes_on_wire - expected).abs() / expected < 1e-9,
            "wire bytes must equal the analytic ring volume: {} vs {}",
            report.bytes_on_wire, expected
        );
        // The event clock sums durations in schedule order, the reference
        // in graph order — allow for the differing f64 associativity.
        let compute: f64 = secs.iter().sum();
        prop_assert!(report.makespan_secs >= compute * (1.0 - 1e-12));
        prop_assert!(
            report.makespan_secs
                >= (report.comm_secs - report.hidden_comm_secs) * (1.0 - 1e-12)
        );
        prop_assert!((0.0..=1.0).contains(&report.overlap_fraction));
    }
}
