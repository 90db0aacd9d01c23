//! Pins the stream runtime's simulated times: whole-model steps of the five
//! paper models under each stream strategy, and Table VII's two-kernel
//! co-runs. The runtime is deterministic f64 arithmetic, so a change to its
//! event loop shows up here as a moved number.

use nnrt_gpu::{
    gpu_op, simulate_streams, GpuModel, GpuOpKind, GpuRuntime, GpuRuntimeConfig, GpuSpec,
    GpuStrategy, LaunchConfig, StreamLaunch,
};

/// `(model, [Serial, Static{2}, default])` step seconds at batch 4.
const STEP_PINS: [(&str, [f64; 3]); 5] = [
    (
        "resnet50",
        [
            0.018815332698905396,
            0.016037969439709514,
            0.016556554024981452,
        ],
    ),
    (
        "dcgan",
        [
            0.003362918599293455,
            0.0027472865314059087,
            0.0025948505834016557,
        ],
    ),
    (
        "inception",
        [0.0645665901932385, 0.0554208706214869, 0.059226632219564736],
    ),
    (
        "lstm",
        [
            0.007977753589158578,
            0.004476026564144559,
            0.002912260422239344,
        ],
    ),
    (
        "transformer",
        [0.09092961842854952, 0.08202101999415594, 0.0832350183440867],
    ),
];

#[test]
fn whole_model_steps_are_pinned_and_serial_matches_the_solo_sum() {
    let strategies = [
        GpuStrategy::Serial,
        GpuStrategy::Static { streams: 2 },
        GpuStrategy::default(),
    ];
    for (name, pins) in STEP_PINS {
        let graph = nnrt_models::by_name(name, Some(4)).unwrap().graph;
        for (strategy, want) in strategies.into_iter().zip(pins) {
            let config = GpuRuntimeConfig {
                strategy,
                ..GpuRuntimeConfig::default()
            };
            let report = GpuRuntime::prepare(&graph, GpuSpec::p100(), config).run_step(&graph);
            assert!(
                (report.total_secs - want).abs() <= 1e-12 * want,
                "{name} {strategy:?}: step {} vs pinned {want}",
                report.total_secs
            );
            if strategy == GpuStrategy::Serial {
                // One stream runs every kernel alone: the closed form.
                assert_eq!(report.total_secs, report.serial_secs, "{name}");
            }
        }
    }
}

/// `(op, [serial, two-stream])` makespans of two identical kernels at the
/// TF-default launch, as bits.
const CORUN_PINS: [(GpuOpKind, [u64; 2]); 5] = [
    (
        GpuOpKind::Conv2DBackpropFilter,
        [0x3f9151cdb898e9d7, 0x3f8365dc2ae8b3fc],
    ),
    (
        GpuOpKind::Conv2DBackpropInput,
        [0x3f8f2d6df2b448ef, 0x3f817599bb1d4791],
    ),
    (GpuOpKind::Conv2D, [0x3f8c585fff93630c, 0x3f7fbf23d69097e5]),
    (GpuOpKind::BiasAdd, [0x3f2604ca90d0784c, 0x3f18a934cb26ed23]),
    (
        GpuOpKind::MaxPooling,
        [0x3f1b96a65642332b, 0x3f0ee62aeff83950],
    ),
];

#[test]
fn table7_two_kernel_coruns_are_pinned_exactly() {
    let model = GpuModel::p100();
    for (kind, [serial, streamed]) in CORUN_PINS {
        let launch = StreamLaunch {
            kernel: gpu_op(kind),
            config: LaunchConfig::tf_default(),
        };
        let pair = [launch, launch];
        let deps = [vec![], vec![]];
        let one = simulate_streams(&model, &pair, &deps, 1, f64::INFINITY).makespan;
        let two = simulate_streams(&model, &pair, &deps, 2, f64::INFINITY).makespan;
        assert_eq!(one.to_bits(), serial, "{kind:?} serial");
        assert_eq!(two.to_bits(), streamed, "{kind:?} two streams");
    }
}
