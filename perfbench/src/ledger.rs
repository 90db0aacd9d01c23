//! The traced run's per-layer ledger.
//!
//! `Fleet::tick` is opaque from outside, so besides the spans around every
//! call the benchmark makes into the fleet or the server, the traced run
//! calls each lower layer's public function on the workload's own inputs:
//! one probe per (model, device class), on shapes the run placed there.
//! Each probe's time, weighted by how many jobs of the run fell in its
//! class, gives the layer's time per job; divided by the untraced wall time
//! per job it gives the layer's share. Whatever the probes do not explain is
//! `serve.unattributed_share` (negative when layers on different threads
//! overlap, as on rpc-live).

use crate::fleet::{self, LAYOUT};
use crate::inputs::{JobPlan, Shape};
use crate::outcome::Outcome;
use crate::rpc;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use nnrt_gpu::{GpuRuntime, GpuSpec};
use nnrt_manycore::{KnlCostModel, MachineSignature};
use nnrt_obs::{Clock, EventKind, Obs, ObsConfig};
use nnrt_rpc::{
    decode, encode, frame_bytes, frame_from_buf, DrainPolicy, FleetServer, Request, Response,
    RpcClient, ServerConfig, SubmitSpec,
};
use nnrt_sched::{KeyProfile, OpCatalog, ProfilerPool, Runtime};
use nnrt_serve::{
    encode_record, FleetConfig, JobPhase, JobStatus, Journal, JournalRecord, NodeBackend,
    ProfileStore,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit, better direction (the order of
/// `BENCHMARK.json`).
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("rpc.encode_us", "us", "lower"),
    ("rpc.decode_us", "us", "lower"),
    ("rpc.service_us_p50.submit", "us", "lower"),
    ("rpc.service_us_p90.submit", "us", "lower"),
    ("rpc.service_us_p50.status", "us", "lower"),
    ("rpc.service_us_p90.status", "us", "lower"),
    ("rpc.transport_us_p50", "us", "lower"),
    ("rpc.share", "ratio", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.tick_us_p50", "us", "lower"),
    ("serve.tick_ms_p99", "ms", "lower"),
    ("serve.tick_busy_share", "ratio", "lower"),
    ("serve.job_status_us", "us", "lower"),
    ("serve.report_ms", "ms", "lower"),
    ("serve.unattributed_share", "ratio", "lower"),
    ("store.lookup_us", "us", "lower"),
    ("store.insert_us", "us", "lower"),
    ("store.snapshot_ms", "ms", "lower"),
    ("store.restore_ms", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.share", "ratio", "lower"),
    ("journal.admit_us", "us", "lower"),
    ("journal.store_insert_us", "us", "lower"),
    ("journal.bytes_per_job", "bytes", "lower"),
    ("journal.share", "ratio", "lower"),
    ("sched.catalog_us", "us", "lower"),
    ("sched.prepare_warm_us", "us", "lower"),
    ("sched.profile_cold_ms", "ms", "lower"),
    ("sched.run_step_ms.resnet50", "ms", "lower"),
    ("sched.run_step_ms.dcgan", "ms", "lower"),
    ("sched.run_step_ms.inception", "ms", "lower"),
    ("sched.run_step_ms.lstm", "ms", "lower"),
    ("sched.run_step_ms.transformer", "ms", "lower"),
    ("sched.profiling_steps", "count", "lower"),
    ("sched.share", "ratio", "lower"),
    ("gpu.prepare_ms", "ms", "lower"),
    ("gpu.run_step_ms", "ms", "lower"),
    ("gpu.share", "ratio", "lower"),
    ("cluster.sim_us", "us", "lower"),
    ("cluster.share", "ratio", "lower"),
    ("models.build_ms", "ms", "lower"),
    ("graph.clone_us", "us", "lower"),
    ("models.share", "ratio", "lower"),
    ("obs.counter_add_ns", "ns", "lower"),
    ("obs.event_ns", "ns", "lower"),
    ("obs.expose_ms", "ms", "lower"),
    ("obs.events_per_job", "count", "lower"),
    ("obs.share", "ratio", "lower"),
    ("trace.overhead_jobs_per_s", "jobs/s", "higher"),
    ("trace.overhead_share", "ratio", "higher"),
    ("ledger.wall_us_per_job", "us", "lower"),
];

/// Repetitions of every probe; the fastest is kept, as the least disturbed
/// by other tenants of the host (the same reading the end-to-end timings
/// use).
const REPS: usize = 3;

/// Shapes probed per (model, device class); the class's cost is their mean.
const SHAPES_PER_CLASS: usize = 2;

/// Least wall time of `REPS` calls of `f`, seconds, and the last result.
fn time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let v = black_box(f());
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (
        secs.iter().copied().fold(f64::INFINITY, f64::min),
        last.expect("REPS > 0"),
    )
}

/// Mean time per call of `f` over `n` calls, seconds; fastest of `REPS`.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    time(|| {
        for i in 0..n {
            f(i);
        }
    })
    .0 / n as f64
}

fn signature(backend: NodeBackend, config: &FleetConfig) -> MachineSignature {
    let knl = KnlCostModel::knl().signature();
    match backend {
        NodeBackend::Knl => knl,
        NodeBackend::Gpu => GpuSpec::p100().signature(),
        NodeBackend::Cluster => MachineSignature::of_cluster(
            knl,
            config.cluster.nodes,
            config.cluster.network.latency,
            config.cluster.network.bandwidth,
        ),
    }
}

/// Host time, seconds, of each layer call one job of one (shape, device
/// class) costs, as the fleet makes them when it places the job.
#[derive(Clone, Copy, Default)]
struct Cost {
    clone: f64,
    catalog: f64,
    lookup: f64,
    /// The prepare the workload pays: warm from the store, or cold.
    prepare: f64,
    prepare_warm: f64,
    prepare_cold: f64,
    insert: f64,
    run_step: f64,
    cluster_sim: f64,
    journal_admit: f64,
    journal_insert: f64,
    journal_bytes: f64,
}

impl Cost {
    /// Mean of `costs`, each weighted by its job count; an unweighted mean
    /// when no job fell in any of them.
    fn weighted_mean(costs: &[(f64, Cost)]) -> Cost {
        let total: f64 = costs.iter().map(|(w, _)| w).sum();
        let f = |g: fn(&Cost) -> f64| -> f64 {
            if total > 0.0 {
                costs.iter().map(|(w, c)| w * g(c)).sum::<f64>() / total
            } else {
                costs.iter().map(|(_, c)| g(c)).sum::<f64>() / costs.len() as f64
            }
        };
        Cost {
            clone: f(|c| c.clone),
            catalog: f(|c| c.catalog),
            lookup: f(|c| c.lookup),
            prepare: f(|c| c.prepare),
            prepare_warm: f(|c| c.prepare_warm),
            prepare_cold: f(|c| c.prepare_cold),
            insert: f(|c| c.insert),
            run_step: f(|c| c.run_step),
            cluster_sim: f(|c| c.cluster_sim),
            journal_admit: f(|c| c.journal_admit),
            journal_insert: f(|c| c.journal_insert),
            journal_bytes: f(|c| c.journal_bytes),
        }
    }

    fn mean(costs: &[Cost]) -> Cost {
        Cost::weighted_mean(&costs.iter().map(|c| (1.0, *c)).collect::<Vec<_>>())
    }
}

/// The prepare a job pays given what the store had: cold, fully warm, or
/// (timed separately) partly warm.
fn pick_prepare(
    c: &Cost,
    warm: &[KeyProfile],
    exported: &[KeyProfile],
    partial: impl FnOnce() -> f64,
) -> f64 {
    if warm.is_empty() {
        c.prepare_cold
    } else if warm.len() == exported.len() {
        c.prepare_warm
    } else {
        partial()
    }
}

/// Calls each layer's public function for one job of `shape` on a node of
/// `backend`, against `store` as the fleet's shared store.
fn probe(
    shape: &Shape,
    backend: NodeBackend,
    store: &ProfileStore,
    config: &FleetConfig,
    journal: &mut Journal,
) -> Cost {
    let graph = &*shape.graph;
    let sig = signature(backend, config);
    let (clone, _) = time(|| graph.clone());
    let (catalog, cat) = time(|| OpCatalog::new(graph));
    let keys = cat.keys().to_vec();
    let (lookup, warm) = time(|| store.lookup(sig, &keys));
    let pool = || ProfilerPool::new(config.profile_threads);
    let mut c = Cost {
        clone,
        catalog,
        lookup,
        ..Cost::default()
    };
    let exported: Vec<KeyProfile> = match backend {
        NodeBackend::Gpu => {
            let prep = |w: &[KeyProfile]| {
                GpuRuntime::prepare_warm_pooled(
                    graph,
                    GpuSpec::p100(),
                    config.gpu,
                    w,
                    u32::MAX,
                    pool(),
                )
            };
            let (cold, rt) = time(|| prep(&[]));
            let exported = rt.profile().export();
            c.prepare_cold = cold;
            c.prepare_warm = time(|| prep(&exported)).0;
            c.prepare = pick_prepare(&c, &warm, &exported, || time(|| prep(&warm)).0);
            c.run_step = time(|| rt.run_step(graph)).0;
            exported
        }
        NodeBackend::Knl | NodeBackend::Cluster => {
            let prep = |w: &[KeyProfile]| {
                Runtime::prepare_warm_pooled(
                    graph,
                    KnlCostModel::knl(),
                    config.runtime,
                    w,
                    u32::MAX,
                    pool(),
                )
            };
            let (cold, rt) = time(|| prep(&[]));
            let exported = rt.model().export();
            c.prepare_cold = cold;
            c.prepare_warm = time(|| prep(&exported)).0;
            c.prepare = pick_prepare(&c, &warm, &exported, || time(|| prep(&warm)).0);
            let (run_step, step) = time(|| rt.run_step(graph));
            c.run_step = run_step;
            if backend == NodeBackend::Cluster {
                c.cluster_sim = time(|| {
                    let secs = nnrt_cluster::per_op_secs(graph, step.total_secs);
                    nnrt_cluster::simulate_data_parallel(graph, &secs, &config.cluster)
                })
                .0;
            }
            exported
        }
    };
    // A warm store already holds the keys (the fleet refreshes them); a
    // cold one gets them for the first time.
    c.insert = if warm.is_empty() {
        time(|| ProfileStore::new().insert_many(sig, &exported)).0
    } else {
        time(|| store.insert_many(sig, &exported)).0
    };
    let admit = JournalRecord::Admit {
        id: 0,
        name: shape.label(),
        model: shape.model.to_string(),
        steps: 1,
        priority: 0,
        weight: 1.0,
        graph: graph.clone(),
    };
    let insert = JournalRecord::StoreInsert {
        machine: sig,
        profiles: exported,
    };
    c.journal_admit = time(|| journal.append(&admit).expect("journal append")).0;
    c.journal_insert = time(|| journal.append(&insert).expect("journal append")).0;
    c.journal_bytes = (encode_record(&admit).len() + encode_record(&insert).len()) as f64;
    c
}

/// How the run's jobs fell into (model, device class) classes, and the
/// shapes seen in each.
struct Mix {
    /// (model index, node index) → (jobs, shapes in first-seen order)
    classes: BTreeMap<(usize, usize), (usize, Vec<usize>)>,
    jobs: usize,
}

impl Mix {
    fn new() -> Mix {
        Mix {
            classes: BTreeMap::new(),
            jobs: 0,
        }
    }

    fn add(&mut self, model: usize, node: usize, shape: usize) {
        let (n, shapes) = self.classes.entry((model, node)).or_default();
        *n += 1;
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
        self.jobs += 1;
    }
}

fn model_index(model: &str) -> usize {
    crate::inputs::SERVE_MODELS
        .iter()
        .position(|(m, _)| *m == model)
        .expect("a serve model")
}

/// Probes every (model, device class) — classes the run never used too, so
/// every metric has a value — and returns each class's cost.
fn probe_classes(
    mix: &Mix,
    shapes: &[Shape],
    store: &ProfileStore,
    config: &FleetConfig,
) -> BTreeMap<(usize, usize), Cost> {
    let dir = std::path::PathBuf::from(crate::OUT_DIR)
        .join("tmp")
        .join(format!("ledger-{}", std::process::id()));
    let mut journal = Journal::create(&dir).expect("create the probe journal");
    let mut costs = BTreeMap::new();
    for model in 0..crate::inputs::SERVE_MODELS.len() {
        for (node, &backend) in LAYOUT.iter().enumerate() {
            let mut picks: Vec<usize> = mix
                .classes
                .get(&(model, node))
                .map(|(_, s)| s.iter().copied().take(SHAPES_PER_CLASS).collect())
                .unwrap_or_default();
            if picks.is_empty() {
                let first = shapes.iter().position(|s| model_index(s.model) == model);
                picks.extend(first);
            }
            let per: Vec<Cost> = picks
                .iter()
                .map(|&s| probe(&shapes[s], backend, store, config, &mut journal))
                .collect();
            costs.insert((model, node), Cost::mean(&per));
        }
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    costs
}

/// Per-job means of the probed costs, weighted by the mix.
struct Ledger {
    wall: f64,
    per_job: Cost,
    knl: Cost,
    gpu: Cost,
    cluster: Cost,
    gpu_share_of_jobs: f64,
    knl_share_of_jobs: f64,
    cluster_share_of_jobs: f64,
}

fn weigh(mix: &Mix, costs: &BTreeMap<(usize, usize), Cost>, wall: f64) -> Ledger {
    let weighted = |node: Option<usize>| {
        let sel: Vec<(f64, Cost)> = costs
            .iter()
            .filter(|((_, n), _)| node.is_none_or(|want| *n == want))
            .map(|(k, c)| (mix.classes.get(k).map_or(0, |(n, _)| *n) as f64, *c))
            .collect();
        let total: f64 = sel.iter().map(|(w, _)| w).sum();
        let cost = Cost::weighted_mean(&sel);
        (cost, total / mix.jobs.max(1) as f64)
    };
    let (per_job, _) = weighted(None);
    let (knl, knl_share_of_jobs) = weighted(Some(0));
    let (gpu, gpu_share_of_jobs) = weighted(Some(1));
    let (cluster, cluster_share_of_jobs) = weighted(Some(2));
    Ledger {
        wall,
        per_job,
        knl,
        gpu,
        cluster,
        gpu_share_of_jobs,
        knl_share_of_jobs,
        cluster_share_of_jobs,
    }
}

impl Ledger {
    /// Seconds per job the KNL runtime spends (KNL and cluster nodes).
    fn sched_secs(&self) -> f64 {
        self.per_job.catalog
            + self.knl_share_of_jobs * (self.knl.prepare + self.knl.run_step)
            + self.cluster_share_of_jobs * (self.cluster.prepare + self.cluster.run_step)
    }

    fn gpu_secs(&self) -> f64 {
        self.gpu_share_of_jobs * (self.gpu.prepare + self.gpu.run_step)
    }

    fn cluster_secs(&self) -> f64 {
        self.cluster_share_of_jobs * self.cluster.cluster_sim
    }

    fn store_secs(&self) -> f64 {
        self.per_job.lookup + self.per_job.insert
    }
}

/// The probes and shares every workload reports the same way.
#[allow(clippy::too_many_arguments)]
fn common(
    out: &mut Outcome,
    ledger: &Ledger,
    costs: &BTreeMap<(usize, usize), Cost>,
    shapes: &[Shape],
    durable: bool,
    rpc_secs_per_job: f64,
    events_per_job: f64,
) {
    let l = ledger;
    let knl_like: Vec<Cost> = costs
        .iter()
        .filter(|((_, n), _)| *n != 1)
        .map(|(_, c)| *c)
        .collect();
    let knl_mean = Cost::mean(&knl_like);
    out.single("sched.catalog_us", "us", l.per_job.catalog * 1e6, 1);
    out.single(
        "sched.prepare_warm_us",
        "us",
        knl_mean.prepare_warm * 1e6,
        knl_like.len(),
    );
    out.single(
        "sched.profile_cold_ms",
        "ms",
        knl_mean.prepare_cold * 1e3,
        knl_like.len(),
    );
    for (m, (model, _)) in crate::inputs::SERVE_MODELS.iter().enumerate() {
        let of_model: Vec<Cost> = costs
            .iter()
            .filter(|((mm, n), _)| *mm == m && *n != 1)
            .map(|(_, c)| *c)
            .collect();
        out.single(
            &format!("sched.run_step_ms.{model}"),
            "ms",
            Cost::mean(&of_model).run_step * 1e3,
            of_model.len(),
        );
    }
    out.single("gpu.prepare_ms", "ms", l.gpu.prepare * 1e3, 1);
    out.single("gpu.run_step_ms", "ms", l.gpu.run_step * 1e3, 1);
    out.single("cluster.sim_us", "us", l.cluster.cluster_sim * 1e6, 1);
    out.single("store.lookup_us", "us", l.per_job.lookup * 1e6, 1);
    out.single("store.insert_us", "us", l.per_job.insert * 1e6, 1);
    out.single("journal.admit_us", "us", l.per_job.journal_admit * 1e6, 1);
    out.single(
        "journal.store_insert_us",
        "us",
        l.per_job.journal_insert * 1e6,
        1,
    );
    out.single("graph.clone_us", "us", l.per_job.clone * 1e6, 1);
    let builds: Vec<f64> = shapes.iter().map(|s| s.build_secs * 1e3).collect();
    out.single(
        "models.build_ms",
        "ms",
        crate::stats::mean(&builds),
        builds.len(),
    );

    let obs = Obs::new(ObsConfig::on());
    const CALLS: usize = 20_000;
    let counter = per_call(CALLS, |i| {
        obs.counter_add(
            Clock::Sim,
            "perfbench_probe_total",
            &[("node", if i % 2 == 0 { "0" } else { "1" })],
            1,
        )
    });
    let event = per_call(CALLS, |i| {
        black_box(obs.event(
            Clock::Sim,
            EventKind::Complete,
            i as f64,
            Some(i as u64),
            Some(0),
            format!("job-{i} (3 steps)"),
        ));
    });
    out.single("obs.counter_add_ns", "ns", counter * 1e9, CALLS);
    out.single("obs.event_ns", "ns", event * 1e9, CALLS);
    out.single("obs.events_per_job", "count", events_per_job, 1);

    let journal = if durable {
        l.per_job.journal_admit + l.per_job.journal_insert
    } else {
        0.0
    };
    let shares = [
        ("rpc.share", rpc_secs_per_job),
        ("store.share", l.store_secs()),
        ("journal.share", journal),
        ("sched.share", l.sched_secs()),
        ("gpu.share", l.gpu_secs()),
        ("cluster.share", l.cluster_secs()),
        ("models.share", l.per_job.clone),
        ("obs.share", events_per_job * (counter + event)),
    ];
    let mut explained = 0.0;
    for (name, secs) in shares {
        explained += secs / l.wall;
        out.single(name, "ratio", secs / l.wall, 1);
    }
    out.single("serve.unattributed_share", "ratio", 1.0 - explained, 1);
    out.single("ledger.wall_us_per_job", "us", l.wall * 1e6, 1);
}

/// Spans of the fleet calls: submit, tick, status and report times.
fn serve_spans(out: &mut Outcome, tracer: &Tracer, busy_wall: f64) {
    let us = |name: &str| median(&tracer.durations(name)) * 1e6;
    let ticks = tracer.durations("serve.tick");
    out.single(
        "serve.submit_us",
        "us",
        us("serve.submit"),
        tracer.durations("serve.submit").len(),
    );
    out.single(
        "serve.tick_us_p50",
        "us",
        percentile(&ticks, 0.5) * 1e6,
        ticks.len(),
    );
    out.single(
        "serve.tick_ms_p99",
        "ms",
        percentile(&ticks, 0.99) * 1e3,
        ticks.len(),
    );
    out.single(
        "serve.tick_busy_share",
        "ratio",
        ticks.iter().sum::<f64>() / busy_wall,
        ticks.len(),
    );
    out.single(
        "serve.job_status_us",
        "us",
        us("serve.job_status"),
        tracer.durations("serve.job_status").len(),
    );
    out.single(
        "serve.report_ms",
        "ms",
        median(&tracer.durations("serve.report")) * 1e3,
        1,
    );
}

fn store_snapshot(out: &mut Outcome, store: &ProfileStore) {
    let (snap_secs, text) = time(|| store.snapshot());
    let restore = time(|| {
        ProfileStore::new()
            .restore(&text)
            .expect("restore own snapshot")
    })
    .0;
    out.single("store.snapshot_ms", "ms", snap_secs * 1e3, text.len());
    out.single("store.restore_ms", "ms", restore * 1e3, text.len());
}

/// Codec cost per frame over the four frame kinds of a tenant's life:
/// Submit and its reply, Status and its reply.
fn codec(out: &mut Outcome, shapes: &[Shape]) -> (f64, f64) {
    let shape = &shapes[0];
    let submit = Request::Submit(SubmitSpec {
        name: format!("{}-0", shape.label()),
        model: shape.model.to_string(),
        batch: shape.batch as u64,
        steps: 3,
        priority: 1,
        weight: 2.0,
    });
    let status = Request::Status { job_id: 12345 };
    let submitted = Response::Submitted { job_id: 12345 };
    let job = Response::Job(JobStatus {
        id: 12345,
        name: format!("{}-0", shape.label()),
        model: shape.model.to_string(),
        phase: JobPhase::Running,
        steps_done: 1,
        steps: 3,
        node: Some(1),
        durability_disabled: false,
    });
    const CALLS: usize = 2_000;
    let requests = [&submit, &status];
    let responses = [&submitted, &job];
    let enc_req = |r: &Request| per_call(CALLS, |_| drop(black_box(frame_bytes(&encode(r)))));
    let enc_resp = |r: &Response| per_call(CALLS, |_| drop(black_box(frame_bytes(&encode(r)))));
    let dec_req = |r: &Request| {
        let bytes = frame_bytes(&encode(r));
        per_call(CALLS, |_| {
            let (payload, _) = frame_from_buf(&bytes).expect("frame").expect("whole frame");
            drop(black_box(decode::<Request>(&payload).expect("decodes")));
        })
    };
    let dec_resp = |r: &Response| {
        let bytes = frame_bytes(&encode(r));
        per_call(CALLS, |_| {
            let (payload, _) = frame_from_buf(&bytes).expect("frame").expect("whole frame");
            drop(black_box(decode::<Response>(&payload).expect("decodes")));
        })
    };
    let encode_s = (requests.iter().map(|r| enc_req(r)).sum::<f64>()
        + responses.iter().map(|r| enc_resp(r)).sum::<f64>())
        / 4.0;
    let decode_s = (requests.iter().map(|r| dec_req(r)).sum::<f64>()
        + responses.iter().map(|r| dec_resp(r)).sum::<f64>())
        / 4.0;
    out.single("rpc.encode_us", "us", encode_s * 1e6, 4 * CALLS);
    out.single("rpc.decode_us", "us", decode_s * 1e6, 4 * CALLS);
    (encode_s, decode_s)
}

/// Service-time percentiles the server recorded, and transport time: the
/// client's submit round trip minus the server's submit service time.
fn service(out: &mut Outcome, obs: &Obs, submit_rtts: &[f64]) {
    let q = |kind: &str, p: f64| {
        obs.quantile(
            Clock::Wall,
            "nnrt_rpc_latency_seconds",
            &[("kind", kind)],
            p,
        )
        .unwrap_or(f64::NAN)
    };
    for kind in ["submit", "status"] {
        out.single(
            &format!("rpc.service_us_p50.{kind}"),
            "us",
            q(kind, 0.5) * 1e6,
            1,
        );
        out.single(
            &format!("rpc.service_us_p90.{kind}"),
            "us",
            q(kind, 0.9) * 1e6,
            1,
        );
    }
    out.single(
        "rpc.transport_us_p50",
        "us",
        (percentile(submit_rtts, 0.5) - q("submit", 0.5)) * 1e6,
        submit_rtts.len(),
    );
}

/// For the fleet workloads, which never cross the wire: one plan submitted
/// over loopback to a server that holds the jobs until shutdown, so the
/// RPC layer is measured on this workload's own job mix without fleet
/// ticks in the way.
fn loopback(seed: u64, setup: &fleet::Setup) -> (Vec<f64>, Arc<Obs>) {
    let plan: &[JobPlan] = &setup.inputs.plans[0];
    let config = fleet::config(seed, plan.len());
    let store = match &setup.snapshot {
        Some(s) => fleet::restored(s),
        None => Arc::new(ProfileStore::new()),
    };
    let fleet = fleet::new_fleet(config.clone(), store);
    let obs = fleet.obs();
    let server = FleetServer::bind_with_fleet(
        "127.0.0.1:0",
        fleet,
        ServerConfig {
            fleet: config,
            drain: DrainPolicy::OnShutdown,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port");
    let mut rtts = Vec::new();
    let mut client =
        RpcClient::connect(server.local_addr()).expect("connect to the loopback server");
    for job in plan {
        let shape = &setup.inputs.shapes[job.shape];
        let spec = SubmitSpec {
            name: job.name.clone(),
            model: shape.model.to_string(),
            batch: shape.batch as u64,
            steps: job.steps,
            priority: job.priority,
            weight: job.weight,
        };
        let t = Instant::now();
        let id = client
            .submit(&spec)
            .expect("the holding server admits the plan");
        rtts.push(t.elapsed().as_secs_f64());
        client.status(id).expect("status of an admitted job");
    }
    client.shutdown().expect("the loopback server shuts down");
    let _ = server.join();
    (rtts, obs)
}

/// The traced run of fleet-warm or fleet-cold.
pub fn fleet(seed: u64, m: &fleet::Measured, out: &mut Outcome) {
    let plans = m.setup.inputs.plans.len();
    let shapes = &m.setup.inputs.shapes;
    // Probes are not scaled to the reference host, so neither is the wall
    // time they are shares of.
    // The traced passes are compared with as many untraced ones: the
    // fastest-call timeline gets faster with every repeat.
    let passes = m.traced.len() / plans * plans;
    let (_, untraced) = fleet::jobs_per_s(&m.untraced[..passes], plans);
    let (_, traced) = fleet::jobs_per_s(&m.traced[..passes], plans);
    out.single(
        "trace.overhead_jobs_per_s",
        "jobs/s",
        traced - untraced,
        m.traced.len(),
    );
    out.single(
        "trace.overhead_share",
        "ratio",
        (traced - untraced) / untraced,
        m.traced.len(),
    );

    let busy: f64 = m.tracer.durations("burst").iter().sum();
    serve_spans(out, &m.tracer, busy);

    let mut mix = Mix::new();
    let by_name: BTreeMap<&str, usize> = m
        .setup
        .inputs
        .plans
        .iter()
        .flatten()
        .map(|j| (j.name.as_str(), j.shape))
        .collect();
    for b in &m.untraced[..plans] {
        for j in &b.report.jobs {
            let shape = by_name[j.name.as_str()];
            mix.add(model_index(shapes[shape].model), j.node as usize, shape);
        }
    }
    let config = fleet::config(seed, 1);
    let store = match &m.setup.snapshot {
        Some(s) => fleet::restored(s),
        None => Arc::new(ProfileStore::new()),
    };
    let costs = probe_classes(&mix, shapes, &store, &config);
    let (_, all_untraced) = fleet::jobs_per_s(&m.untraced, plans);
    let ledger = weigh(&mix, &costs, 1.0 / all_untraced);

    let pass = &m.untraced[..plans];
    let hits: u64 = pass.iter().map(|b| b.report.store_hits).sum();
    let misses: u64 = pass.iter().map(|b| b.report.store_misses).sum();
    out.single(
        "store.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    let profiling: u64 = pass.iter().map(|b| b.report.profiling_steps_total).sum();
    out.single("sched.profiling_steps", "count", profiling as f64, plans);
    out.single(
        "journal.bytes_per_job",
        "bytes",
        ledger.per_job.journal_bytes,
        1,
    );

    // One more burst of the first plan, keeping its fleet, for the
    // end-of-run exposition and the store it leaves behind.
    let mut fleet = m.setup.fleet(seed, 0);
    let b = fleet::run_burst(
        &mut fleet,
        0,
        &m.setup.inputs.plans[0],
        shapes,
        &mut Tracer::new(Instant::now(), false),
    );
    let obs = fleet.obs();
    let (expose, _) = time(|| obs.expose(None));
    out.single("obs.expose_ms", "ms", expose * 1e3, 1);
    store_snapshot(out, fleet.store());
    let events_per_job = b.events as f64 / b.jobs.len().max(1) as f64;

    codec(out, shapes);
    let (rtts, server_obs) = loopback(seed, &m.setup);
    service(out, &server_obs, &rtts);
    common(out, &ledger, &costs, shapes, false, 0.0, events_per_job);
}

/// The traced run of rpc-live.
pub fn rpc(seed: u64, m: &rpc::Measured, out: &mut Outcome) {
    let s = &m.untraced[0];
    let (_, untraced) = rpc::jobs_per_s(&m.untraced);
    let (_, traced) = rpc::jobs_per_s(&m.traced);
    out.single("trace.overhead_jobs_per_s", "jobs/s", traced - untraced, 1);
    out.single(
        "trace.overhead_share",
        "ratio",
        (traced - untraced) / untraced,
        1,
    );

    let report = s
        .bye
        .as_deref()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok());
    let field = |name: &str| {
        report
            .as_ref()
            .and_then(|r| r.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    let node_of: BTreeMap<u64, usize> = report
        .as_ref()
        .and_then(|r| r.get("jobs"))
        .and_then(|j| j.as_array())
        .map(|jobs| {
            jobs.iter()
                .filter_map(|j| {
                    Some((
                        j.get("id")?.as_f64()? as u64,
                        j.get("node")?.as_f64()? as usize,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let mut mix = Mix::new();
    for &(id, shape, _) in &s.admitted {
        if let Some(&node) = node_of.get(&id) {
            mix.add(model_index(m.setup.shapes[shape].model), node, shape);
        }
    }
    let hits = field("store_hits");
    let misses = field("store_misses");
    out.single(
        "store.hit_ratio",
        "ratio",
        hits / (hits + misses),
        (hits + misses) as usize,
    );
    out.single(
        "sched.profiling_steps",
        "count",
        field("profiling_steps_total"),
        1,
    );
    let admitted = s.admitted.len().max(1) as f64;
    let journal_bytes = s.obs.counter(Clock::Wall, "nnrt_journal_bytes_total", &[]) as f64;
    out.single(
        "journal.bytes_per_job",
        "bytes",
        journal_bytes / admitted,
        s.admitted.len(),
    );
    let events: u64 = [Clock::Sim, Clock::Wall]
        .iter()
        .map(|&c| s.obs.events_snapshot(Some(c)).len() as u64 + s.obs.events_dropped(c))
        .sum();
    let (expose, _) = time(|| s.obs.expose(None));
    out.single("obs.expose_ms", "ms", expose * 1e3, 1);
    store_snapshot(out, &fleet::restored(&m.setup.snapshot));

    // The service thread's ticks are not visible from outside the server:
    // replay the admitted jobs, in admission order, through an in-process
    // fleet with the server's configuration and time its ticks instead.
    let dir = std::path::PathBuf::from(crate::OUT_DIR)
        .join("tmp")
        .join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = rpc::fleet_config(seed, dir.clone());
    config.queue_capacity = s.admitted.len().max(1);
    let mut replay = fleet::new_fleet(config, fleet::restored(&m.setup.snapshot));
    let plan: Vec<JobPlan> = s
        .admitted
        .iter()
        .map(|&(id, shape, priority)| JobPlan {
            name: format!("replay-{id}"),
            shape,
            steps: crate::inputs::RPC_STEPS,
            priority,
            weight: 1.0,
        })
        .collect();
    let mut tracer = Tracer::new(Instant::now(), true);
    fleet::run_burst(&mut replay, 0, &plan, &m.setup.shapes, &mut tracer);
    drop(replay);
    let _ = std::fs::remove_dir_all(&dir);
    serve_spans(out, &tracer, s.wall_secs());

    let config = fleet::config(seed, 1);
    let costs = probe_classes(
        &mix,
        &m.setup.shapes,
        &fleet::restored(&m.setup.snapshot),
        &config,
    );
    let ledger = weigh(&mix, &costs, 1.0 / untraced);
    let (enc, dec) = codec(out, &m.setup.shapes);
    service(out, &s.obs, &s.rtts("submit"));
    // Each request is a request frame and a reply frame, each encoded once
    // and decoded once.
    let requests_per_job = s.calls.len() as f64 / admitted;
    common(
        out,
        &ledger,
        &costs,
        &m.setup.shapes,
        true,
        requests_per_job * 2.0 * (enc + dec),
        events as f64 / admitted,
    );
}
