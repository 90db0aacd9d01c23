//! The in-process fleet workloads (fleet-warm, fleet-cold) and the pieces
//! rpc-live shares with them: the three-node layout, store warming, and a
//! burst driver that submits a job list up front and drains it through
//! `Fleet::tick`.

use crate::inputs::{FleetInputs, JobPlan, Shape};
use crate::outcome::{Latency, Metric, Outcome, LATENCIES};
use crate::trace::Tracer;
use nnrt_obs::Clock;
use nnrt_serve::{Fleet, FleetConfig, JobId, JobPhase, JobSpec, NodeBackend, ProfileStore};
use std::sync::Arc;
use std::time::Instant;

/// One KNL node, one GPU node and one cluster head, in this order (a job's
/// `node` index in the report is its position here).
pub const LAYOUT: [NodeBackend; 3] = [NodeBackend::Knl, NodeBackend::Gpu, NodeBackend::Cluster];

/// The fleet configuration every workload runs: CLI defaults, with the
/// admission queue sized so a whole burst is admitted.
pub fn config(seed: u64, queue_capacity: usize) -> FleetConfig {
    FleetConfig {
        node_count: LAYOUT.len() as u32,
        queue_capacity,
        seed,
        ..FleetConfig::default()
    }
}

pub fn new_fleet(config: FleetConfig, store: Arc<ProfileStore>) -> Fleet {
    Fleet::with_backends(config, LAYOUT.to_vec(), store)
}

pub fn spec(plan: &JobPlan, shapes: &[Shape]) -> JobSpec {
    JobSpec {
        name: plan.name.clone(),
        model: shapes[plan.shape].model.to_string(),
        graph: (*shapes[plan.shape].graph).clone(),
        steps: plan.steps,
        priority: plan.priority,
        weight: plan.weight,
    }
}

/// Attempted and failed operations of one phase.
#[derive(Clone, Copy, Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Profiles every shape on every device class into one store and returns
/// its snapshot: one single-node fleet per class, one job per shape.
pub fn warm_snapshot(shapes: &[Shape], seed: u64, ops: &mut Ops) -> String {
    let store = Arc::new(ProfileStore::new());
    for backend in LAYOUT {
        let mut fleet = Fleet::with_backends(
            FleetConfig {
                node_count: 1,
                queue_capacity: shapes.len(),
                seed,
                ..FleetConfig::default()
            },
            vec![backend],
            store.clone(),
        );
        for i in 0..shapes.len() {
            let plan = JobPlan {
                name: format!("warm-{}-{i}", backend.name()),
                shape: i,
                steps: 1,
                priority: 0,
                weight: 1.0,
            };
            ops.add(fleet.submit(spec(&plan, shapes)).is_ok());
        }
        let report = fleet.run();
        for _ in report.jobs.len()..shapes.len() {
            ops.add(false);
        }
    }
    store.snapshot()
}

/// A store restored from `snapshot`.
pub fn restored(snapshot: &str) -> Arc<ProfileStore> {
    let store = ProfileStore::new();
    store
        .restore(snapshot)
        .expect("the store restores its own snapshot");
    Arc::new(store)
}

/// What one burst measured.
pub struct Burst {
    /// Index of the plan the burst ran.
    pub plan: usize,
    /// Wall time of every call the driver made into the fleet, in order:
    /// per job a spec construction and a `Fleet::submit`, then `tick` and
    /// `job_status` calls. A fleet is deterministic, so every burst of one
    /// plan makes the same sequence of calls.
    pub calls: Vec<f64>,
    /// Per admitted job: the index of the first call of its submission and
    /// of the status call that saw it completed (`None` if none did).
    pub jobs: Vec<(usize, Option<usize>)>,
    pub report: nnrt_serve::FleetReport,
    pub report_json: String,
    /// The host reference time read just before the burst, ms (`NaN` when
    /// none was read).
    pub host_ms: f64,
    pub submits: Ops,
    pub status_polls: u64,
    /// Events the fleet's observability handle recorded (both domains,
    /// dropped ones included).
    pub events: u64,
}

/// Wall time, submit latencies and turnarounds of a burst, read off a
/// sequence of call durations laid end to end.
pub struct Timeline {
    /// First submit to last observed completion, seconds.
    pub wall_secs: f64,
    pub completed: usize,
    /// Per job: spec construction plus `Fleet::submit`, seconds.
    pub submit_secs: Vec<f64>,
    /// Per job: submit to the first status showing `Completed`, seconds.
    pub turnaround_secs: Vec<f64>,
}

impl Timeline {
    pub fn new(calls: &[f64], jobs: &[(usize, Option<usize>)]) -> Timeline {
        let mut start = Vec::with_capacity(calls.len() + 1);
        let mut t = 0.0;
        for d in calls {
            start.push(t);
            t += d;
        }
        start.push(t);
        let done: Vec<(usize, usize)> = jobs.iter().filter_map(|&(s, e)| Some((s, e?))).collect();
        Timeline {
            wall_secs: done.iter().map(|&(_, e)| start[e + 1]).fold(0.0, f64::max),
            completed: done.len(),
            submit_secs: jobs.iter().map(|&(s, _)| calls[s] + calls[s + 1]).collect(),
            turnaround_secs: done.iter().map(|&(s, e)| start[e + 1] - start[s]).collect(),
        }
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_secs
    }

    /// The timeline as a host `slowdown` times slower than the quiet
    /// reference host would have run it.
    fn scaled(&self, slowdown: f64) -> Timeline {
        let scale = |xs: &[f64]| xs.iter().map(|x| x / slowdown).collect();
        Timeline {
            wall_secs: self.wall_secs / slowdown,
            completed: self.completed,
            submit_secs: scale(&self.submit_secs),
            turnaround_secs: scale(&self.turnaround_secs),
        }
    }
}

impl Burst {
    pub fn timeline(&self) -> Timeline {
        Timeline::new(&self.calls, &self.jobs)
    }

    pub fn stranded(&self) -> usize {
        self.jobs.iter().filter(|(_, e)| e.is_none()).count()
    }
}

/// Times one call into the fleet, inside a span when tracing.
fn call<T>(
    calls: &mut Vec<f64>,
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    job: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let span = tracer.open(name, Some(parent), job);
    let out = f();
    tracer.close(span);
    calls.push(t.elapsed().as_secs_f64());
    out
}

/// Submits every job up front, then drains the fleet through `tick`. With
/// an enabled tracer, every call into the fleet is a span.
pub fn run_burst(
    fleet: &mut Fleet,
    plan: usize,
    jobs: &[JobPlan],
    shapes: &[Shape],
    tracer: &mut Tracer,
) -> Burst {
    let mut submits = Ops::default();
    let mut calls = Vec::new();
    let mut admitted: Vec<(usize, Option<usize>)> = Vec::with_capacity(jobs.len());
    // (job id, index into `admitted`)
    let mut outstanding: Vec<(u64, usize)> = Vec::with_capacity(jobs.len());
    let mut status_polls = 0;
    let root = tracer.open("burst", None, None);
    for job in jobs {
        let first = calls.len();
        let spec = call(&mut calls, tracer, "graph.clone", root, None, || {
            spec(job, shapes)
        });
        let result = call(&mut calls, tracer, "serve.submit", root, None, || {
            fleet.submit(spec)
        });
        submits.add(result.is_ok());
        if let Ok(id) = result {
            outstanding.push((id.0, admitted.len()));
            admitted.push((first, None));
        }
    }
    // A tenant learns of a completion from a status reply. The driver asks
    // for the status of every unfinished job whenever the fleet's completion
    // counter moves, so each turnaround ends at the tick that finished it.
    let obs = fleet.obs();
    let mut completions_seen = 0;
    loop {
        let progressed = call(&mut calls, tracer, "serve.tick", root, None, || {
            fleet.tick()
        });
        let completions = obs.counter(Clock::Sim, "nnrt_jobs_completed_total", &[]);
        if completions != completions_seen || !progressed {
            completions_seen = completions;
            outstanding.retain(|&(id, job)| {
                let status = call(
                    &mut calls,
                    tracer,
                    "serve.job_status",
                    root,
                    Some(id),
                    || fleet.job_status(JobId(id)),
                );
                status_polls += 1;
                let done = status.is_some_and(|s| s.phase == JobPhase::Completed);
                if done {
                    admitted[job].1 = Some(calls.len() - 1);
                }
                !done
            });
        }
        if !progressed {
            break;
        }
    }
    tracer.close(root);
    let span = tracer.open("serve.report", None, None);
    let report = fleet.report();
    let report_json = report.to_json();
    tracer.close(span);
    let events = [Clock::Sim, Clock::Wall]
        .iter()
        .map(|&c| obs.events_snapshot(Some(c)).len() as u64 + obs.events_dropped(c))
        .sum();
    Burst {
        plan,
        calls,
        jobs: admitted,
        report,
        report_json,
        host_ms: f64::NAN,
        submits,
        status_polls,
        events,
    }
}

/// Which in-process fleet workload to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Warm,
    Cold,
}

/// Everything a fleet workload builds before its timed window.
pub struct Setup {
    pub inputs: FleetInputs,
    /// Warm store snapshot (fleet-warm only).
    pub snapshot: Option<String>,
    pub ops: Ops,
}

impl Setup {
    pub fn build(kind: Kind, seed: u64) -> Setup {
        let mut ops = Ops::default();
        let (inputs, snapshot) = match kind {
            Kind::Warm => {
                let inputs = crate::inputs::fleet_warm(seed);
                let snapshot = warm_snapshot(&inputs.shapes, seed, &mut ops);
                // Restoring is part of set-up: it proves the snapshot loads.
                drop(restored(&snapshot));
                (inputs, Some(snapshot))
            }
            Kind::Cold => (crate::inputs::fleet_cold(seed), None),
        };
        Setup {
            inputs,
            snapshot,
            ops,
        }
    }

    /// A fresh fleet for one burst of plan `plan`: warm from the snapshot,
    /// or with an empty store.
    pub fn fleet(&self, seed: u64, plan: usize) -> Fleet {
        let store = match &self.snapshot {
            Some(s) => restored(s),
            None => Arc::new(ProfileStore::new()),
        };
        new_fleet(config(seed, self.inputs.plans[plan].len()), store)
    }

    pub fn burst(&self, seed: u64, plan: usize, tracer: &mut Tracer) -> Burst {
        let host_ms = crate::host::sample();
        let mut fleet = self.fleet(seed, plan);
        let mut burst = run_burst(
            &mut fleet,
            plan,
            &self.inputs.plans[plan],
            &self.inputs.shapes,
            tracer,
        );
        burst.host_ms = host_ms;
        burst
    }
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// `setup_s` from (seconds, host reference ms) per set-up.
pub fn setup_metric(out: &mut Outcome, setups: &[(f64, f64)]) {
    let (value, raw) = crate::host::scaled_median(setups);
    out.metrics.push(Metric {
        name: "setup_s".to_string(),
        unit: "s",
        value,
        samples: setups.iter().map(|&(secs, _)| secs).collect(),
        count: setups.len(),
        raw: Some(raw),
    });
}

/// Least number of untraced passes over the plans, whatever `--seconds`:
/// every plan gets repeats to take its fastest calls from and to check its
/// report against. A pass over fleet-cold's 40 plans takes 15–20 s, so it
/// makes two.
fn min_passes(kind: Kind) -> usize {
    match kind {
        Kind::Warm => 3,
        Kind::Cold => 2,
    }
}

/// What a fleet workload run leaves for the per-layer ledger.
pub struct Measured {
    pub setup: Setup,
    pub untraced: Vec<Burst>,
    /// The process's RSS high-water mark after the first untraced pass over
    /// the plans, MB: later repeats run the same work, and reading it after
    /// them would add the results the benchmark keeps.
    pub peak_rss_mb: f64,
    pub traced: Vec<Burst>,
    pub tracer: Tracer,
}

/// Builds the workload `SETUP_REPS` times (timing each), then runs passes
/// over the plans, burst after burst, until `seconds` have passed and every
/// plan has run [`min_passes`] times untraced. A traced run alternates
/// untraced and traced passes, so both see the same host conditions.
pub fn measure(kind: Kind, seed: u64, seconds: u64, trace: bool, out: &mut Outcome) -> Measured {
    let mut setup_secs = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let host_ms = crate::host::sample();
        let t = Instant::now();
        let s = Setup::build(kind, seed);
        setup_secs.push((t.elapsed().as_secs_f64(), host_ms));
        out.phase("setup", s.ops);
        setup = Some(s);
    }
    setup_metric(out, &setup_secs);
    let setup = setup.expect("at least one set-up");
    let plans = setup.inputs.plans.len();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, true);
    let mut off = Tracer::new(origin, false);
    let mut untraced = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let mut traced = Vec::new();
    let mut pass = 0;
    let mut plan = 0;
    while untraced.len() < min_passes(kind) * plans
        || origin.elapsed().as_secs_f64() < seconds as f64
    {
        if trace && pass % 2 == 1 {
            traced.push(setup.burst(seed, plan, &mut tracer));
        } else {
            untraced.push(setup.burst(seed, plan, &mut off));
            if untraced.len() == plans {
                peak_rss_mb = crate::peak_rss_mb();
            }
        }
        plan += 1;
        if plan == plans {
            plan = 0;
            pass += 1;
        }
    }
    Measured {
        setup,
        untraced,
        peak_rss_mb,
        traced,
        tracer,
    }
}

/// The timeline of plan `plan` with every call at the least time it took
/// over the plan's bursts, as measured and scaled to the quiet reference
/// host by the least reference time read before those bursts. Every repeat
/// makes the same calls (the summary checks it), and other tenants of a
/// shared host only ever add time, so this is the plan's least-disturbed
/// timeline: it recurs from run to run where a median over repeats moves
/// with the host's slow phases.
pub fn fastest(bursts: &[Burst], plan: usize) -> Option<(Timeline, Timeline)> {
    let mut of_plan = bursts.iter().filter(|b| b.plan == plan);
    let first = of_plan.next()?;
    let mut calls = first.calls.clone();
    let mut host_ms = first.host_ms;
    for b in of_plan {
        for (least, d) in calls.iter_mut().zip(&b.calls) {
            *least = least.min(*d);
        }
        host_ms = host_ms.min(b.host_ms);
    }
    let raw = Timeline::new(&calls, &first.jobs);
    Some((raw.scaled(crate::host::slowdown(host_ms)), raw))
}

/// All plans' jobs over the sum of their fastest timelines' walls: scaled
/// to the quiet reference host, and as measured.
pub fn jobs_per_s(bursts: &[Burst], plans: usize) -> (f64, f64) {
    let lines: Vec<(Timeline, Timeline)> = (0..plans).filter_map(|p| fastest(bursts, p)).collect();
    let jobs: usize = lines.iter().map(|(t, _)| t.completed).sum();
    let wall = |f: fn(&(Timeline, Timeline)) -> f64| lines.iter().map(f).sum::<f64>();
    (
        jobs as f64 / wall(|(t, _)| t.wall_secs),
        jobs as f64 / wall(|(_, r)| r.wall_secs),
    )
}

/// Σ steps ÷ Σ makespan over one pass of the plans: the fleet's simulated
/// throughput over the whole job set.
pub fn sim_steps_per_s(bursts: &[Burst], plans: usize) -> f64 {
    let pass = &bursts[..plans];
    let steps: u64 = pass.iter().map(|b| b.report.total_steps).sum();
    let makespan: f64 = pass.iter().map(|b| b.report.makespan_secs).sum();
    steps as f64 / makespan
}

/// FNV-1a over the reports of one pass of the plans, in plan order.
pub fn pass_digest(bursts: &[Burst], plans: usize) -> u64 {
    let all: String = bursts[..plans]
        .iter()
        .map(|b| b.report_json.as_str())
        .collect();
    crate::fnv1a(all.as_bytes())
}

/// End-to-end metrics and output checks of a fleet workload.
pub fn summarize(kind: Kind, m: &Measured, out: &mut Outcome) {
    let plans = m.setup.inputs.plans.len();
    let bursts: Vec<&Burst> = m.untraced.iter().chain(&m.traced).collect();
    out.reps = m.untraced.len();
    let raw: Vec<Timeline> = m.untraced.iter().map(Burst::timeline).collect();
    let best: Vec<(Timeline, Timeline)> =
        (0..plans).filter_map(|p| fastest(&m.untraced, p)).collect();
    let jobs: usize = raw.iter().map(|t| t.completed).sum();
    let (scaled, unscaled) = jobs_per_s(&m.untraced, plans);
    out.metrics.push(Metric {
        name: "jobs_per_s".to_string(),
        unit: "jobs/s",
        value: scaled,
        samples: raw.iter().map(Timeline::jobs_per_s).collect(),
        count: jobs,
        raw: Some(unscaled),
    });
    for (name, series, q) in LATENCIES {
        let f = |t: &Timeline| -> Vec<f64> {
            let secs = match series {
                Latency::Submit => &t.submit_secs,
                Latency::Turnaround => &t.turnaround_secs,
            };
            secs.iter().map(|s| s * 1e3).collect()
        };
        let scaled: Vec<f64> = best.iter().flat_map(|(s, _)| f(s)).collect();
        let unscaled: Vec<f64> = best.iter().flat_map(|(_, r)| f(r)).collect();
        out.metrics.push(Metric {
            name: name.to_string(),
            unit: "ms",
            value: crate::stats::percentile(&scaled, q),
            samples: raw
                .iter()
                .map(|t| crate::stats::percentile(&f(t), q))
                .collect(),
            count: scaled.len(),
            raw: Some(crate::stats::percentile(&unscaled, q)),
        });
    }
    out.single(
        "sim_steps_per_s",
        "steps/s",
        sim_steps_per_s(&m.untraced, plans),
        plans,
    );

    let mut submits = Ops::default();
    let mut drained = Ops::default();
    let mut polls = Ops::default();
    for b in &bursts {
        submits.merge(b.submits);
        for &(_, done) in &b.jobs {
            drained.add(done.is_some());
        }
        polls.attempted += b.status_polls;
    }
    out.phase("submit", submits);
    out.phase("drain", drained);
    out.phase("status", polls);

    let complete = bursts.iter().all(|b| {
        let jobs = m.setup.inputs.plans[b.plan].len();
        b.stranded() == 0 && b.jobs.len() == jobs && b.report.jobs.len() == jobs
    });
    out.check(
        "every_admitted_job_completes",
        complete && submits.failed == 0,
        format!(
            "{} bursts, {} jobs; {} submits rejected",
            bursts.len(),
            submits.attempted,
            submits.failed
        ),
    );
    let identical = bursts
        .iter()
        .all(|b| b.report_json == m.untraced[b.plan].report_json);
    let same_calls = bursts.iter().all(|b| {
        b.calls.len() == m.untraced[b.plan].calls.len() && b.jobs == m.untraced[b.plan].jobs
    });
    out.check(
        "calls_identical_across_repeats",
        same_calls,
        "every burst of a plan makes the same sequence of fleet calls".to_string(),
    );
    out.check(
        "report_identical_across_bursts",
        identical,
        format!(
            "{} untraced and {} traced bursts over {plans} plans; pass digest {:016x}",
            m.untraced.len(),
            m.traced.len(),
            pass_digest(&m.untraced, plans)
        ),
    );
    let profiling: Vec<u64> = m.untraced[..plans]
        .iter()
        .map(|b| b.report.profiling_steps_total)
        .collect();
    if kind == Kind::Warm {
        out.check(
            "warm_fleet_pays_no_profiling",
            bursts.iter().all(|b| b.report.profiling_steps_total == 0),
            format!("profiling steps per plan {profiling:?}"),
        );
    } else {
        out.check(
            "cold_fleet_profiles_every_job",
            bursts
                .iter()
                .all(|b| b.report.jobs.iter().all(|j| j.profiling_steps > 0)),
            format!("profiling steps per plan {profiling:?}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_lays_calls_end_to_end() {
        // Two jobs: submissions at calls 0-1 and 2-3, two ticks, then the
        // status calls that saw job 0 (call 6) and job 1 (call 7) complete.
        let calls = [1.0, 2.0, 1.0, 2.0, 10.0, 10.0, 1.0, 1.0];
        let t = Timeline::new(&calls, &[(0, Some(6)), (2, Some(7))]);
        assert_eq!(t.completed, 2);
        assert_eq!(t.wall_secs, 28.0);
        assert_eq!(t.submit_secs, vec![3.0, 3.0]);
        assert_eq!(t.turnaround_secs, vec![27.0, 25.0]);
        let slower = t.scaled(2.0);
        assert_eq!(slower.wall_secs, 14.0);
        assert_eq!(slower.turnaround_secs, vec![13.5, 12.5]);
    }
}
