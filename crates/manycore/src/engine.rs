//! Discrete-event co-run engine.
//!
//! Jobs (operation instances with a nominal solo duration) are launched onto
//! the machine; while several run together the engine slows each one down
//! according to two interference mechanisms:
//!
//! * **SMT core sharing** — when contexts of different jobs reside on the
//!   same physical core they contend for issue capacity
//!   ([`KnlParams::core_share_ratio`]): each context demands slots in
//!   proportion to its compute-boundness, the core supplies its SMT yield
//!   minus a cross-job cache-thrash term. Two cache-hungry convolutions
//!   barely exceed solo throughput together (Table III's 3% hyper-threading
//!   gain), while a memory-stalled op rides a busy core's spare context
//!   almost for free (Strategy 4's premise).
//! * **Memory-bandwidth and mesh contention** — jobs' MCDRAM demands add up,
//!   and core-disjoint co-runners slosh each other's tiles through the mesh,
//!   escalating when three or more run at once.
//!
//! The caller (an executor in `nnrt-sched`) decides *what* to launch, with
//! how many threads and where; the engine decides *how long* everything takes
//! and in what order completions happen.

use crate::cost::KnlParams;
use crate::error::MachineError;
use crate::placement::{CoreMap, Placement, PlacementRequest};
use crate::topology::Topology;
use crate::workload::WorkProfile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Engine-assigned job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// What happened at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The job was launched.
    Start,
    /// The job completed.
    Finish,
}

/// One entry of the engine's event trace (drives the paper's Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineEvent {
    /// Simulated time of the event, seconds.
    pub time: f64,
    /// Start or finish.
    pub kind: EventKind,
    /// The job involved.
    pub job: JobId,
    /// Caller-supplied tag (e.g. the dataflow node id).
    pub tag: u64,
    /// Number of jobs running *after* the event took effect — the paper's
    /// "number of co-running operations whenever an event happens".
    pub corunning: u32,
}

/// Completion record returned by [`Engine::advance_next`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The finished job.
    pub job: JobId,
    /// Caller-supplied tag.
    pub tag: u64,
    /// Launch time, seconds.
    pub start: f64,
    /// Completion time, seconds.
    pub finish: f64,
    /// The contexts the job held.
    pub placement: Placement,
    /// Nominal (solo) duration the job was launched with.
    pub nominal: f64,
}

#[derive(Debug, Clone)]
struct Running {
    tag: u64,
    profile: WorkProfile,
    placement: Placement,
    nominal: f64,
    /// Solo-seconds of work left.
    remaining: f64,
    /// Current progress rate in solo-seconds per simulated second (<= 1).
    rate: f64,
    started: f64,
}

/// The discrete-event co-run engine.
#[derive(Debug, Clone)]
pub struct Engine {
    params: KnlParams,
    map: CoreMap,
    jobs: BTreeMap<u64, Running>,
    now: f64,
    next_id: u64,
    trace: Vec<EngineEvent>,
    record_trace: bool,
}

impl Engine {
    /// A fresh engine over `topo` with interference constants from `params`.
    pub fn new(topo: Topology, params: KnlParams) -> Self {
        Engine {
            params,
            map: CoreMap::new(topo),
            jobs: BTreeMap::new(),
            now: 0.0,
            next_id: 0,
            trace: Vec::new(),
            record_trace: false,
        }
    }

    /// Enables event-trace recording (off by default; traces of a full
    /// training step can hold tens of thousands of events).
    pub fn record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        self.map.topology()
    }

    /// Interference constants in use.
    pub fn params(&self) -> &KnlParams {
        &self.params
    }

    /// Number of completely idle cores.
    pub fn free_cores(&self) -> u32 {
        self.map.free_cores()
    }

    /// Busy cores that can still take a hyper-thread context (Strategy 4).
    pub fn ht_capacity(&self) -> u32 {
        self.map.ht_capacity()
    }

    /// Hardware contexts not currently held by any job.
    pub fn free_contexts(&self) -> u32 {
        self.map.free_contexts()
    }

    /// Physical-core footprint of the widest running job (0 when idle) —
    /// Strategy 4 triggers only when some op spans the whole machine.
    pub fn widest_running_cores(&self) -> u32 {
        self.jobs
            .values()
            .map(|r| r.placement.num_cores())
            .max()
            .unwrap_or(0)
    }

    /// The widest running job's `(tag, cores, profile)`, if any.
    pub fn widest_running(&self) -> Option<(u64, u32, WorkProfile)> {
        self.jobs
            .values()
            .max_by_key(|r| r.placement.num_cores())
            .map(|r| (r.tag, r.placement.num_cores(), r.profile))
    }

    /// Number of currently running jobs.
    pub fn num_running(&self) -> usize {
        self.jobs.len()
    }

    /// Ids and tags of running jobs.
    pub fn running(&self) -> impl Iterator<Item = (JobId, u64)> + '_ {
        self.jobs.iter().map(|(&id, r)| (JobId(id), r.tag))
    }

    /// Drains and returns the recorded event trace (empty unless
    /// [`Engine::record_trace`] is on).
    pub fn take_trace(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Launches a job: allocate contexts per `request` and start progressing
    /// `nominal` solo-seconds of work described by `profile`. `tag` is an
    /// opaque caller id carried through to the outcome and trace.
    pub fn launch(
        &mut self,
        profile: WorkProfile,
        nominal: f64,
        request: &PlacementRequest,
        tag: u64,
    ) -> Result<JobId, MachineError> {
        if !nominal.is_finite() || nominal < 0.0 {
            return Err(MachineError::InvalidRequest(format!(
                "nominal duration must be finite and >= 0, got {nominal}"
            )));
        }
        profile.validate().map_err(MachineError::InvalidRequest)?;
        let placement = self.map.allocate(request)?;
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Running {
                tag,
                profile,
                placement,
                nominal,
                remaining: nominal.max(1e-12),
                rate: 1.0,
                started: self.now,
            },
        );
        self.recompute_rates();
        if self.record_trace {
            self.trace.push(EngineEvent {
                time: self.now,
                kind: EventKind::Start,
                job: JobId(id),
                tag,
                corunning: self.jobs.len() as u32,
            });
        }
        Ok(JobId(id))
    }

    /// Advances simulated time to the next completion and returns it, or
    /// `None` if nothing is running.
    pub fn advance_next(&mut self) -> Option<JobOutcome> {
        let (&min_id, _) = self.jobs.iter().min_by(|a, b| {
            let ta = a.1.remaining / a.1.rate.max(1e-12);
            let tb = b.1.remaining / b.1.rate.max(1e-12);
            ta.partial_cmp(&tb).unwrap().then(a.0.cmp(b.0))
        })?;
        let dt = {
            let r = &self.jobs[&min_id];
            r.remaining / r.rate.max(1e-12)
        };
        self.now += dt;
        for r in self.jobs.values_mut() {
            r.remaining = (r.remaining - dt * r.rate).max(0.0);
        }
        let finished = self.jobs.remove(&min_id).expect("selected job exists");
        self.map.release(&finished.placement);
        self.recompute_rates();
        if self.record_trace {
            self.trace.push(EngineEvent {
                time: self.now,
                kind: EventKind::Finish,
                job: JobId(min_id),
                tag: finished.tag,
                // "The number of co-running operations at the moment" of the
                // event (the paper's Figure 4): the finishing op is still
                // counted at its own completion instant.
                corunning: self.jobs.len() as u32 + 1,
            });
        }
        Some(JobOutcome {
            job: JobId(min_id),
            tag: finished.tag,
            start: finished.started,
            finish: self.now,
            placement: finished.placement,
            nominal: finished.nominal,
        })
    }

    /// Runs everything currently launched to completion; returns outcomes in
    /// completion order.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let mut out = Vec::with_capacity(self.jobs.len());
        while let Some(o) = self.advance_next() {
            out.push(o);
        }
        out
    }

    /// Recomputes every running job's progress rate from the current
    /// co-residency and bandwidth demands.
    fn recompute_rates(&mut self) {
        if self.jobs.is_empty() {
            return;
        }
        let ncores = self.map.topology().num_cores() as f64;

        // Per-core residency: (job id, contexts, pressure, weight).
        let mut residents: BTreeMap<u32, Vec<(u64, u32)>> = BTreeMap::new();
        for (&id, r) in &self.jobs {
            for &(core, ctx) in &r.placement.cores {
                residents.entry(core.0).or_default().push((id, ctx));
            }
        }

        // Total bandwidth demand and cache/mesh footprint.
        let demand: BTreeMap<u64, f64> = self
            .jobs
            .iter()
            .map(|(&id, r)| {
                (
                    id,
                    r.profile.mem_intensity * r.placement.num_cores() as f64 / ncores,
                )
            })
            .collect();
        let total_demand: f64 = demand.values().sum();
        let footprint: BTreeMap<u64, f64> = self
            .jobs
            .iter()
            .map(|(&id, r)| {
                (
                    id,
                    r.profile.cache_pressure * r.placement.num_cores() as f64 / ncores,
                )
            })
            .collect();

        let params = self.params.clone();

        // Per-core sharing model (see `KnlParams::core_share_ratio`): each
        // resident context demands issue capacity proportional to its
        // compute-boundness — a memory-stalled streaming op barely uses the
        // pipeline, so its SMT sibling runs almost for free, which is what
        // makes the paper's Strategy 4 profitable.
        let mut core_ratio: BTreeMap<u64, (f64, f64)> = BTreeMap::new(); // (sum, ctxs)
        for (_core, occupants) in residents.iter() {
            let distinct: Vec<u64> = {
                let mut v: Vec<u64> = occupants.iter().map(|&(id, _)| id).collect();
                v.dedup();
                v
            };
            if distinct.len() == 1 {
                let (id, ctx) = occupants[0];
                let e = core_ratio.entry(id).or_insert((0.0, 0.0));
                e.0 += ctx as f64; // ratio 1.0 per context
                e.1 += ctx as f64;
                continue;
            }
            let tuples: Vec<(f64, f64, u32)> = occupants
                .iter()
                .map(|&(id, c)| {
                    let prof = &self.jobs[&id].profile;
                    (prof.cache_pressure, prof.mem_intensity, c)
                })
                .collect();
            let ratio = params.core_share_ratio(&tuples);
            for &(id, ctx) in occupants {
                // Normalize against what the job's nominal duration already
                // priced in: a depth-2 job's own SMT cost is in its nominal,
                // only the *extra* slowdown from foreign contexts counts.
                let prof = &self.jobs[&id].profile;
                let alone =
                    params.exclusive_share_ratio(prof.cache_pressure, prof.mem_intensity, ctx);
                let relative = (ratio / alone).min(1.0);
                let e = core_ratio.entry(id).or_insert((0.0, 0.0));
                e.0 += relative * ctx as f64;
                e.1 += ctx as f64;
            }
        }

        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            let (sum, ctxs) = core_ratio.get(&id).copied().unwrap_or((1.0, 1.0));
            let smt_factor = if ctxs > 0.0 { sum / ctxs } else { 1.0 };
            let bw_others = total_demand - demand[&id];
            let bw_factor = 1.0
                + self.params.bw_interference * self.jobs[&id].profile.mem_intensity * bw_others;
            // Cross-job cache/mesh interference: core-disjoint co-runners
            // slosh each other's tiles through the mesh. Same-core contention
            // is already captured by the SMT share model, so only jobs with
            // no core in common contribute here. A single co-runner is cheap
            // (Table III's 34+34 split wins big); two or more multiply the
            // directory and mesh traffic, which is what keeps three- and
            // four-way co-running from scaling linearly.
            let my_cores: std::collections::BTreeSet<u32> = self.jobs[&id]
                .placement
                .cores
                .iter()
                .map(|&(c, _)| c.0)
                .collect();
            let disjoint: Vec<u64> = self
                .jobs
                .iter()
                .filter(|&(&k, other)| {
                    k != id
                        && other
                            .placement
                            .cores
                            .iter()
                            .all(|&(c, _)| !my_cores.contains(&c.0))
                })
                .map(|(&k, _)| k)
                .collect();
            let cache_others: f64 = disjoint.iter().map(|k| footprint[k]).sum();
            let crowding = if disjoint.len() >= 2 { 6.0 } else { 1.0 };
            let cache_factor = 1.0
                + self.params.cache_interference
                    * crowding
                    * self.jobs[&id].profile.cache_pressure
                    * cache_others;
            let r = self.jobs.get_mut(&id).expect("job exists");
            r.rate = (smt_factor / (bw_factor * cache_factor)).clamp(1e-9, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementRequest, SharingMode};

    fn engine() -> Engine {
        Engine::new(Topology::knl(), KnlParams::default())
    }

    fn conv_profile() -> WorkProfile {
        WorkProfile {
            flops: 2.9e10,
            bytes: 6e8,
            eff: 0.4,
            serial_secs: 3e-4,
            parallel_slack: 90.0,
            cache_affinity: 0.5,
            mem_intensity: 0.5,
            cache_pressure: 0.9,
        }
    }

    #[test]
    fn single_job_finishes_at_nominal() {
        let mut e = engine();
        let req = PlacementRequest::primary(34, SharingMode::Compact);
        e.launch(conv_profile(), 0.020, &req, 1).unwrap();
        let out = e.advance_next().unwrap();
        assert!((out.finish - 0.020).abs() < 1e-12);
        assert_eq!(out.tag, 1);
        assert_eq!(e.free_cores(), 68);
    }

    #[test]
    fn disjoint_compute_jobs_do_not_interfere() {
        let mut e = engine();
        let mut p = conv_profile();
        p.mem_intensity = 0.0;
        p.cache_pressure = 0.0; // no bandwidth demand, no cache footprint
        let req = PlacementRequest::primary(34, SharingMode::Compact);
        e.launch(p, 0.020, &req, 1).unwrap();
        e.launch(p, 0.030, &req, 2).unwrap();
        let o1 = e.advance_next().unwrap();
        let o2 = e.advance_next().unwrap();
        assert!((o1.finish - 0.020).abs() < 1e-9);
        assert!((o2.finish - 0.030).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_contention_slows_both() {
        let mut e = engine();
        let req = PlacementRequest::primary(34, SharingMode::Compact);
        e.launch(conv_profile(), 0.020, &req, 1).unwrap();
        e.launch(conv_profile(), 0.020, &req, 2).unwrap();
        let o1 = e.advance_next().unwrap();
        assert!(
            o1.finish > 0.021,
            "memory contention should stretch the 20ms job, got {}",
            o1.finish
        );
        let o2 = e.advance_next().unwrap();
        assert!(o2.finish >= o1.finish);
    }

    #[test]
    fn ht_corun_of_two_convs_barely_gains() {
        // Paper Table III: serial 68+68 vs hyper-threaded co-run of two
        // cache-hungry convolutions => ~3% gain only.
        let mut e = engine();
        let mut p = conv_profile();
        p.mem_intensity = 0.0; // isolate the SMT effect
        let t_each = 0.020;
        // Serial: one after the other.
        let req = PlacementRequest::primary(68, SharingMode::Compact);
        e.launch(p, t_each, &req, 1).unwrap();
        e.advance_next().unwrap();
        e.launch(p, t_each, &req, 2).unwrap();
        let serial_span = e.advance_next().unwrap().finish;
        assert!((serial_span - 2.0 * t_each).abs() < 1e-9);

        // Co-run on SMT siblings.
        let mut e = engine();
        e.launch(p, t_each, &req, 1).unwrap();
        e.launch(p, t_each, &PlacementRequest::hyper_thread(68), 2)
            .unwrap();
        let span = e.drain().last().unwrap().finish;
        let speedup = serial_span / span;
        assert!(
            (0.90..1.25).contains(&speedup),
            "HT co-run of cache-hungry ops should gain little, got {speedup:.3}x"
        );
    }

    #[test]
    fn streaming_op_scavenges_ht_cycles_cheaply() {
        // Strategy 4's premise: a small memory-stalled op rides the second
        // hardware thread while barely denting the big compute-bound op
        // (the streaming op demands almost no issue slots).
        let mut e = engine();
        let mut big = conv_profile();
        big.mem_intensity = 0.0;
        let mut small = WorkProfile::memory_bound(1e6);
        small.cache_pressure = 0.2;
        let req = PlacementRequest::primary(68, SharingMode::Compact);
        e.launch(big, 0.020, &req, 1).unwrap();
        e.launch(small, 0.001, &PlacementRequest::hyper_thread(8), 2)
            .unwrap();
        let outs = e.drain();
        let big_out = outs.iter().find(|o| o.tag == 1).unwrap();
        assert!(
            big_out.finish < 0.020 * 1.10,
            "big op should lose <10% to the scavenger, got {}",
            big_out.finish
        );
    }

    #[test]
    fn compute_hungry_pair_splits_the_core() {
        // Two compute-bound jobs on SMT siblings each get roughly half.
        let mut e = engine();
        let mut p = conv_profile();
        p.mem_intensity = 0.0;
        e.launch(
            p,
            0.020,
            &PlacementRequest::primary(68, SharingMode::Compact),
            1,
        )
        .unwrap();
        e.launch(p, 0.020, &PlacementRequest::hyper_thread(68), 2)
            .unwrap();
        let span = e.drain().last().unwrap().finish;
        let speedup = 0.040 / span;
        assert!(
            (0.85..1.25).contains(&speedup),
            "cache-hungry SMT pair should roughly tie serial execution, got {speedup:.3}"
        );
    }

    #[test]
    fn trace_records_corunning_counts() {
        let mut e = engine();
        e.record_trace(true);
        let req = PlacementRequest::primary(20, SharingMode::Compact);
        let p = conv_profile();
        e.launch(p, 0.010, &req, 1).unwrap();
        e.launch(p, 0.010, &req, 2).unwrap();
        e.launch(p, 0.010, &req, 3).unwrap();
        e.drain();
        let trace = e.take_trace();
        assert_eq!(trace.len(), 6);
        let starts: Vec<u32> = trace
            .iter()
            .filter(|ev| ev.kind == EventKind::Start)
            .map(|ev| ev.corunning)
            .collect();
        assert_eq!(starts, vec![1, 2, 3]);
        let finishes: Vec<u32> = trace
            .iter()
            .filter(|ev| ev.kind == EventKind::Finish)
            .map(|ev| ev.corunning)
            .collect();
        // The finishing op counts at its own completion instant.
        assert_eq!(finishes, vec![3, 2, 1]);
    }

    #[test]
    fn launch_rejects_bad_nominal() {
        let mut e = engine();
        let req = PlacementRequest::primary(4, SharingMode::Compact);
        assert!(e.launch(conv_profile(), f64::NAN, &req, 0).is_err());
        assert!(e.launch(conv_profile(), -1.0, &req, 0).is_err());
    }

    #[test]
    fn advance_on_empty_engine_is_none() {
        let mut e = engine();
        assert!(e.advance_next().is_none());
    }
}
