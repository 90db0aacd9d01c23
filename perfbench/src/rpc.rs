//! rpc-live: a `FleetServer` on loopback with eager draining, a durable
//! journal and observability on, driven by one generator thread holding two
//! tenant connections in a closed loop.

use crate::fleet::{self, Ops};
use crate::inputs::{Shape, TenantStream, RPC_MODELS, RPC_STEPS};
use crate::outcome::{Latency, Metric, Outcome, LATENCIES};
use crate::stats::percentile;
use crate::trace::Tracer;
use nnrt_obs::Obs;
use nnrt_rpc::{ClientError, DrainPolicy, FleetServer, RpcClient, ServerConfig, SubmitSpec};
use nnrt_serve::{DurabilityConfig, JobPhase};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs each tenant keeps unfinished. Two tenants keep eight jobs in a
/// fleet with twelve resident slots, so admission never saturates.
const DEPTH: usize = 4;

/// How often a tenant at its depth asks for the status of its oldest job.
const POLL_CADENCE: Duration = Duration::from_millis(2);

/// Completions per window a session is cut into; each window yields a wall
/// time and the latencies of the requests inside it.
pub const WINDOW_COMPLETIONS: usize = 10;

const TENANTS: u64 = 2;

/// Fastest instances of each window that `jobs_per_s` sums and whose
/// requests the latency percentiles pool. One instance per window let
/// `jobs_per_s` spread by a fifth over ten runs on a noisy host; three cut
/// that by a sixth.
const FASTEST_INSTANCES: usize = 3;

/// Jobs each tenant runs per session: two tenants make ten windows.
const SESSION_JOBS: u64 = 50;

/// Host reference samples between sessions (the sessions themselves keep
/// both cores busy).
const HOST_SAMPLES: usize = 3;

/// The admission queue of the served fleet (the server's default).
const QUEUE_CAPACITY: usize = 64;

/// The inputs and the warm store snapshot every session's server starts
/// from.
pub struct Setup {
    pub shapes: Vec<Shape>,
    pub snapshot: String,
    pub ops: Ops,
}

impl Setup {
    pub fn build(seed: u64) -> Setup {
        let mut ops = Ops::default();
        let shapes: Vec<Shape> = RPC_MODELS
            .iter()
            .map(|&(m, b)| Shape::build(m, b))
            .collect();
        let snapshot = fleet::warm_snapshot(&shapes, seed, &mut ops);
        Setup {
            shapes,
            snapshot,
            ops,
        }
    }
}

/// A bound server over a fleet restored from the set-up's snapshot, durable
/// in a directory of its own.
pub struct Server {
    server: FleetServer,
    obs: Arc<Obs>,
    dir: PathBuf,
}

/// The served fleet's configuration: the fleet layout every workload uses,
/// durable in `dir`, observability on.
pub fn fleet_config(seed: u64, dir: PathBuf) -> nnrt_serve::FleetConfig {
    nnrt_serve::FleetConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..fleet::config(seed, QUEUE_CAPACITY)
    }
}

impl Server {
    pub fn bind(setup: &Setup, seed: u64, tag: &str) -> Server {
        let dir = PathBuf::from(crate::OUT_DIR)
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = fleet_config(seed, dir.clone());
        let fleet = fleet::new_fleet(config.clone(), fleet::restored(&setup.snapshot));
        let obs = fleet.obs();
        let server = FleetServer::bind_with_fleet(
            "127.0.0.1:0",
            fleet,
            ServerConfig {
                fleet: config,
                drain: DrainPolicy::Eager,
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        Server { server, obs, dir }
    }

    /// Stops the server (draining whatever is left) and deletes its
    /// durable directory. Returns the `Bye` report, if the shutdown got one.
    pub fn stop(self, ops: &mut Ops) -> Option<String> {
        let bye = RpcClient::connect(self.server.local_addr()).and_then(|mut c| c.shutdown());
        ops.add(bye.is_ok());
        let _ = self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        bye.ok()
    }
}

/// One timed request.
pub struct Call {
    pub kind: &'static str,
    pub sent: Instant,
    pub rtt: f64,
}

/// What one closed-loop session measured.
pub struct Session {
    pub start: Instant,
    pub end: Instant,
    pub calls: Vec<Call>,
    /// (completion observed, turnaround seconds, shape index)
    pub completions: Vec<(Instant, f64, usize)>,
    /// Admitted job ids with their shape index and priority.
    pub admitted: Vec<(u64, usize, u8)>,
    pub submit: Ops,
    pub status: Ops,
    pub protocol_errors: u64,
    pub bye: Option<String>,
    pub shutdown: Ops,
    pub scrape: Ops,
    /// `nnrt_rpc_requests_total{outcome="error"}` from a Metrics scrape.
    pub server_errors: f64,
    pub obs: Arc<Obs>,
    /// The least host reference time read just before the session, ms.
    pub host_ms: f64,
}

struct Tenant {
    client: RpcClient,
    stream: TenantStream,
    outstanding: VecDeque<(u64, Instant, usize)>,
    next_poll: Instant,
    submitted: u64,
}

fn is_protocol_error(e: &ClientError) -> bool {
    !matches!(e, ClientError::Rejected(f) if f.kind == nnrt_rpc::ErrorKind::Saturated)
}

/// Drives the two tenants against `server` until each has had
/// `SESSION_JOBS` jobs admitted and seen them all complete, then shuts the
/// server down and collects its final report. A fixed job count keeps the
/// session's memory the same whatever the host's speed.
pub fn session(server: Server, seed: u64, host_ms: f64, tracer: &mut Tracer) -> Session {
    let addr = server.server.local_addr();
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| Tenant {
            client: RpcClient::connect(addr).expect("connect to the loopback server"),
            stream: TenantStream::new(seed, t),
            outstanding: VecDeque::new(),
            next_poll: Instant::now(),
            submitted: 0,
        })
        .collect();
    let mut s = Session {
        start: Instant::now(),
        end: Instant::now(),
        calls: Vec::new(),
        completions: Vec::new(),
        admitted: Vec::new(),
        submit: Ops::default(),
        status: Ops::default(),
        protocol_errors: 0,
        bye: None,
        shutdown: Ops::default(),
        scrape: Ops::default(),
        server_errors: 0.0,
        obs: server.obs.clone(),
        host_ms,
    };
    while tenants
        .iter()
        .any(|t| t.submitted < SESSION_JOBS || !t.outstanding.is_empty())
    {
        let mut acted = false;
        for (t, tenant) in tenants.iter_mut().enumerate() {
            let now = Instant::now();
            if tenant.outstanding.len() < DEPTH && tenant.submitted < SESSION_JOBS {
                let (shape, priority) = tenant.stream.next_job();
                let (model, batch) = RPC_MODELS[shape];
                let spec = SubmitSpec {
                    name: format!("t{t}-{}", tenant.submitted),
                    model: model.to_string(),
                    batch: batch as u64,
                    steps: RPC_STEPS,
                    priority,
                    weight: 1.0,
                };
                let span = tracer.open("rpc.submit", None, None);
                let sent = Instant::now();
                let result = tenant.client.submit(&spec);
                let rtt = sent.elapsed().as_secs_f64();
                tracer.close(span);
                s.calls.push(Call {
                    kind: "submit",
                    sent,
                    rtt,
                });
                tenant.submitted += 1;
                s.submit.add(result.is_ok());
                match result {
                    Ok(id) => {
                        tenant.outstanding.push_back((id, sent, shape));
                        s.admitted.push((id, shape, priority));
                    }
                    Err(e) => s.protocol_errors += u64::from(is_protocol_error(&e)),
                }
                acted = true;
            } else if !tenant.outstanding.is_empty() && now >= tenant.next_poll {
                let (id, submitted_at, shape) = tenant.outstanding[0];
                let span = tracer.open("rpc.status", None, Some(id));
                let sent = Instant::now();
                let result = tenant.client.status(id);
                let rtt = sent.elapsed().as_secs_f64();
                tracer.close(span);
                s.calls.push(Call {
                    kind: "status",
                    sent,
                    rtt,
                });
                s.status.add(result.is_ok());
                match result {
                    Ok(status) if status.phase == JobPhase::Completed => {
                        let seen = Instant::now();
                        s.completions.push((
                            seen,
                            seen.duration_since(submitted_at).as_secs_f64(),
                            shape,
                        ));
                        tenant.outstanding.pop_front();
                    }
                    Ok(_) => tenant.next_poll = Instant::now() + POLL_CADENCE,
                    Err(e) => {
                        s.protocol_errors += u64::from(is_protocol_error(&e));
                        tenant.next_poll = Instant::now() + POLL_CADENCE;
                    }
                }
                acted = true;
            }
        }
        if !acted {
            let wake = tenants
                .iter()
                .filter(|t| !t.outstanding.is_empty())
                .map(|t| t.next_poll)
                .min();
            if let Some(wake) = wake {
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            }
        }
    }
    s.end = Instant::now();
    let scrape = tenants[0].client.metrics();
    s.scrape.add(scrape.is_ok());
    if let Ok(text) = scrape {
        s.server_errors = nnrt_obs::parse_exposition(&text)
            .map(|e| e.sum("nnrt_rpc_requests_total", &[("outcome", "error")]))
            .unwrap_or(f64::NAN);
    }
    drop(tenants);
    let mut shutdown = Ops::default();
    s.bye = server.stop(&mut shutdown);
    s.shutdown = shutdown;
    s
}

/// One window of a session: its wall time, and the latencies of the
/// submits sent and the turnarounds completed inside it, ms.
#[derive(Clone)]
pub struct Window {
    pub secs: f64,
    pub submits: Vec<f64>,
    pub turnarounds: Vec<f64>,
}

impl Window {
    fn series(&self, latency: Latency) -> &[f64] {
        match latency {
            Latency::Submit => &self.submits,
            Latency::Turnaround => &self.turnarounds,
        }
    }
}

impl Session {
    pub fn wall_secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn rtts(&self, kind: &str) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.rtt)
            .collect()
    }

    /// Cuts the session at every `WINDOW_COMPLETIONS`-th observed
    /// completion.
    pub fn windows(&self) -> Vec<Window> {
        let mut windows = Vec::new();
        let mut from = self.start;
        for chunk in self.completions.chunks_exact(WINDOW_COMPLETIONS) {
            let to = chunk[WINDOW_COMPLETIONS - 1].0;
            let submits: Vec<f64> = self
                .calls
                .iter()
                .filter(|c| c.kind == "submit" && c.sent >= from && c.sent < to)
                .map(|c| c.rtt * 1e3)
                .collect();
            windows.push(Window {
                secs: to.duration_since(from).as_secs_f64(),
                submits,
                turnarounds: chunk.iter().map(|&(_, secs, _)| secs * 1e3).collect(),
            });
            from = to;
        }
        windows
    }
}

/// What an rpc-live run leaves for the per-layer ledger.
pub struct Measured {
    pub setup: Setup,
    pub untraced: Vec<Session>,
    /// The process's RSS high-water mark after every untraced session, MB.
    /// Sessions are all the same size and keep little, so the mark depends
    /// on the work and not on how many sessions fitted in the run (reading
    /// it after the first session alone left it to that session's timing).
    pub peak_rss_mb: f64,
    pub traced: Vec<Session>,
    pub tracer: Tracer,
}

/// Sets up `SETUP_REPS` times (timing each: inputs, warm store, restore
/// and bind), then runs sessions on fresh servers until `seconds` have
/// passed, at least two. A traced run alternates untraced and traced
/// sessions.
pub fn measure(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) -> Measured {
    let mut setup_secs = Vec::new();
    let mut last = None;
    for rep in 0..fleet::SETUP_REPS {
        drop(last.take());
        let host_ms = crate::host::sample();
        let t = Instant::now();
        let setup = Setup::build(seed);
        let server = Server::bind(&setup, seed, &format!("setup{rep}"));
        setup_secs.push((t.elapsed().as_secs_f64(), host_ms));
        out.phase("setup", setup.ops);
        let mut ops = Ops::default();
        server.stop(&mut ops);
        out.phase("setup", ops);
        last = Some(setup);
    }
    fleet::setup_metric(out, &setup_secs);
    let setup = last.expect("at least one set-up");
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, true);
    let mut off = Tracer::new(origin, false);
    let mut untraced = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let mut traced = Vec::new();
    while untraced.len() + traced.len() < 2 || origin.elapsed().as_secs_f64() < seconds as f64 {
        let n = untraced.len() + traced.len();
        let host_ms = (0..HOST_SAMPLES)
            .map(|_| crate::host::sample_both_cores())
            .fold(f64::INFINITY, f64::min);
        let server = Server::bind(&setup, seed, &format!("session{n}"));
        if trace && n % 2 == 1 {
            traced.push(session(server, seed, host_ms, &mut tracer));
        } else {
            untraced.push(session(server, seed, host_ms, &mut off));
            peak_rss_mb = crate::peak_rss_mb();
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

/// Window by window, the `k` instances that took the least time over the
/// sessions. Every session runs the same job streams, so window `i` of each
/// covers about the same jobs; other tenants of a shared host only ever add
/// time, so the least-disturbed instances are the ones that recur from run
/// to run.
pub fn fastest(sessions: &[Session], k: usize) -> Vec<Window> {
    let all: Vec<Vec<Window>> = sessions.iter().map(Session::windows).collect();
    let n = all.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .flat_map(|i| {
            let mut instances: Vec<&Window> = all.iter().map(|w| &w[i]).collect();
            instances.sort_by(|a, b| a.secs.total_cmp(&b.secs));
            instances.into_iter().take(k).cloned().collect::<Vec<_>>()
        })
        .collect()
}

/// The host slowdown the sessions' fastest windows are scaled by: the
/// least reference time read before any of the sessions, as the windows
/// are the least-disturbed of all the sessions.
pub fn slowdown(sessions: &[Session]) -> f64 {
    crate::host::slowdown(
        sessions
            .iter()
            .map(|s| s.host_ms)
            .fold(f64::INFINITY, f64::min),
    )
}

/// Jobs of the fastest window instances over their summed wall time:
/// scaled to the quiet reference host, and as measured.
pub fn jobs_per_s(sessions: &[Session]) -> (f64, f64) {
    let windows = fastest(sessions, FASTEST_INSTANCES);
    let raw =
        (windows.len() * WINDOW_COMPLETIONS) as f64 / windows.iter().map(|w| w.secs).sum::<f64>();
    (raw * slowdown(sessions), raw)
}

/// End-to-end metrics and output checks of rpc-live.
pub fn summarize(m: &Measured, out: &mut Outcome) {
    let best = fastest(&m.untraced, FASTEST_INSTANCES);
    let raw: Vec<Window> = m.untraced.iter().flat_map(Session::windows).collect();
    out.reps = m.untraced.len();
    let completions: usize = m.untraced.iter().map(|s| s.completions.len()).sum();
    let (scaled, unscaled) = jobs_per_s(&m.untraced);
    out.metrics.push(Metric {
        name: "jobs_per_s".to_string(),
        unit: "jobs/s",
        value: scaled,
        samples: raw
            .iter()
            .map(|w| WINDOW_COMPLETIONS as f64 / w.secs)
            .collect(),
        count: completions,
        raw: Some(unscaled),
    });
    for (name, series, q) in LATENCIES {
        let pooled: Vec<f64> = best
            .iter()
            .flat_map(|w| w.series(series).iter().copied())
            .collect();
        out.metrics.push(Metric {
            name: name.to_string(),
            unit: "ms",
            value: percentile(&pooled, q) / slowdown(&m.untraced),
            samples: raw
                .iter()
                .filter(|w| !w.series(series).is_empty())
                .map(|w| percentile(w.series(series), q))
                .collect(),
            count: pooled.len(),
            raw: Some(percentile(&pooled, q)),
        });
    }

    let mut sim = Vec::new();
    let mut lost = Vec::new();
    for (i, s) in m.untraced.iter().chain(&m.traced).enumerate() {
        out.phase("submit", s.submit);
        out.phase("status", s.status);
        out.phase("metrics", s.scrape);
        out.phase("shutdown", s.shutdown);
        let report = s
            .bye
            .as_deref()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok());
        if i < m.untraced.len() {
            sim.push(
                report
                    .as_ref()
                    .and_then(|r| r.get("steps_per_sec"))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN),
            );
        }
        let mut reported: Vec<u64> = report
            .as_ref()
            .and_then(|r| r.get("jobs"))
            .and_then(|j| j.as_array())
            .map(|jobs| {
                jobs.iter()
                    .filter_map(|j| j.get("id").and_then(|id| id.as_f64()))
                    .map(|id| id as u64)
                    .collect()
            })
            .unwrap_or_default();
        reported.sort_unstable();
        let mut admitted: Vec<u64> = s.admitted.iter().map(|&(id, _, _)| id).collect();
        admitted.sort_unstable();
        if s.bye.is_none() || reported != admitted || s.completions.len() != admitted.len() {
            lost.push(format!(
                "session {i}: {} admitted, {} observed complete, {} in the Bye report",
                admitted.len(),
                s.completions.len(),
                reported.len()
            ));
        }
        if s.protocol_errors != 0 || s.server_errors != 0.0 {
            lost.push(format!("session {i}: {} protocol errors on the clients, {} in nnrt_rpc_requests_total{{outcome=\"error\"}}", s.protocol_errors, s.server_errors));
        }
    }
    out.median_of("sim_steps_per_s", "steps/s", sim, m.untraced.len());
    let sessions = m.untraced.len() + m.traced.len();
    out.check(
        "bye_report_counts_every_admission",
        lost.iter().all(|l| !l.contains("Bye")),
        format!("{sessions} sessions of {} jobs", TENANTS * SESSION_JOBS),
    );
    out.check(
        "no_protocol_errors",
        lost.iter().all(|l| !l.contains("protocol")),
        "client errors other than Saturated, and server error outcomes".to_string(),
    );
    out.check(
        "every_admitted_job_completes",
        lost.is_empty(),
        if lost.is_empty() {
            "all sessions clean".to_string()
        } else {
            lost.join("; ")
        },
    );
}
