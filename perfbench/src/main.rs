//! perfbench: the end-to-end and per-layer benchmark of the nnrt serving
//! stack. See `perfbench/README.md` for the workloads, the metrics and the
//! layer map.
//!
//! ```text
//! cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! full record of the run (provenance, quartiles, phases, checks) is the
//! line before it and is also written under `.perfbench/results/`.

mod fleet;
mod host;
mod inputs;
mod ledger;
mod outcome;
mod rpc;
mod stats;
mod trace;

use outcome::{Context, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics and their units, printed with `--trace 0` (the order
/// of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("jobs_per_s", "jobs/s"),
    ("submit_ms_p50", "ms"),
    ("submit_ms_p90", "ms"),
    ("turnaround_ms_p50", "ms"),
    ("turnaround_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_steps_per_s", "steps/s"),
    ("ok_frac", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["fleet-warm", "fleet-cold", "rpc-live"];

/// Where a run leaves its record, spans, report digests and the durable
/// directories of rpc-live, relative to the directory it runs in.
pub const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the program and benchmark sources in the working directory,
/// so a record names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "src", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(PathBuf::from));
    files.sort();
    let mut all = Vec::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            all.extend_from_slice(f.to_string_lossy().as_bytes());
            all.extend_from_slice(&bytes);
        }
    }
    format!("{:016x}", fnv1a(&all))
}

fn git_commit() -> String {
    // Only this directory's own repository, never one around it.
    std::process::Command::new("git")
        .env("GIT_DIR", ".git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-set high-water mark, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Compares this run's report digest with the one an earlier run of the
/// same sources, workload and seed stored, or stores it.
fn check_across_runs(ctx: &Context, digest: u64, out: &mut Outcome) {
    let dir = Path::new(OUT_DIR).join("digests");
    let path = dir.join(format!(
        "{}-{}-{}.txt",
        ctx.workload, ctx.seed, ctx.source_digest
    ));
    let mine = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(earlier) => out.check(
            "report_identical_across_runs",
            earlier.trim() == mine,
            format!("this run {mine}, earlier run {}", earlier.trim()),
        ),
        Err(_) => {
            let stored = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &mine));
            out.notes.push(match stored {
                Ok(()) => {
                    format!("first run of this seed: report digest {mine} stored for later runs")
                }
                Err(e) => format!("report digest {mine} not stored: {e}"),
            });
        }
    }
}

fn write_out(sub: &str, name: &str, text: &str) {
    let dir = Path::new(OUT_DIR).join(sub);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text))
    {
        eprintln!("perfbench: cannot write {}/{name}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark drives the repository's own crates: it must run from
    // the root of a source tree that holds them.
    if !Path::new("crates/serve/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root (crates/serve is missing)");
        return ExitCode::from(2);
    }
    let ctx = Context {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu: cpu_model(),
        git_commit: git_commit(),
        source_digest: source_digest(),
    };
    let mut out = Outcome::default();
    let (digest, spans) = match args.workload.as_str() {
        "fleet-warm" | "fleet-cold" => {
            let kind = if args.workload == "fleet-warm" {
                fleet::Kind::Warm
            } else {
                fleet::Kind::Cold
            };
            let m = fleet::measure(kind, args.seed, args.seconds, args.trace, &mut out);
            out.single("peak_rss_mb", "MB", m.peak_rss_mb, 1);
            fleet::summarize(kind, &m, &mut out);
            if args.trace {
                ledger::fleet(args.seed, &m, &mut out);
            }
            (
                Some(fleet::pass_digest(&m.untraced, m.setup.inputs.plans.len())),
                m.tracer.chrome_trace(),
            )
        }
        _ => {
            let m = rpc::measure(args.seed, args.seconds, args.trace, &mut out);
            out.single("peak_rss_mb", "MB", m.peak_rss_mb, 1);
            rpc::summarize(&m, &mut out);
            if args.trace {
                ledger::rpc(args.seed, &m, &mut out);
            }
            (None, m.tracer.chrome_trace())
        }
    };
    out.single("host.reference_ms", "ms", host::fastest_ms(), 1);
    let totals = out.totals();
    out.single(
        "ok_frac",
        "ratio",
        (totals.attempted - totals.failed) as f64 / totals.attempted.max(1) as f64,
        totals.attempted as usize,
    );
    if let Some(digest) = digest {
        check_across_runs(&ctx, digest, &mut out);
    }
    let stem = format!("{}-seed{}-trace{}", ctx.workload, ctx.seed, ctx.trace as u8);
    if args.trace {
        write_out("spans", &format!("{stem}.json"), &spans);
    }
    let record = outcome::record_json(&ctx, &out);
    write_out("results", &format!("{stem}.json"), &format!("{record}\n"));
    print!("{}", outcome::summary(&ctx, &out));
    println!("{record}");
    let wanted: Vec<(&str, &str)> = if args.trace {
        ledger::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", outcome::result_line(&out, &wanted));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` registers exactly the metrics and workloads this
    /// program prints, in the same order and with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("a list")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("a name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("a list");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(name));
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(unit));
        }
        let per_layer = doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .expect("a list");
        assert_eq!(per_layer.len(), ledger::PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(ledger::PER_LAYER) {
            assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(name));
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(unit));
            assert_eq!(entry.get("better").and_then(|v| v.as_str()), Some(better));
        }
    }
}
