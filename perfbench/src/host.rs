//! How fast the host is while a run measures.
//!
//! Other tenants of a shared host slow every process on it, by up to half
//! again for minutes at a time, which no choice among the repetitions of one
//! run can undo. So before every repetition the run also times a fixed
//! computation that uses no code of the repository. A timing read from the
//! least-disturbed repetitions is scaled by the same reading of the
//! reference (its least time before those repetitions) against
//! `REFERENCE_MS`, its time on a quiet host. The record keeps the unscaled
//! values too.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The reference computation's fastest time on a quiet 2-core Xeon VM, ms.
pub const REFERENCE_MS: f64 = 2.75;

static FASTEST_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Runs the reference computation once (an ordered map, a sort and a float
/// sum over seeded data) and returns its time, ms.
pub fn sample() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x1234_5678;
    let mut map = std::collections::BTreeMap::new();
    let mut v: Vec<f64> = Vec::with_capacity(20_000);
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
        v.push((x >> 11) as f64 * 1e-9);
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let sum: f64 = v.iter().zip(map.values()).map(|(a, &b)| a * b as f64).sum();
    black_box(sum);
    let ns = t.elapsed().as_nanos() as u64;
    FASTEST_NS.fetch_min(ns, Ordering::Relaxed);
    ns as f64 * 1e-6
}

/// Runs the reference computation on two threads at once and returns the
/// slower one's time, ms: how fast the host is for a workload that keeps
/// both cores of a 2-core host busy.
pub fn sample_both_cores() -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(sample);
        let mine = sample();
        mine.max(
            other
                .join()
                .expect("the reference computation does not panic"),
        )
    })
}

/// The fastest reference time of this run, ms.
pub fn fastest_ms() -> f64 {
    FASTEST_NS.load(Ordering::Relaxed) as f64 * 1e-6
}

/// How much slower than the quiet host a reference time of `ms` shows the
/// host to be.
pub fn slowdown(ms: f64) -> f64 {
    ms / REFERENCE_MS
}

/// Median of `values`, each divided by the slowdown its reference reading
/// shows, and the median of the values as measured.
pub fn scaled_median(values: &[(f64, f64)]) -> (f64, f64) {
    let scaled: Vec<f64> = values.iter().map(|&(v, ms)| v / slowdown(ms)).collect();
    let raw: Vec<f64> = values.iter().map(|&(v, _)| v).collect();
    (crate::stats::median(&scaled), crate::stats::median(&raw))
}
