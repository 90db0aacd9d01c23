//! Offline list scheduling of a task DAG over pools of lanes.
//!
//! The one event loop behind the GPU stream runtime and the multi-node
//! cluster simulator. Resources are data: a [`Pool`] is a set of identical
//! lanes sharing one capacity (a device's CUDA streams; a node's compute
//! lane or an interconnect link is a one-lane pool). Each [`Task`] is pinned
//! to a pool and waits for its predecessors.
//!
//! * **Dispatch.** Pools and lanes go in index order. Each idle lane takes
//!   the best ready task of its pool (priority descending, then lower task
//!   index) whose demand still fits the pool's budget. An idle pool always
//!   admits, so every DAG makes progress.
//! * **Contention.** A pool's *stretch* is `max(1, Σ demand)` over its
//!   running tasks; every running task proceeds at `1 / stretch` of its solo
//!   rate. A running task keeps an absolute finish time, re-projected only
//!   when its pool's stretch changes, so zero-demand pools compute
//!   `start + work` exactly.
//! * **Completion.** The clock advances to the earliest finish, and every
//!   task with `finish <= now` completes, in (pool, lane) order, releasing
//!   its successors into their pools' ready lists.
//!
//! Everything is deterministic f64 arithmetic in fixed index order, so a
//! schedule is a pure function of its inputs.

use std::cmp::Reverse;

/// One schedulable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Index of the pool the task runs in.
    pub pool: usize,
    /// Seconds the task takes at stretch 1 (alone, or within capacity).
    pub work: f64,
    /// Share of its pool's capacity the task occupies while it runs.
    pub demand: f64,
    /// Tasks that must complete before this one starts.
    pub preds: Vec<usize>,
}

/// A set of identical lanes sharing one capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pool {
    /// Tasks the pool runs at once.
    pub lanes: usize,
    /// A task starts next to running ones only if the pool's summed demand
    /// stays within this budget.
    pub demand_budget: f64,
}

impl Pool {
    /// One lane, no budget: a serial resource.
    pub const SERIAL: Pool = Pool {
        lanes: 1,
        demand_budget: f64::INFINITY,
    };
}

/// One executed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Index of the task.
    pub task: usize,
    /// Lane of the task's pool it ran on.
    pub lane: usize,
    /// Start time, seconds.
    pub start: f64,
    /// Finish time, seconds.
    pub finish: f64,
}

/// Schedules `tasks` over `pools`, preferring higher `priority` (ties to
/// the lower task index). Returns one span per task, in dispatch order.
///
/// # Panics
///
/// If the task graph has a cycle (or a pool with no lanes holds tasks), or
/// a priority is NaN.
pub fn list_schedule(tasks: &[Task], pools: &[Pool], priority: &[f64]) -> Vec<Span> {
    let n = tasks.len();
    assert_eq!(priority.len(), n, "one priority per task");
    assert!(!priority.iter().any(|p| p.is_nan()), "NaN priority");
    let succs = successors(tasks);
    let mut pred_left: Vec<usize> = tasks.iter().map(|t| t.preds.len()).collect();
    // Per pool, ready tasks sorted ascending: the best one is last.
    let mut ready: Vec<Vec<usize>> = vec![Vec::new(); pools.len()];
    let release = |ready: &mut Vec<Vec<usize>>, i: usize| {
        let key = |j: usize| (priority[j], Reverse(j));
        let list = &mut ready[tasks[i].pool];
        let at = list.partition_point(|&j| key(j) < key(i));
        list.insert(at, i);
    };
    for i in (0..n).filter(|&i| pred_left[i] == 0) {
        release(&mut ready, i);
    }
    // Per pool and lane, the running task's span and projected finish,
    // which goes into the span when the task completes.
    let mut running: Vec<Vec<Option<(usize, f64)>>> =
        pools.iter().map(|p| vec![None; p.lanes]).collect();
    let mut stretch = vec![1.0f64; pools.len()];
    // Pools where a task completed or became ready: only these can change.
    let mut touched = vec![true; pools.len()];
    let mut spans: Vec<Span> = Vec::with_capacity(n);
    let mut now = 0.0f64;
    let mut done = 0usize;
    while done < n {
        for (p, pool) in pools.iter().enumerate() {
            if !std::mem::take(&mut touched[p]) {
                continue;
            }
            let busy = &mut running[p];
            let mut demand: f64 = busy
                .iter()
                .flatten()
                .map(|&(k, _)| tasks[spans[k].task].demand)
                .sum();
            let mut idle = busy.iter().all(Option::is_none);
            let first_new = spans.len();
            for (lane, slot) in busy.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let list = &mut ready[p];
                let fits = |&i: &usize| idle || demand + tasks[i].demand <= pool.demand_budget;
                let Some(pos) = list.iter().rposition(fits) else {
                    break;
                };
                let task = list.remove(pos);
                demand += tasks[task].demand;
                idle = false;
                *slot = Some((spans.len(), now));
                spans.push(Span {
                    task,
                    lane,
                    start: now,
                    finish: now,
                });
            }
            let s = demand.max(1.0);
            for (k, finish) in busy.iter_mut().flatten() {
                if *k >= first_new {
                    *finish = now + tasks[spans[*k].task].work * s;
                } else if s != stretch[p] {
                    *finish = now + (*finish - now) / stretch[p] * s;
                }
            }
            stretch[p] = s;
        }
        let next = running
            .iter()
            .flatten()
            .flatten()
            .map(|&(_, finish)| finish)
            .fold(f64::INFINITY, f64::min);
        assert!(
            next.is_finite(),
            "deadlock: {done}/{n} tasks done but nothing is running"
        );
        now = now.max(next);
        for slot in running.iter_mut().flatten() {
            let Some((k, finish)) = *slot else { continue };
            if finish <= now {
                *slot = None;
                spans[k].finish = finish;
                done += 1;
                let task = spans[k].task;
                touched[tasks[task].pool] = true;
                for &s in &succs[task] {
                    pred_left[s] -= 1;
                    if pred_left[s] == 0 {
                        release(&mut ready, s);
                        touched[tasks[s].pool] = true;
                    }
                }
            }
        }
    }
    spans
}

/// Bottom level of every task: its work plus the longest chain of
/// successor work below it, the critical-path priority.
///
/// # Panics
///
/// If the task graph has a cycle.
pub fn bottom_levels(tasks: &[Task]) -> Vec<f64> {
    let succs = successors(tasks);
    // Kahn over the reversed DAG, sinks first: a task's level is its work
    // plus the max level among its successors.
    let mut succ_left: Vec<usize> = succs.iter().map(Vec::len).collect();
    let mut levels = vec![0.0f64; tasks.len()];
    let mut stack: Vec<usize> = (0..tasks.len()).filter(|&i| succ_left[i] == 0).collect();
    let mut processed = 0usize;
    while let Some(i) = stack.pop() {
        processed += 1;
        levels[i] += tasks[i].work;
        for &p in &tasks[i].preds {
            if levels[i] > levels[p] {
                levels[p] = levels[i];
            }
            succ_left[p] -= 1;
            if succ_left[p] == 0 {
                stack.push(p);
            }
        }
    }
    assert_eq!(processed, tasks.len(), "task graph must be acyclic");
    levels
}

fn successors(tasks: &[Task]) -> Vec<Vec<usize>> {
    let mut succs = vec![Vec::new(); tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        for &p in &t.preds {
            succs[p].push(i);
        }
    }
    succs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(pool: usize, work: f64, preds: &[usize]) -> Task {
        Task {
            pool,
            work,
            demand: 0.0,
            preds: preds.to_vec(),
        }
    }

    fn makespan(spans: &[Span]) -> f64 {
        spans.iter().map(|s| s.finish).fold(0.0, f64::max)
    }

    #[test]
    fn a_serial_pool_runs_one_task_at_a_time() {
        let tasks = [task(0, 1.0, &[]), task(0, 2.0, &[]), task(0, 3.0, &[0, 1])];
        let spans = list_schedule(&tasks, &[Pool::SERIAL], &[0.0, -1.0, -2.0]);
        assert_eq!(makespan(&spans), 6.0);
    }

    #[test]
    fn independent_pools_overlap() {
        let tasks = [task(0, 2.0, &[]), task(1, 2.0, &[])];
        let spans = list_schedule(&tasks, &[Pool::SERIAL; 2], &[0.0, 0.0]);
        assert_eq!(makespan(&spans), 2.0);
    }

    #[test]
    fn priority_reorders_a_ready_list() {
        let tasks = [task(0, 1.0, &[]), task(0, 1.0, &[])];
        // Priority favors task 1: it must start first.
        let spans = list_schedule(&tasks, &[Pool::SERIAL], &[0.0, 1.0]);
        assert_eq!(spans[0].task, 1);
        assert!(spans[0].start < spans[1].start);
    }

    #[test]
    fn admission_control_respects_the_demand_budget() {
        // Eight identical independent tasks on four lanes: at demand 0.56
        // and budget 1.15 only two fit together, running at stretch 1.12.
        let tasks: Vec<Task> = (0..8)
            .map(|_| Task {
                demand: 0.56,
                ..task(0, 1.0, &[])
            })
            .collect();
        let pool = Pool {
            lanes: 4,
            demand_budget: 1.15,
        };
        let spans = list_schedule(&tasks, &[pool], &[0.0; 8]);
        for s in &spans {
            let corunning = spans
                .iter()
                .filter(|o| o.start <= s.start && s.start < o.finish)
                .count();
            assert!(corunning <= 2, "task {} started beside {corunning}", s.task);
        }
        assert!((makespan(&spans) - 4.0 * 1.12).abs() < 1e-12);
    }

    #[test]
    fn a_task_over_budget_still_runs_on_an_idle_pool() {
        let tasks = [Task {
            demand: 3.0,
            ..task(0, 1.0, &[])
        }];
        let pool = Pool {
            lanes: 2,
            demand_budget: 1.0,
        };
        let spans = list_schedule(&tasks, &[pool], &[0.0]);
        assert_eq!(makespan(&spans), 3.0, "runs alone, stretched by its demand");
    }

    #[test]
    fn stretch_changes_reproject_running_tasks() {
        // Two tasks at demand 1 share the pool at half rate; when the short
        // one finishes the long one speeds back up.
        let tasks: Vec<Task> = [1.0, 3.0]
            .iter()
            .map(|&w| Task {
                demand: 1.0,
                ..task(0, w, &[])
            })
            .collect();
        let pool = Pool {
            lanes: 2,
            demand_budget: f64::INFINITY,
        };
        let spans = list_schedule(&tasks, &[pool], &[0.0, 0.0]);
        assert_eq!(spans[0].finish, 2.0);
        assert_eq!(spans[1].finish, 4.0);
    }

    #[test]
    fn bottom_levels_follow_the_longest_chain() {
        let tasks = [
            task(0, 1.0, &[]),
            task(0, 2.0, &[0]),
            task(1, 5.0, &[0]),
            task(0, 1.0, &[1]),
        ];
        assert_eq!(bottom_levels(&tasks), vec![6.0, 3.0, 5.0, 1.0]);
    }
}
