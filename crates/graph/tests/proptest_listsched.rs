//! Property tests for the list scheduler over random DAGs and pools.

use nnrt_graph::listsched::{list_schedule, Pool, Span, Task};
use proptest::prelude::*;

/// A random DAG over up to four pools, with random priorities. Work is
/// strictly positive, so a span that finished is never counted as running.
fn arb_case() -> impl Strategy<Value = (Vec<Pool>, Vec<Task>, Vec<f64>)> {
    let pools =
        proptest::collection::vec((1usize..=3, 0.5f64..2.0, 0u32..3), 1..=4).prop_map(|pools| {
            pools
                .into_iter()
                .map(|(lanes, budget, open)| Pool {
                    lanes,
                    demand_budget: if open == 0 { f64::INFINITY } else { budget },
                })
                .collect::<Vec<_>>()
        });
    let tasks = proptest::collection::vec(
        (
            0usize..4,
            0.01f64..10.0,
            0.0f64..1.0,
            0usize..=3,
            0u64..1000,
            -5i32..5,
        ),
        1..=40,
    );
    (pools, tasks).prop_map(|(pools, raw)| {
        let mut tasks = Vec::new();
        let mut priority = Vec::new();
        for (i, (pool, work, demand, npreds, salt, prio)) in raw.into_iter().enumerate() {
            let mut preds: Vec<usize> = (0..npreds.min(i))
                .map(|d| (salt as usize + d * 7) % i)
                .collect();
            preds.sort_unstable();
            preds.dedup();
            tasks.push(Task {
                pool: pool % pools.len(),
                work,
                demand,
                preds,
            });
            priority.push(prio as f64);
        }
        (pools, tasks, priority)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schedules_respect_dependencies_lanes_and_budgets(case in arb_case()) {
        let (pools, tasks, priority) = case;
        let spans = list_schedule(&tasks, &pools, &priority);
        prop_assert_eq!(spans.len(), tasks.len());
        let mut of_task: Vec<Option<Span>> = vec![None; tasks.len()];
        for s in &spans {
            prop_assert!(of_task[s.task].is_none(), "task {} ran twice", s.task);
            prop_assert!(s.lane < pools[tasks[s.task].pool].lanes);
            prop_assert!(s.start < s.finish);
            of_task[s.task] = Some(*s);
        }
        // Every predecessor finishes before its successor starts.
        for (i, t) in tasks.iter().enumerate() {
            for &p in &t.preds {
                let (pred, succ) = (of_task[p].unwrap(), of_task[i].unwrap());
                prop_assert!(pred.finish <= succ.start, "edge {p}->{i}: {pred:?} vs {succ:?}");
            }
        }
        for (k, s) in spans.iter().enumerate() {
            let pool = tasks[s.task].pool;
            // Spans dispatched earlier in the same pool and still running.
            let beside: Vec<&Span> = spans[..k]
                .iter()
                .filter(|o| tasks[o.task].pool == pool && o.finish > s.start)
                .collect();
            // A lane runs one task at a time.
            prop_assert!(
                beside.iter().all(|o| o.lane != s.lane),
                "lane {} of pool {pool} overlaps at task {}", s.lane, s.task
            );
            // The budget holds at every start, unless the pool was idle.
            if !beside.is_empty() {
                let demand: f64 = beside.iter().map(|o| tasks[o.task].demand).sum::<f64>()
                    + tasks[s.task].demand;
                prop_assert!(
                    demand <= pools[pool].demand_budget + 1e-9,
                    "task {} started at demand {demand} over budget {}",
                    s.task,
                    pools[pool].demand_budget
                );
            }
        }
    }

    #[test]
    fn a_zero_demand_chain_on_one_lane_finishes_at_its_work_sum(
        work in proptest::collection::vec(0.0f64..10.0, 1..=50),
    ) {
        let tasks: Vec<Task> = work
            .iter()
            .enumerate()
            .map(|(i, &w)| Task {
                pool: 0,
                work: w,
                demand: 0.0,
                preds: if i == 0 { vec![] } else { vec![i - 1] },
            })
            .collect();
        let spans = list_schedule(&tasks, &[Pool::SERIAL], &vec![0.0; tasks.len()]);
        let makespan = spans.iter().map(|s| s.finish).fold(0.0, f64::max);
        prop_assert_eq!(makespan, work.iter().sum::<f64>());
    }
}
