//! Cross-thread determinism of the parallel searches.
//!
//! The engine's contract is that parallelism is *invisible* in the answer:
//! for any worker count, the optimizer returns the same vector, the same
//! per-gate choices, and bit-identical leakage/delay as with one worker.
//! These tests pin that contract on small circuits where the searches
//! exhaust their trees.

use std::time::Duration;

use svtox_check::domain::circuit;
use svtox_core::{DelayPenalty, ExecConfig, Mode, Problem};
use svtox_sta::TimingConfig;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn exact_parallel_matches_serial_for_all_thread_counts() {
    let (n, lib) = circuit("pd-exact", 5, 14, 4);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::new(0.10).unwrap(), Mode::Proposed);
    let (serial, _) = opt.exact(8, &ExecConfig::serial()).unwrap();
    for threads in THREAD_COUNTS {
        let exec = ExecConfig::with_threads(threads);
        let (sol, stats) = opt.exact(8, &exec).unwrap();
        assert_eq!(sol.vector, serial.vector, "threads={threads}");
        assert_eq!(sol.choices, serial.choices, "threads={threads}");
        assert_eq!(sol.leakage, serial.leakage, "threads={threads}");
        assert_eq!(sol.delay, serial.delay, "threads={threads}");
        assert!(stats.completed, "threads={threads}");
        assert!(stats.leaves_evaluated() > 0, "threads={threads}");
        sol.verify(&problem).unwrap();
    }
}

#[test]
fn heuristic2_parallel_matches_exhausted_serial_for_all_thread_counts() {
    let (n, lib) = circuit("pd-h2", 8, 40, 6);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    // 8 inputs = 256 leaves: the unbudgeted search exhausts the tree.
    let (serial, _) = opt.heuristic2(&ExecConfig::serial()).unwrap();
    for threads in THREAD_COUNTS {
        let exec = ExecConfig::with_threads(threads);
        let (sol, _stats) = opt.heuristic2(&exec).unwrap();
        assert_eq!(sol.vector, serial.vector, "threads={threads}");
        assert_eq!(sol.choices, serial.choices, "threads={threads}");
        assert_eq!(sol.leakage, serial.leakage, "threads={threads}");
        assert_eq!(sol.delay, serial.delay, "threads={threads}");
        sol.verify(&problem).unwrap();
    }
}

#[test]
fn heuristic2_parallel_is_exec_config_invariant() {
    // Beyond thread counts: an unbudgeted run and a huge-budget run agree,
    // and both modes of the same circuit stay internally consistent.
    let (n, lib) = circuit("pd-cfg", 7, 30, 5);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::new(0.25).unwrap(), Mode::Proposed);
    let (unbudgeted, _) = opt.heuristic2(&ExecConfig::with_threads(3)).unwrap();
    let (budgeted, _) = opt
        .heuristic2(&ExecConfig::with_threads(5).with_time_budget(Duration::from_secs(600)))
        .unwrap();
    assert_eq!(unbudgeted.vector, budgeted.vector);
    assert_eq!(unbudgeted.choices, budgeted.choices);
    assert_eq!(unbudgeted.leakage, budgeted.leakage);
}

#[test]
fn zero_budget_cancels_promptly_and_returns_the_incumbent() {
    let (n, lib) = circuit("pd-cancel", 8, 40, 6);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let h1 = opt.heuristic1().unwrap();
    let exec = ExecConfig::with_threads(4).with_time_budget(Duration::ZERO);
    let (sol, stats) = opt.heuristic2(&exec).unwrap();
    // The budget expired before any improvement pass could run, so the
    // Heuristic 1 incumbent comes back unchanged — no panic, no hang.
    assert_eq!(sol.vector, h1.vector);
    assert_eq!(sol.leakage, h1.leakage);
    assert!(!stats.completed);
    assert_eq!(stats.tasks_skipped() as usize, stats.tasks_total);
    sol.verify(&problem).unwrap();
}

#[test]
fn exact_parallel_rejects_wide_circuits_and_ignores_budgets() {
    let (n, lib) = circuit("pd-wide", 6, 12, 4);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    assert!(opt.exact(4, &ExecConfig::with_threads(2)).is_err());
    // Exact ignores wall-clock budgets: a zero budget still completes.
    let exec = ExecConfig::with_threads(2).with_time_budget(Duration::ZERO);
    let (sol, stats) = opt.exact(8, &exec).unwrap();
    assert!(stats.completed);
    sol.verify(&problem).unwrap();
}
