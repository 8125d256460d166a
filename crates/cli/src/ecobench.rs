//! The `svtox bench eco` measurement: warm-seeded ECO re-optimization vs
//! a cold restart after a local netlist edit.
//!
//! For each bench circuit the bench optimizes the pristine netlist once
//! (the solution an ECO flow would have on hand), applies a standard edit
//! script (adds, a removal, PO-driver rewires — the shape of a typical
//! engineering change order), and then races two engines on the post-edit
//! problem at the same deadline:
//!
//! * **cold** — the plain parallel branch and bound, seeded by Heuristic 1
//!   only;
//! * **eco** — [`svtox_core::Optimizer::rerun_after_edit`], which
//!   additionally re-evaluates the pre-edit solution's vector as a
//!   feasible incumbent before searching.
//!
//! Both runs expose their live incumbent through a caller-owned
//! [`SharedMinF64`]; a watcher thread samples it into a (time, cost)
//! trajectory. The score is *time to quality*: with `Q` the worse of the
//! two final costs (a quality level both engines provably reached),
//! `speedup = t_cold(Q) / t_eco(Q)`. The minimum per-circuit speedup is
//! the headline [`Bench::Eco`]'s gate reads: warm reuse must pay for
//! itself on every circuit.

use std::error::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{
    DelayPenalty, ExecConfig, Mode, OptError, Problem, RetryPolicy, SharedMinF64, Solution,
};
use svtox_netlist::generators::benchmark;
use svtox_netlist::{EditScript, Netlist};
use svtox_obs::json::Value;
use svtox_sta::TimingConfig;
use svtox_tech::Technology;

use crate::bench::{num, obj, Bench, Record, CIRCUITS};
use crate::CliError;

/// Floor applied to measured times before dividing, in milliseconds: one
/// watcher sampling period, so a warm seed that lands inside the first
/// sample neither divides by zero nor inflates the ratio, and two runs
/// that both reach the target instantly score 1.0, not 0.
const MIN_MS: f64 = 0.5;

/// Relative slack when matching a trajectory point against the target
/// cost (float noise between the shared cell and the final solution).
const REL_EPS: f64 = 1e-9;

/// The standard bench edit script for a circuit: two added gates feeding
/// a rewired primary-output driver, a second rewire on another output,
/// and an add-then-remove pair (so every op class except `retag`, whose
/// PO renaming would complicate the µA comparison, is exercised).
fn standard_edit_script(netlist: &Netlist) -> String {
    let pi = |i: usize| netlist.net(netlist.inputs()[i]).name().to_string();
    let po = |i: usize| netlist.net(netlist.outputs()[i]).name().to_string();
    format!(
        "# eco-bench standard edit script\n\
         add ecob_t0 = NAND({}, {})\n\
         add ecob_t1 = NOT(ecob_t0)\n\
         add ecob_scratch = NOR({}, {})\n\
         remove ecob_scratch\n\
         rewire {} 0 ecob_t1\n\
         rewire {} 0 ecob_t0\n",
        pi(0),
        pi(1),
        pi(2),
        pi(3),
        po(0),
        po(1),
    )
}

/// A search-incumbent trajectory: (milliseconds since start, cost) pairs,
/// strictly decreasing in cost.
type Trajectory = Vec<(f64, f64)>;

/// First trajectory time at which the cost reached `target`, or the
/// deadline if it never did (cannot happen for the run that produced
/// `target`, by construction).
fn time_to(traj: &Trajectory, target: f64, deadline_ms: f64) -> f64 {
    let slack = target.abs() * REL_EPS + f64::EPSILON;
    traj.iter()
        .find(|(_, cost)| *cost <= target + slack)
        .map_or(deadline_ms, |(t, _)| *t)
}

/// Runs `run` with a caller-owned incumbent cell while a watcher thread
/// samples the cell into a trajectory.
fn trace_run<F>(run: F) -> Result<(Trajectory, Solution), CliError>
where
    F: FnOnce(&SharedMinF64) -> Result<Solution, OptError>,
{
    let shared = SharedMinF64::new(f64::INFINITY);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut points: Trajectory = Vec::new();
            let mut last = f64::INFINITY;
            loop {
                let finished = done.load(Ordering::Acquire);
                let cost = shared.get();
                if cost < last {
                    points.push((start.elapsed().as_secs_f64() * 1e3, cost));
                    last = cost;
                }
                if finished {
                    return points;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let result = run(&shared);
        done.store(true, Ordering::Release);
        let traj = watcher.join().expect("watcher thread panicked");
        result
            .map(|solution| (traj, solution))
            .map_err(|e| CliError(e.to_string()))
    })
}

/// Runs the cold and warm engines on every suite circuit at the same
/// deadline and scores time-to-quality.
///
/// # Errors
///
/// Returns an error if a circuit or the library fails to build, or if
/// either engine fails outright.
pub fn run_eco_bench(deadline: Duration, threads: usize) -> Result<Record, Box<dyn Error>> {
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
    let exec = ExecConfig::with_threads(threads)
        .with_time_budget(deadline)
        .with_retries(RetryPolicy::resilient());
    let penalty = DelayPenalty::new(0.05)?;
    let deadline_ms = deadline.as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for name in CIRCUITS {
        let pre = benchmark(name)?;
        let pre_problem = Problem::new(&pre, &library, TimingConfig::default())?;
        let pre_opt = pre_problem.optimizer(penalty, Mode::Proposed);
        let (prev, _) = pre_opt
            .heuristic2(&exec)
            .map_err(|e| CliError(format!("{name} (pre-edit): {e}")))?;

        let script = EditScript::parse(&standard_edit_script(&pre))
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let mut post = pre.clone();
        let trace = script
            .apply(&mut post)
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let post_problem = Problem::new(&post, &library, TimingConfig::default())?;
        let post_opt = post_problem.optimizer(penalty, Mode::Proposed);

        let (cold_traj, cold) = trace_run(|shared| {
            post_opt
                .heuristic2_warm(&exec, &[], Some(shared))
                .map(|(solution, _, _)| solution)
        })
        .map_err(|e| CliError(format!("{name} (cold): {e}")))?;
        let mut warm_stats = None;
        let (eco_traj, eco) = trace_run(|shared| {
            post_opt
                .rerun_after_edit(&exec, Some(&prev), &trace, None, Some(shared))
                .map(|report| {
                    warm_stats = Some((report.warm, report.carry_ratio()));
                    report.solution
                })
        })
        .map_err(|e| CliError(format!("{name} (eco): {e}")))?;
        let (warm, carry_ratio) = warm_stats.expect("eco run completed");

        // The worse of the two finals: a quality level both engines
        // demonstrably reached within the deadline.
        let target = cold.leakage.value().max(eco.leakage.value());
        let t_cold_ms = time_to(&cold_traj, target, deadline_ms).max(MIN_MS);
        let t_eco_ms = time_to(&eco_traj, target, deadline_ms).max(MIN_MS);
        let speedup = t_cold_ms / t_eco_ms;
        min_speedup = min_speedup.min(speedup);
        rows.push(obj([
            ("circuit", Value::Str(name.to_string())),
            ("gates", num(post.num_gates())),
            ("inputs", num(post.num_inputs())),
            ("edit_ops", num(script.len())),
            ("cold_ua", Value::Num(cold.leakage.as_micro_amps())),
            ("eco_ua", Value::Num(eco.leakage.as_micro_amps())),
            ("t_cold_ms", Value::Num(t_cold_ms)),
            ("t_eco_ms", Value::Num(t_eco_ms)),
            ("speedup", Value::Num(speedup)),
            ("warm_candidates", num(warm.candidates)),
            ("warm_evaluated", num(warm.evaluated)),
            ("carry_ratio", Value::Num(carry_ratio)),
        ]));
    }
    if !min_speedup.is_finite() {
        min_speedup = 0.0;
    }
    Ok(Record {
        bench: Bench::Eco,
        scalars: vec![
            ("deadline_ms", Value::Num(deadline_ms)),
            ("threads", num(threads)),
            ("min_speedup", Value::Num(min_speedup)),
        ],
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::tests::{assert_renders, assert_schema, field};

    #[test]
    fn report_renders_parseable_json_with_all_rows() {
        assert_renders(Bench::Eco, 70.0, "min_speedup: 70");
    }

    #[test]
    fn trajectory_lookup_uses_first_reaching_sample() {
        let traj = vec![(2.0, 50.0), (10.0, 20.0), (400.0, 12.0)];
        assert!((time_to(&traj, 20.0, 1500.0) - 10.0).abs() < 1e-12);
        assert!((time_to(&traj, 12.0, 1500.0) - 400.0).abs() < 1e-12);
        // A target no sample reaches falls back on the deadline.
        assert!((time_to(&traj, 1.0, 1500.0) - 1500.0).abs() < 1e-12);
    }

    #[test]
    fn a_zero_deadline_run_reports_every_circuit_without_gating() {
        // Both engines fall back on their seeds immediately; the
        // release-mode comparison with a real deadline runs in ci.sh.
        let record = run_eco_bench(Duration::ZERO, 2).unwrap();
        assert_schema(&record);
        assert_eq!(record.rows.len(), CIRCUITS.len());
        for row in &record.rows {
            assert!(
                field(row, "cold_ua") > 0.0 && field(row, "eco_ua") > 0.0,
                "{row}"
            );
            assert_eq!(field(row, "warm_candidates"), 1.0, "{row}");
            assert!(field(row, "carry_ratio") > 0.9, "{row}");
            assert!(field(row, "speedup") > 0.0, "{row}");
        }
    }
}
