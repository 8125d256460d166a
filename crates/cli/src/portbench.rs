//! The `svtox bench portfolio` measurement: the strategy portfolio vs the
//! single-strategy engine at the same deadline on the bench circuits.
//!
//! Both engines start from the same Heuristic 1 seed, so the portfolio's
//! final cost must be at or below the single engine's (within wall-clock
//! scheduling noise, a 0.1 % relative band) — racing more strategies over a
//! shared incumbent can only tighten the result. The `regressions` count
//! is the headline [`Bench::Portfolio`]'s gate reads; a winner is reported
//! for every circuit.

use std::error::Error;
use std::time::Duration;

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{
    Budget, CancelToken, DelayPenalty, ExecConfig, Mode, PortfolioConfig, Problem, RetryPolicy,
    RunOutcome,
};
use svtox_netlist::generators::benchmark;
use svtox_obs::json::Value;
use svtox_sta::TimingConfig;
use svtox_tech::Technology;

use crate::bench::{num, obj, Bench, Record, CIRCUITS};
use crate::CliError;

/// Relative slack for the portfolio ≤ single comparison. Both runs are
/// wall-clock races: where the engines converge to the same trajectory
/// (the portfolio's influence member performs the single engine's exact
/// dives), the comparison at a given deadline is decided by scheduler
/// timing in the 5th significant digit — the single engine's own
/// run-to-run jitter is of the same size. A real regression (a stale
/// bound, a lost strategy) shows up at 0.5% and above, well clear of
/// this threshold.
const REL_EPS: f64 = 1e-3;

/// Absolute float-noise floor under the relative slack.
const COST_EPS: f64 = 1e-12;

/// Runs the portfolio and the single engine on every suite circuit at the
/// same deadline and compares final costs.
///
/// # Errors
///
/// Returns an error if a circuit or the library fails to build, or if an
/// engine fails outright (no typed degraded fallback).
pub fn run_portfolio_bench(deadline: Duration, threads: usize) -> Result<Record, Box<dyn Error>> {
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
    let exec = ExecConfig::with_threads(threads)
        .with_time_budget(deadline)
        .with_retries(RetryPolicy::resilient());
    let penalty = DelayPenalty::new(0.05)?;
    let mut rows = Vec::new();
    let mut regressions = 0usize;
    for name in CIRCUITS {
        let netlist = benchmark(name)?;
        let problem = Problem::new(&netlist, &library, TimingConfig::default())?;
        let optimizer = problem.optimizer(penalty, Mode::Proposed);

        let budget = Budget::linked(Some(deadline), CancelToken::new());
        let outcome = optimizer
            .run_portfolio(&exec, &budget, &PortfolioConfig::default(), None)
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let portfolio_cost = outcome.best.leakage.value();

        let budget = Budget::linked(Some(deadline), CancelToken::new());
        let single = match optimizer.run_with_budget(&exec, &budget, None) {
            RunOutcome::Complete { solution, .. } | RunOutcome::Degraded { best: solution, .. } => {
                solution
            }
            RunOutcome::Failed { error } => {
                return Err(Box::new(CliError(format!("{name} (single): {error}"))))
            }
        };
        let single_cost = single.leakage.value();

        let regression = portfolio_cost > single_cost * (1.0 + REL_EPS) + COST_EPS;
        regressions += usize::from(regression);
        rows.push(obj([
            ("circuit", Value::Str(name.to_string())),
            ("gates", num(netlist.num_gates())),
            ("inputs", num(netlist.num_inputs())),
            ("winner", Value::Str(outcome.winner.slug().to_string())),
            ("proven_optimal", Value::Bool(outcome.proven_optimal)),
            ("rounds", num(outcome.rounds)),
            (
                "portfolio_ua",
                Value::Num(outcome.best.leakage.as_micro_amps()),
            ),
            ("single_ua", Value::Num(single.leakage.as_micro_amps())),
            ("status", Value::Str(outcome.status().to_string())),
            ("regression", Value::Bool(regression)),
        ]));
    }
    Ok(Record {
        bench: Bench::Portfolio,
        scalars: vec![
            ("deadline_ms", Value::Num(deadline.as_secs_f64() * 1e3)),
            ("threads", num(threads)),
            ("regressions", num(regressions)),
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
        assert_renders(Bench::Portfolio, 0.0, "regressions: 0");
    }

    #[test]
    fn a_short_run_reports_a_winner_for_every_circuit() {
        // A zero deadline: both engines fall back on the shared H1 seed,
        // so the costs are equal by construction and the row set is
        // deterministic. The release-mode comparison with a real deadline
        // runs in ci.sh.
        let record = run_portfolio_bench(Duration::ZERO, 2).unwrap();
        assert_schema(&record);
        assert_eq!(record.rows.len(), CIRCUITS.len());
        for row in &record.rows {
            let winner = row.get("winner").and_then(Value::as_str).unwrap();
            assert!(!winner.is_empty(), "{row}: no winner");
            assert!(field(row, "portfolio_ua") > 0.0 && field(row, "single_ua") > 0.0);
            assert_eq!(row.get("regression"), Some(&Value::Bool(false)), "{row}");
        }
        assert_eq!(record.headline(), (0.0, true));
    }
}
