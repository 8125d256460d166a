//! The `svtox suite --portfolio-bench` benchmark: the strategy portfolio
//! vs the single-strategy engine at the same deadline on the suite
//! circuits.
//!
//! Both engines start from the same Heuristic 1 seed, so the portfolio's
//! final cost must be at or below the single engine's (within wall-clock
//! scheduling noise, a 0.1 % relative band) — racing more strategies over a
//! shared incumbent can only tighten the result. CI records the report to
//! `results/BENCH_portfolio.json` and greps the `regressions` count; a
//! winner must be reported for every circuit.

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

use crate::CliError;

/// Circuits the bench sweeps (same set as the sim bench).
const CIRCUITS: [&str; 3] = ["c432", "c880", "c1908"];

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

/// One circuit's portfolio-vs-single measurement.
#[derive(Debug, Clone)]
pub struct PortfolioBenchRow {
    /// Benchmark name.
    pub circuit: String,
    /// Gate count.
    pub gates: usize,
    /// Primary input count (the search dimension).
    pub inputs: usize,
    /// Winning strategy slug.
    pub winner: String,
    /// Whether an exact member exhausted its tree.
    pub proven_optimal: bool,
    /// Barrier rounds the portfolio completed before the deadline.
    pub rounds: usize,
    /// Portfolio final leakage in µA.
    pub portfolio_ua: f64,
    /// Single-strategy final leakage in µA at the same deadline.
    pub single_ua: f64,
    /// Portfolio run status (`complete` / `degraded (...)`).
    pub status: String,
    /// True when the portfolio ended above the single engine's cost.
    pub regression: bool,
}

/// The full portfolio-bench result.
#[derive(Debug, Clone)]
pub struct PortfolioBenchReport {
    /// Per-circuit measurements.
    pub rows: Vec<PortfolioBenchRow>,
    /// Deadline both engines ran under, in milliseconds.
    pub deadline_ms: f64,
    /// Worker threads (`0` = one per CPU).
    pub threads: usize,
    /// Rows where the portfolio cost exceeded the single engine's.
    pub regressions: usize,
}

impl PortfolioBenchReport {
    /// Human-readable table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>7} {:>7} {:<14} {:>7} {:>14} {:>14}\n",
            "circuit", "gates", "inputs", "winner", "rounds", "portfolio µA", "single µA"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>7} {:>7} {:<14} {:>7} {:>14.2} {:>14.2}{}\n",
                r.circuit,
                r.gates,
                r.inputs,
                r.winner,
                r.rounds,
                r.portfolio_ua,
                r.single_ua,
                if r.regression { "  REGRESSION" } else { "" }
            ));
        }
        out.push_str(&format!(
            "deadline: {:.0} ms, regressions: {}\n",
            self.deadline_ms, self.regressions
        ));
        out
    }

    /// Deterministic-key JSON (the `results/BENCH_portfolio.json` schema).
    #[must_use]
    pub fn render_json(&self) -> String {
        let row = |r: &PortfolioBenchRow| {
            Value::Obj(
                [
                    ("circuit".to_string(), Value::Str(r.circuit.clone())),
                    ("gates".to_string(), Value::Num(r.gates as f64)),
                    ("inputs".to_string(), Value::Num(r.inputs as f64)),
                    ("winner".to_string(), Value::Str(r.winner.clone())),
                    ("proven_optimal".to_string(), Value::Bool(r.proven_optimal)),
                    ("rounds".to_string(), Value::Num(r.rounds as f64)),
                    ("portfolio_ua".to_string(), Value::Num(r.portfolio_ua)),
                    ("single_ua".to_string(), Value::Num(r.single_ua)),
                    ("status".to_string(), Value::Str(r.status.clone())),
                    ("regression".to_string(), Value::Bool(r.regression)),
                ]
                .into_iter()
                .collect(),
            )
        };
        Value::Obj(
            [
                ("bench".to_string(), Value::Str("portfolio".to_string())),
                ("deadline_ms".to_string(), Value::Num(self.deadline_ms)),
                ("threads".to_string(), Value::Num(self.threads as f64)),
                (
                    "rows".to_string(),
                    Value::Arr(self.rows.iter().map(row).collect()),
                ),
                (
                    "regressions".to_string(),
                    Value::Num(self.regressions as f64),
                ),
            ]
            .into_iter()
            .collect(),
        )
        .to_string()
    }
}

/// Runs the portfolio and the single engine on every suite circuit at the
/// same deadline and compares final costs.
///
/// # Errors
///
/// Returns an error if a circuit or the library fails to build, or if an
/// engine fails outright (no typed degraded fallback).
pub fn run_portfolio_bench(
    deadline: Duration,
    threads: usize,
) -> Result<PortfolioBenchReport, CliError> {
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .map_err(|e| CliError(e.to_string()))?;
    let exec = ExecConfig::with_threads(threads)
        .with_time_budget(deadline)
        .with_retries(RetryPolicy::resilient());
    let penalty = DelayPenalty::new(0.05).map_err(|e| CliError(e.to_string()))?;
    let mut rows = Vec::new();
    let mut regressions = 0usize;
    for name in CIRCUITS {
        let netlist = benchmark(name).map_err(|e| CliError(e.to_string()))?;
        let problem = Problem::new(&netlist, &library, TimingConfig::default())
            .map_err(|e| CliError(e.to_string()))?;
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
                return Err(CliError(format!("{name} (single): {error}")))
            }
        };
        let single_cost = single.leakage.value();

        let regression = portfolio_cost > single_cost * (1.0 + REL_EPS) + COST_EPS;
        regressions += usize::from(regression);
        rows.push(PortfolioBenchRow {
            circuit: name.to_string(),
            gates: netlist.num_gates(),
            inputs: netlist.num_inputs(),
            winner: outcome.winner.slug().to_string(),
            proven_optimal: outcome.proven_optimal,
            rounds: outcome.rounds,
            status: outcome.status().to_string(),
            portfolio_ua: outcome.best.leakage.as_micro_amps(),
            single_ua: single.leakage.as_micro_amps(),
            regression,
        });
    }
    Ok(PortfolioBenchReport {
        rows,
        deadline_ms: deadline.as_secs_f64() * 1e3,
        threads,
        regressions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_parseable_json_with_all_rows() {
        let report = PortfolioBenchReport {
            rows: vec![PortfolioBenchRow {
                circuit: "c432".to_string(),
                gates: 160,
                inputs: 36,
                winner: "h2-influence".to_string(),
                proven_optimal: false,
                rounds: 3,
                portfolio_ua: 11.5,
                single_ua: 11.7,
                status: "degraded".to_string(),
                regression: false,
            }],
            deadline_ms: 500.0,
            threads: 2,
            regressions: 0,
        };
        let json = report.render_json();
        let parsed = svtox_obs::json::parse(&json).unwrap();
        assert_eq!(parsed.get("regressions").and_then(Value::as_f64), Some(0.0));
        let Some(Value::Arr(rows)) = parsed.get("rows") else {
            panic!("rows missing");
        };
        assert_eq!(
            rows[0].get("winner").and_then(Value::as_str),
            Some("h2-influence")
        );
        assert!(report.render_text().contains("regressions: 0"));
    }

    #[test]
    fn a_short_run_reports_a_winner_for_every_circuit() {
        // A zero deadline: both engines fall back on the shared H1 seed,
        // so the costs are equal by construction and the row set is
        // deterministic. The release-mode comparison with a real deadline
        // runs in ci.sh.
        let report = run_portfolio_bench(Duration::ZERO, 2).unwrap();
        assert_eq!(report.rows.len(), CIRCUITS.len());
        for row in &report.rows {
            assert!(!row.winner.is_empty(), "{}: no winner", row.circuit);
            assert!(row.portfolio_ua > 0.0 && row.single_ua > 0.0);
            assert!(!row.regression, "{}: regression", row.circuit);
        }
        assert_eq!(report.regressions, 0);
    }
}
