//! Output checks and the benchmark's own STA replay.

use std::time::{Duration, Instant};

use svtox_core::{Problem, Solution};
use svtox_sim::Simulator;
use svtox_sta::{GateConfig, Sta, StaCounters};
use svtox_tech::Time;

/// Checks one solution against the independent scalar evaluator: the
/// recomputed leakage and delay must match the reported ones (to the
/// tolerance of `Solution::verify`) and the delay must meet the budget
/// (to the greedy gate tree's own acceptance tolerance).
///
/// # Errors
///
/// Returns what disagreed.
pub fn solution(problem: &Problem<'_>, budget: Time, sol: &Solution) -> Result<(), String> {
    let name = problem.netlist().name();
    let (leakage, delay) = sol
        .evaluate(problem)
        .map_err(|e| format!("{name}: evaluate failed: {e}"))?;
    let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * (1.0 + a.abs());
    if !close(leakage.value(), sol.leakage.value()) {
        return Err(format!(
            "{name}: reported leakage {} but evaluates to {leakage}",
            sol.leakage
        ));
    }
    if !close(delay.value(), sol.delay.value()) {
        return Err(format!(
            "{name}: reported delay {} but evaluates to {delay}",
            sol.delay
        ));
    }
    let limit = budget.value() + 1e-9 * (1.0 + budget.value());
    if delay.value() > limit {
        return Err(format!("{name}: delay {delay} exceeds the budget {budget}"));
    }
    Ok(())
}

/// What one STA replay did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub elapsed: Duration,
    pub flushes: u64,
    pub gates: u64,
}

impl Replay {
    pub fn add(&mut self, other: Replay) {
        self.elapsed += other.elapsed;
        self.flushes += other.flushes;
        self.gates += other.gates;
    }
}

/// Replays a solution's gate configurations into a fresh analyzer one
/// gate at a time, reading the circuit delay after each (the access
/// pattern of a greedy gate-tree trial), and returns the time and the
/// `Sta::counters` delta of the incremental part.
///
/// # Panics
///
/// Panics if the library lacks a gate kind of the netlist; the solution
/// was produced from the same problem, so that is a bug.
#[must_use]
pub fn sta_replay(problem: &Problem<'_>, sol: &Solution) -> Replay {
    let netlist = problem.netlist();
    let mut sim = Simulator::new(netlist);
    sim.set_inputs(&sol.vector);
    let configs: Vec<_> = netlist
        .gates()
        .map(|(gid, gate)| {
            let opt = problem.option(gate.kind(), sim.gate_state(gid), sol.choices[gid.index()]);
            (gid, GateConfig::from(opt))
        })
        .collect();
    let mut sta = Sta::new(netlist, problem.library(), problem.timing())
        .expect("the problem's library covers its netlist");
    let base: StaCounters = sta.counters();
    let start = Instant::now();
    let mut delay = Time::new(0.0);
    for (gid, config) in configs {
        sta.set_gate(gid, config);
        delay = sta.max_delay();
    }
    let elapsed = start.elapsed();
    std::hint::black_box(delay);
    let now = sta.counters();
    Replay {
        elapsed,
        flushes: now.flushes - base.flushes,
        gates: now.gates_reevaluated - base.gates_reevaluated,
    }
}
