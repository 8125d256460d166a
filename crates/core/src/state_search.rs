//! The state tree: searching for the standby input vector.
//!
//! The search maintains a three-valued simulation of the partially-decided
//! vector. For every gate, the states it can still assume give a leakage
//! lower bound (minimum allowed option over possible states); the sum over
//! gates bounds any completion of the partial vector, which both orders the
//! descent (Heuristic 1 takes the branch with the smaller bound) and prunes
//! the branch and bound (Heuristic 2 / exact).

use std::time::Instant;

use svtox_fault::Fault;
use svtox_netlist::GateId;
use svtox_obs::Obs;
use svtox_sim::{Logic, TriSimulator};
use svtox_sta::{Sta, StaCounters};
use svtox_tech::{Current, Time};

pub mod eco;
mod parallel;
pub mod portfolio;
mod resilient;

pub use parallel::WarmStats;

use crate::error::OptError;
use crate::gate_assign::{exact_assign, gate_states, greedy_assign};
use crate::problem::{DelayPenalty, GateOrder, InputOrder, Mode, Problem};
use crate::solution::Solution;

/// How a surviving leaf of the state tree is evaluated.
#[derive(Clone, Copy)]
pub(crate) enum LeafKind {
    /// Greedy gate tree (Heuristics 1/2).
    Greedy,
    /// Exact gate-tree branch and bound.
    Exact,
}

/// Incremental leakage lower bound over a partially-decided input vector.
pub(crate) struct BoundTracker<'p, 'n> {
    problem: &'p Problem<'n>,
    tri: TriSimulator<'n>,
    mode: Mode,
    /// Per-gate lower-bound contribution (nA).
    contribution: Vec<f64>,
    /// Sum of contributions.
    total: f64,
}

impl<'p, 'n> BoundTracker<'p, 'n> {
    pub(crate) fn new(problem: &'p Problem<'n>, mode: Mode) -> Self {
        let netlist = problem.netlist();
        let tri = TriSimulator::new(netlist);
        let mut tracker = Self {
            problem,
            tri,
            mode,
            contribution: vec![0.0; netlist.num_gates()],
            total: 0.0,
        };
        for (gid, _) in netlist.gates() {
            let c = tracker.gate_bound(gid);
            tracker.contribution[gid.index()] = c;
            tracker.total += c;
        }
        tracker
    }

    /// Lower bound on this gate's leakage over its reachable states.
    fn gate_bound(&self, gid: GateId) -> f64 {
        let kind = self.problem.netlist().gate(gid).kind();
        self.tri
            .possible_states(gid)
            .into_iter()
            .map(|s| self.problem.min_leak(kind, s, self.mode).value())
            .fold(f64::INFINITY, f64::min)
    }

    /// Sets one input and updates the bound. Only gates in the input's
    /// static transitive fanout can change.
    pub(crate) fn set_input(&mut self, index: usize, value: Logic) {
        self.tri.set_input(index, value);
        for &gid in self.problem.tfo(index) {
            let c = self.gate_bound(gid);
            self.total += c - self.contribution[gid.index()];
            self.contribution[gid.index()] = c;
        }
    }

    /// The current lower bound for any completion of the partial vector.
    pub(crate) fn bound(&self) -> Current {
        Current::new(self.total)
    }
}

/// The simultaneous state/`Vt`/`Tox` optimizer.
///
/// Created via [`Problem::optimizer`]. See the crate-level example.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer<'a> {
    problem: &'a Problem<'a>,
    penalty: DelayPenalty,
    mode: Mode,
    gate_order: GateOrder,
    input_order: InputOrder,
    obs: &'a Obs,
    fault: &'a Fault,
}

impl<'a> Optimizer<'a> {
    pub(crate) fn new(problem: &'a Problem<'a>, penalty: DelayPenalty, mode: Mode) -> Self {
        Self {
            problem,
            penalty,
            mode,
            gate_order: GateOrder::default(),
            input_order: InputOrder::default(),
            obs: Obs::disabled_ref(),
            fault: Fault::disabled_ref(),
        }
    }

    /// Overrides the gate visiting order (ablation knob).
    #[must_use]
    pub fn with_gate_order(mut self, order: GateOrder) -> Self {
        self.gate_order = order;
        self
    }

    /// Overrides the input branching order (ablation knob).
    #[must_use]
    pub fn with_input_order(mut self, order: InputOrder) -> Self {
        self.input_order = order;
        self
    }

    /// Attaches an observability handle: every search phase then records
    /// spans (`core.heuristic1`, `core.exact`, …) and counters
    /// (`core.search.nodes`, `core.search.prunes_local`, `sta.flushes`,
    /// …). The default is the disabled handle, which costs one branch per
    /// phase boundary — hot loops accumulate plain integers either way and
    /// publish deltas only when a phase ends.
    #[must_use]
    pub fn with_obs(mut self, obs: &'a Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a fault-injection handle (chaos testing). The search
    /// loop consults it after every leaf evaluation
    /// (`core.leaf` site: a fire cancels the run's budget — a
    /// deterministic mid-search kill), every search threads it through
    /// the execution engine's dispatch/pop sites, and [`Optimizer::run`]
    /// also through the budget's clock site. The default is the disabled
    /// handle: one branch per leaf.
    #[must_use]
    pub fn with_fault(mut self, fault: &'a Fault) -> Self {
        self.fault = fault;
        self
    }

    /// Publishes the work an analyzer did since `base` (deltas, plus the
    /// dirty-set high-water mark). A fresh analyzer pairs with
    /// [`StaCounters::default`] as base so its construction full-analysis
    /// is counted too.
    pub(crate) fn flush_sta(&self, sta: &Sta<'_>, base: StaCounters) {
        if !self.obs.is_enabled() {
            return;
        }
        let now = sta.counters();
        self.obs
            .add("sta.full_analyzes", now.full_analyzes - base.full_analyzes);
        self.obs.add("sta.flushes", now.flushes - base.flushes);
        self.obs.add(
            "sta.gates_reevaluated",
            now.gates_reevaluated - base.gates_reevaluated,
        );
        self.obs.raise_to("sta.max_dirty", now.max_dirty);
    }

    /// The delay budget this optimizer works against.
    #[must_use]
    pub fn budget(&self) -> Time {
        self.problem.delay_budget(self.penalty)
    }

    /// **Heuristic 1**: a single bound-ordered descent of the state tree,
    /// followed by a single greedy traversal of the gate tree.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure.
    pub fn heuristic1(&self) -> Result<Solution, OptError> {
        let _span = self.obs.span("core.heuristic1");
        let start = Instant::now();
        let mut tracker = BoundTracker::new(self.problem, self.mode);
        let order = self.branch_order(self.input_order);
        let netlist = self.problem.netlist();
        let mut vector = vec![false; netlist.num_inputs()];
        for &i in &order {
            // Probe both branches; keep the one with the smaller bound.
            tracker.set_input(i, Logic::Zero);
            let b0 = tracker.bound();
            tracker.set_input(i, Logic::One);
            let b1 = tracker.bound();
            if b0 < b1 {
                tracker.set_input(i, Logic::Zero);
                vector[i] = false;
            } else {
                vector[i] = true;
            }
        }
        let mut sta = Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        let solution = self.evaluate_leaf(LeafKind::Greedy, &vector, &mut sta, start, 1);
        self.obs.add("core.h1.decisions", order.len() as u64);
        self.obs.add("core.h1.leaves", 1);
        self.flush_sta(&sta, StaCounters::default());
        Ok(solution)
    }

    /// **Local refinement**: starting from a solution, repeatedly flips
    /// single standby-vector bits, keeping any flip that lowers leakage
    /// (re-running the greedy gate tree for each trial), until a full pass
    /// makes no progress or `max_passes` is exhausted.
    ///
    /// This is a natural extension beyond the paper's heuristics: Heuristic
    /// 2 explores the state tree in its fixed branch order, while
    /// first-improvement hill climbing escapes the descent order entirely.
    /// It never returns a worse solution than its input.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure.
    pub fn refine(&self, start: Solution, max_passes: usize) -> Result<Solution, OptError> {
        let _span = self.obs.span("core.refine");
        let begin = Instant::now();
        let netlist = self.problem.netlist();
        let mut sta = Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        let mut best = start;
        let mut leaves = best.leaves_explored;
        let base_leaves = leaves;
        let mut incumbents = 0u64;
        let started_runtime = best.runtime;
        for _pass in 0..max_passes {
            let mut improved = false;
            for i in 0..netlist.num_inputs() {
                let mut vector = best.vector.clone();
                vector[i] = !vector[i];
                leaves += 1;
                let candidate =
                    self.evaluate_leaf(LeafKind::Greedy, &vector, &mut sta, begin, leaves);
                if candidate.leakage < best.leakage {
                    best = candidate;
                    improved = true;
                    incumbents += 1;
                }
            }
            if !improved {
                break;
            }
        }
        best.runtime = started_runtime + begin.elapsed();
        best.leaves_explored = leaves;
        self.obs
            .add("core.refine.trials", (leaves - base_leaves) as u64);
        self.obs.add("core.refine.improvements", incumbents);
        self.flush_sta(&sta, StaCounters::default());
        Ok(best)
    }

    /// Evaluates one fully-decided vector with the given gate tree.
    pub(crate) fn evaluate_leaf(
        &self,
        leaf: LeafKind,
        vector: &[bool],
        sta: &mut Sta<'_>,
        start: Instant,
        leaves: usize,
    ) -> Solution {
        let states = gate_states(self.problem, vector);
        let (problem, mode, budget) = (self.problem, self.mode, self.budget());
        let assignment = match leaf {
            LeafKind::Greedy => greedy_assign(problem, &states, mode, self.gate_order, budget, sta),
            LeafKind::Exact => exact_assign(problem, &states, mode, budget, sta),
        };
        Solution {
            vector: vector.to_vec(),
            choices: assignment.choices,
            leakage: assignment.leakage,
            delay: assignment.delay,
            runtime: start.elapsed(),
            leaves_explored: leaves,
        }
    }

    /// The inputs in `order`'s branching sequence (stable sorts, so the
    /// order — and with it the whole search trajectory — is reproducible).
    pub(crate) fn branch_order(&self, order: InputOrder) -> Vec<usize> {
        let n = self.problem.netlist().num_inputs();
        let mut inputs: Vec<usize> = (0..n).collect();
        let fanout = |i: &usize| self.problem.tfo(*i).len();
        match order {
            InputOrder::InfluenceDescending => {
                inputs.sort_by_key(|i| std::cmp::Reverse(fanout(i)));
            }
            InputOrder::Natural => {}
            InputOrder::InfluenceAscending => inputs.sort_by_key(fanout),
        }
        inputs
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_exec::ExecConfig;
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sim::random_average_leakage;
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    fn small() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("ss-small", 8, 4, 40, 6);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    #[test]
    fn heuristic1_produces_verified_solution() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let sol = opt.heuristic1().unwrap();
        sol.verify(&problem).unwrap();
        assert!(sol.delay <= opt.budget() + Time::new(1e-6));
        assert_eq!(sol.vector.len(), n.num_inputs());
        assert_eq!(sol.choices.len(), n.num_gates());
    }

    #[test]
    fn heuristic2_never_worse_than_heuristic1() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let h1 = opt.heuristic1().unwrap();
        let exec = ExecConfig::serial().with_time_budget(Duration::from_millis(2000));
        let (h2, _) = opt.heuristic2(&exec).unwrap();
        assert!(h2.leakage.value() <= h1.leakage.value() + 1e-9);
        h2.verify(&problem).unwrap();
        assert!(h2.leaves_explored >= h1.leaves_explored);
    }

    #[test]
    fn exact_is_the_floor() {
        let spec = RandomDagSpec::new("ss-tiny", 6, 3, 18, 4);
        let n = random_dag(&spec).unwrap();
        let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::new(0.10).unwrap(), Mode::Proposed);
        let exec = ExecConfig::serial().with_time_budget(Duration::from_secs(5));
        let (exact, _) = opt.exact(10, &exec).unwrap();
        let h1 = opt.heuristic1().unwrap();
        let (h2, _) = opt.heuristic2(&exec).unwrap();
        assert!(exact.leakage.value() <= h1.leakage.value() + 1e-9);
        assert!(exact.leakage.value() <= h2.leakage.value() + 1e-9);
        exact.verify(&problem).unwrap();
        // H2 exhausted the tiny tree, so its leakage should match the exact
        // state search with greedy gate assignment — within a whisker of
        // the full exact answer.
        assert!(h2.leakage.value() <= exact.leakage.value() * 1.25);
    }

    /// Independent oracle for the state-tree search: enumerate all 2^n
    /// vectors of seeded random DAGs and take the minimum of each leaf
    /// evaluator. The exact search must hit the `exact_assign` minimum and
    /// the unbudgeted Heuristic 2 the greedy-leaf minimum, bit for bit, at
    /// every thread count.
    #[test]
    fn exact_matches_vector_brute_force() {
        let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap();
        for case in 0..5usize {
            let (inputs, gates) = (3 + case % 4, 5 + case);
            let spec = RandomDagSpec::new(format!("ss-brute-{case}"), inputs, 2, gates, 3);
            let n = random_dag(&spec).unwrap();
            let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
            let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
            for fraction in [0.0, 0.10] {
                let penalty = DelayPenalty::new(fraction).unwrap();
                let budget = problem.delay_budget(penalty);
                let (mut greedy_min, mut exact_min) = (f64::INFINITY, f64::INFINITY);
                for bits in 0..(1u32 << n.num_inputs()) {
                    let vector: Vec<bool> =
                        (0..n.num_inputs()).map(|i| bits >> i & 1 == 1).collect();
                    let states = gate_states(&problem, &vector);
                    let order = GateOrder::default();
                    let greedy =
                        greedy_assign(&problem, &states, Mode::Proposed, order, budget, &mut sta);
                    let exact = exact_assign(&problem, &states, Mode::Proposed, budget, &mut sta);
                    greedy_min = greedy_min.min(greedy.leakage.value());
                    exact_min = exact_min.min(exact.leakage.value());
                }
                let opt = problem.optimizer(penalty, Mode::Proposed);
                for threads in [1, 2, 4] {
                    let exec = ExecConfig::with_threads(threads);
                    let at = format!("case {case}, penalty {fraction}, {threads} threads");
                    let (exact, _) = opt.exact(8, &exec).unwrap();
                    assert_eq!(exact.leakage.value().to_bits(), exact_min.to_bits(), "{at}");
                    let (h2, _) = opt.heuristic2(&exec).unwrap();
                    assert_eq!(h2.leakage.value().to_bits(), greedy_min.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn exact_rejects_wide_circuits() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        assert!(matches!(
            opt.exact(4, &ExecConfig::serial()),
            Err(OptError::TooManyInputs {
                inputs: 8,
                limit: 4
            })
        ));
    }

    #[test]
    fn modes_are_ordered_end_to_end() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let penalty = DelayPenalty::five_percent();
        let state_only = problem
            .optimizer(penalty, Mode::StateOnly)
            .heuristic1()
            .unwrap();
        let vt = problem
            .optimizer(penalty, Mode::StateAndVt)
            .heuristic1()
            .unwrap();
        let proposed = problem
            .optimizer(penalty, Mode::Proposed)
            .heuristic1()
            .unwrap();
        assert!(vt.leakage.value() <= state_only.leakage.value() + 1e-9);
        assert!(proposed.leakage.value() <= vt.leakage.value() + 1e-9);
        // The proposed method's advantage over Vt-only comes from removing
        // gate leakage — expect a solid margin.
        assert!(
            proposed.leakage.value() < 0.75 * vt.leakage.value(),
            "proposed {} vs vt {}",
            proposed.leakage,
            vt.leakage
        );
    }

    #[test]
    fn reduction_factors_in_paper_regime() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let avg = random_average_leakage(&n, &lib, 2000, 9).unwrap().total;
        let sol = problem
            .optimizer(DelayPenalty::new(0.25).unwrap(), Mode::Proposed)
            .heuristic1()
            .unwrap();
        let x = sol.reduction_vs(avg);
        // Paper Table 3 reports 3-10x depending on circuit and penalty.
        assert!(x > 2.0, "reduction only {x:.2}x");
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut last = f64::INFINITY;
        for p in [0.0, 0.05, 0.10, 0.25, 1.0] {
            let sol = problem
                .optimizer(DelayPenalty::new(p).unwrap(), Mode::Proposed)
                .heuristic1()
                .unwrap();
            assert!(
                sol.leakage.value() <= last * 1.02,
                "penalty {p}: {} vs previous {last}",
                sol.leakage
            );
            last = sol.leakage.value().min(last);
        }
    }

    #[test]
    fn refine_never_hurts_and_verifies() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let h1 = opt.heuristic1().unwrap();
        let refined = opt.refine(h1.clone(), 10).unwrap();
        assert!(refined.leakage.value() <= h1.leakage.value() + 1e-9);
        refined.verify(&problem).unwrap();
        assert!(refined.delay <= opt.budget() + Time::new(1e-6));
        assert!(refined.leaves_explored > h1.leaves_explored);
        // A second refinement from the fixed point cannot move.
        let again = opt.refine(refined.clone(), 10).unwrap();
        assert_eq!(again.leakage, refined.leakage);
    }

    #[test]
    fn input_order_ablation_produces_valid_solutions() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let default = opt.heuristic1().unwrap();
        let natural = opt
            .with_input_order(InputOrder::Natural)
            .heuristic1()
            .unwrap();
        natural.verify(&problem).unwrap();
        // Both orders explore different leaves but stay within budget; the
        // influence-ordered default should not be dramatically worse.
        assert!(default.leakage.value() <= natural.leakage.value() * 1.5);
        assert!(natural.delay <= opt.budget() + Time::new(1e-6));
    }

    #[test]
    fn bound_tracker_is_a_true_lower_bound() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::new(1.0).unwrap(), Mode::Proposed);
        // At full budget the greedy gate tree reaches every gate's minimum,
        // so the root bound must underestimate (or match) any leaf.
        let tracker = BoundTracker::new(&problem, Mode::Proposed);
        let root_bound = tracker.bound();
        let sol = opt.heuristic1().unwrap();
        assert!(root_bound.value() <= sol.leakage.value() + 1e-9);
    }
}
