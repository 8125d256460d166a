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
///
/// Event-driven: deciding (or un-deciding) an input re-bounds only the
/// gates whose input cube changed — the simulator's touched list — in
/// ascending [`GateId`] order. Every other gate would recompute its own
/// contribution and add `c - c == +0.0`, which leaves `total` bit for
/// bit unchanged, so the sum equals re-bounding the input's whole
/// transitive fanout in ascending order.
pub(crate) struct BoundTracker<'p, 'n> {
    problem: &'p Problem<'n>,
    tri: TriSimulator<'n>,
    mode: Mode,
    /// Per-gate lower-bound contribution (nA).
    contribution: Vec<f64>,
    /// Sum of contributions.
    total: f64,
    /// The last step's touched gates, sorted (reused buffer).
    dirty: Vec<GateId>,
    /// Gates re-bounded by `set_input` so far.
    rebounded: u64,
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
            dirty: Vec::new(),
            rebounded: 0,
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
        let (ones, xs) = self.tri.gate_cube(gid);
        cube_min(self.problem.min_leak_table(kind, self.mode), ones, xs)
    }

    /// Sets one input and updates the bound, re-bounding only the gates
    /// whose input cube changed. Allocates nothing in steady state.
    pub(crate) fn set_input(&mut self, index: usize, value: Logic) {
        self.tri.set_input(index, value);
        self.dirty.clear();
        self.dirty.extend_from_slice(self.tri.touched());
        self.dirty.sort_unstable();
        self.dirty.dedup();
        for &gid in &self.dirty {
            let c = self.gate_bound(gid);
            self.total += c - self.contribution[gid.index()];
            self.contribution[gid.index()] = c;
        }
        self.rebounded += self.dirty.len() as u64;
    }

    /// The current lower bound for any completion of the partial vector.
    pub(crate) fn bound(&self) -> Current {
        Current::new(self.total)
    }

    /// Gates re-bounded by [`BoundTracker::set_input`] since construction.
    pub(crate) fn rebounded(&self) -> u64 {
        self.rebounded
    }
}

/// Minimum of `table[ones | sub]` over every `sub` ⊆ `xs`: the bound of
/// a gate whose input cube is `(ones, xs)`. Walks the subsets with
/// `sub = (sub - 1) & xs`, without allocating.
fn cube_min(table: &[f64], ones: u16, xs: u16) -> f64 {
    let mut min = f64::INFINITY;
    let mut sub = xs;
    loop {
        min = min.min(table[usize::from(ones | sub)]);
        if sub == 0 {
            return min;
        }
        sub = (sub - 1) & xs;
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
        self.obs.add("core.h1.gates_rebounded", tracker.rebounded());
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
        let fanout = |i: &usize| self.problem.tfo_size(*i);
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

    /// The subset walk's minimum equals the minimum of `min_leak` over
    /// the simulator's enumerated `possible_states`, for every library
    /// kind, mode and three-valued input cube.
    #[test]
    fn cube_min_matches_possible_states() {
        let options = LibraryOptions {
            max_arity: 4,
            ..LibraryOptions::default()
        };
        let lib = Library::new(Technology::predictive_65nm(), options).unwrap();
        for cell in lib.cells() {
            let kind = cell.kind();
            let arity = kind.arity();
            let mut b = svtox_netlist::NetlistBuilder::new("cube");
            let pins: Vec<_> = (0..arity).map(|i| b.add_input(format!("i{i}"))).collect();
            let y = b.add_gate(kind, &pins).unwrap();
            b.mark_output(y);
            let n = b.finish().unwrap();
            let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
            let gid = n.topo_order()[0];
            let mut tri = TriSimulator::new(&n);
            for cube in 0..3usize.pow(arity as u32) {
                let mut digits = cube;
                for i in 0..arity {
                    tri.set_input(i, [Logic::Zero, Logic::One, Logic::X][digits % 3]);
                    digits /= 3;
                }
                let (ones, xs) = tri.gate_cube(gid);
                for mode in Mode::ALL {
                    let walked = cube_min(problem.min_leak_table(kind, mode), ones, xs);
                    let enumerated = tri
                        .possible_states(gid)
                        .into_iter()
                        .map(|st| problem.min_leak(kind, st, mode).value())
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        walked.to_bits(),
                        enumerated.to_bits(),
                        "{kind:?}, {mode:?}, cube {cube}"
                    );
                }
            }
        }
    }

    /// The static-cone bound the event-driven tracker replaced, kept as a
    /// test oracle: every `set_input` re-bounds the input's whole
    /// transitive fanout in ascending gate order, each gate by
    /// enumerating its `possible_states`.
    struct StaticConeBound<'p, 'n> {
        problem: &'p Problem<'n>,
        tri: TriSimulator<'n>,
        cones: Vec<Vec<GateId>>,
        contribution: Vec<f64>,
        total: f64,
    }

    impl<'p, 'n> StaticConeBound<'p, 'n> {
        fn new(problem: &'p Problem<'n>) -> Self {
            let n = problem.netlist();
            let cones = n
                .inputs()
                .iter()
                .map(|&pi| {
                    let mut reached = vec![false; n.num_nets()];
                    reached[pi.index()] = true;
                    let mut cone = Vec::new();
                    for &g in n.topo_order() {
                        let gate = n.gate(g);
                        if gate.inputs().iter().any(|net| reached[net.index()]) {
                            reached[gate.output().index()] = true;
                            cone.push(g);
                        }
                    }
                    cone.sort_unstable();
                    cone
                })
                .collect();
            let mut oracle = Self {
                problem,
                tri: TriSimulator::new(n),
                cones,
                contribution: vec![0.0; n.num_gates()],
                total: 0.0,
            };
            for (gid, _) in n.gates() {
                let c = oracle.gate_bound(gid);
                oracle.contribution[gid.index()] = c;
                oracle.total += c;
            }
            oracle
        }

        fn gate_bound(&self, gid: GateId) -> f64 {
            let kind = self.problem.netlist().gate(gid).kind();
            self.tri
                .possible_states(gid)
                .into_iter()
                .map(|st| self.problem.min_leak(kind, st, Mode::Proposed).value())
                .fold(f64::INFINITY, f64::min)
        }

        fn set_input(&mut self, index: usize, value: Logic) {
            self.tri.set_input(index, value);
            for k in 0..self.cones[index].len() {
                let gid = self.cones[index][k];
                let c = self.gate_bound(gid);
                self.total += c - self.contribution[gid.index()];
                self.contribution[gid.index()] = c;
            }
        }
    }

    /// Seeded random walks — DFS-style decide/backtrack, probe-then-reset
    /// to `X`, and arbitrary 0/1/X jumps — keep the event-driven bound's
    /// `total` bit-identical to the static-cone oracle at every step.
    #[test]
    fn event_driven_bound_matches_static_cone_bits() {
        use svtox_exec::rng::Xoshiro256pp;
        use svtox_netlist::generators::benchmark;
        let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap();
        let mut circuits: Vec<Netlist> = (0..4)
            .map(|k| {
                let spec = RandomDagSpec::new(format!("ss-bits-{k}"), 8 + 4 * k, 4, 60 + 60 * k, 8);
                random_dag(&spec).unwrap()
            })
            .collect();
        circuits.push(benchmark("c432").unwrap());
        circuits.push(benchmark("c880").unwrap());
        for (case, n) in circuits.iter().enumerate() {
            let problem = Problem::new(n, &lib, TimingConfig::default()).unwrap();
            let mut tracker = BoundTracker::new(&problem, Mode::Proposed);
            let mut oracle = StaticConeBound::new(&problem);
            assert_eq!(
                tracker.total.to_bits(),
                oracle.total.to_bits(),
                "case {case}"
            );
            let mut rng = Xoshiro256pp::seed_from_u64(0xb17 + case as u64);
            let inputs = n.num_inputs();
            let mut decided: Vec<usize> = Vec::new();
            for step in 0..400 {
                let mut steps: Vec<(usize, Logic)> = Vec::new();
                let roll = rng.gen_index(10);
                if roll < 4 && decided.len() < inputs {
                    // Decide the next undecided input, as the DFS descends.
                    let i = (0..inputs).find(|i| !decided.contains(i)).unwrap();
                    steps.push((i, Logic::from(rng.gen_bool(0.5))));
                    decided.push(i);
                } else if roll < 6 {
                    // Backtrack the deepest decision to X.
                    if let Some(i) = decided.pop() {
                        steps.push((i, Logic::X));
                    }
                } else if roll < 8 {
                    // Probe a branch, then reset it to X.
                    let i = rng.gen_index(inputs);
                    if !decided.contains(&i) {
                        steps.push((i, Logic::from(rng.gen_bool(0.5))));
                        steps.push((i, Logic::X));
                    }
                } else {
                    // An arbitrary 0/1/X jump, including no-op re-sets.
                    let i = rng.gen_index(inputs);
                    let value = [Logic::Zero, Logic::One, Logic::X][rng.gen_index(3)];
                    steps.push((i, value));
                    decided.retain(|&d| d != i);
                    if value != Logic::X {
                        decided.push(i);
                    }
                }
                for (i, value) in steps {
                    tracker.set_input(i, value);
                    oracle.set_input(i, value);
                    assert_eq!(
                        tracker.total.to_bits(),
                        oracle.total.to_bits(),
                        "case {case}, step {step}: input {i} <- {value:?}"
                    );
                }
            }
        }
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
