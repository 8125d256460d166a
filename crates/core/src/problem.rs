//! The optimization problem: netlist + library + delay normalization +
//! precomputed per-mode option tables.

use std::collections::HashMap;

use svtox_cells::{InputState, Library, StateOption};
use svtox_netlist::{GateId, GateKind, Netlist};
use svtox_sta::{Sta, TimingConfig};
use svtox_tech::{Current, OxideClass, Time};

use crate::error::OptError;
use crate::state_search::Optimizer;

/// Which assignment knobs the optimizer may use — the paper's proposed
/// method and its two baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Simultaneous state + `Vt` + `Tox` (the paper's contribution).
    #[default]
    Proposed,
    /// State + `Vt` only — the DAC 2003 predecessor (ref.\[12\]), no dual-`Tox`.
    StateAndVt,
    /// Sleep-state assignment only; every gate stays at its fast version.
    StateOnly,
}

impl Mode {
    /// All modes, in baseline→proposed order.
    pub const ALL: [Mode; 3] = [Mode::StateOnly, Mode::StateAndVt, Mode::Proposed];
}

/// Gate visiting order of the gate-tree traversal (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateOrder {
    /// Largest potential leakage saving first (default).
    #[default]
    SavingsDescending,
    /// Netlist topological order.
    Topological,
}

/// Primary-input branching order of the state-tree search (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputOrder {
    /// Largest transitive fanout first — decide the most influential inputs
    /// early so bounds tighten quickly (default; mirrors the paper's
    /// bound-driven branch ordering).
    #[default]
    InfluenceDescending,
    /// Netlist declaration order.
    Natural,
    /// Smallest transitive fanout first — a deliberately contrarian order
    /// that wins when the influential inputs are better decided late.
    InfluenceAscending,
}

/// Normalized delay penalty: the fraction of the fast→all-slow delay gap
/// the optimized circuit may consume (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DelayPenalty(f64);

impl DelayPenalty {
    /// Creates a penalty from a fraction in `0.0..=1.0`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidPenalty`] outside that range.
    pub fn new(fraction: f64) -> Result<Self, OptError> {
        if (0.0..=1.0).contains(&fraction) {
            Ok(Self(fraction))
        } else {
            Err(OptError::InvalidPenalty(fraction.to_bits()))
        }
    }

    /// The fraction.
    #[must_use]
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The paper's headline operating point (5 %).
    #[must_use]
    pub fn five_percent() -> Self {
        Self(0.05)
    }
}

/// Per-(kind, state, mode) option table: allowed option indices sorted by
/// ascending leakage, plus the minimum reachable leakage for bounding.
#[derive(Debug, Clone)]
struct KindTable {
    /// `[mode][state] -> allowed indices into options_for(state)`.
    allowed: [Vec<Vec<u8>>; 3],
    /// `[mode][state] -> min leakage (nA)`.
    min_leak: [Vec<f64>; 3],
    /// `[state] -> leakage of the fast option (nA)`.
    fast_leak: Vec<f64>,
    /// `[state] -> index of the fast option`.
    fast_index: Vec<u8>,
}

/// A fully-specified optimization problem.
///
/// Construction runs the two reference timing analyses (`D_fast`, `D_slow`)
/// and precomputes option tables and the transitive-fanout cone sizes that
/// order the search. The instance is immutable; many [`Optimizer`]s can be
/// derived from it.
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    timing: TimingConfig,
    d_fast: Time,
    d_slow: Time,
    tables: HashMap<GateKind, KindTable>,
    /// Transitive-fanout gate count of each primary input (by position).
    tfo_sizes: Vec<usize>,
}

impl<'a> Problem<'a> {
    /// Builds a problem instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist uses gate kinds missing from the
    /// library (map it to primitives first).
    pub fn new(
        netlist: &'a Netlist,
        library: &'a Library,
        timing: TimingConfig,
    ) -> Result<Self, OptError> {
        let mut sta = Sta::new(netlist, library, timing)?;
        let d_fast = sta.max_delay();
        sta.set_all_slow();
        let d_slow = sta.max_delay();

        let mut tables = HashMap::new();
        for (_, gate) in netlist.gates() {
            let kind = gate.kind();
            if tables.contains_key(&kind) {
                continue;
            }
            tables.insert(kind, Self::build_table(library, kind)?);
        }
        let tfo_sizes = transitive_fanout_sizes(netlist);
        Ok(Self {
            netlist,
            library,
            timing,
            d_fast,
            d_slow,
            tables,
            tfo_sizes,
        })
    }

    fn build_table(library: &Library, kind: GateKind) -> Result<KindTable, OptError> {
        let cell = library.cell(kind)?;
        let arity = kind.arity();
        let nstates = 1usize << arity;
        let mut allowed: [Vec<Vec<u8>>; 3] = std::array::from_fn(|_| Vec::with_capacity(nstates));
        let mut min_leak: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(nstates));
        let mut fast_leak = Vec::with_capacity(nstates);
        let mut fast_index = Vec::with_capacity(nstates);
        for state in InputState::all(arity) {
            let opts = cell.options_for(state);
            let fast_idx = opts
                .iter()
                .position(|o| o.version() == cell.fast_version())
                .expect("every state offers the fast option") as u8;
            fast_leak.push(opts[fast_idx as usize].leakage().value());
            fast_index.push(fast_idx);
            for (mi, mode) in Mode::ALL.iter().enumerate() {
                let idxs: Vec<u8> = opts
                    .iter()
                    .enumerate()
                    .filter(|(i, o)| match mode {
                        Mode::Proposed => true,
                        Mode::StateAndVt => {
                            *i == fast_idx as usize || !uses_thick(cell.version(o.version()))
                        }
                        Mode::StateOnly => *i == fast_idx as usize,
                    })
                    .map(|(i, _)| i as u8)
                    .collect();
                let min = idxs
                    .iter()
                    .map(|&i| opts[i as usize].leakage().value())
                    .fold(f64::INFINITY, f64::min);
                allowed[mi].push(idxs);
                min_leak[mi].push(min);
            }
        }
        Ok(KindTable {
            allowed,
            min_leak,
            fast_leak,
            fast_index,
        })
    }

    /// The netlist.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The library.
    #[must_use]
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The timing boundary conditions.
    #[must_use]
    pub fn timing(&self) -> TimingConfig {
        self.timing
    }

    /// Circuit delay with every gate at its fast version.
    #[must_use]
    pub fn d_fast(&self) -> Time {
        self.d_fast
    }

    /// Circuit delay with every device high-Vt and thick-ox.
    #[must_use]
    pub fn d_slow(&self) -> Time {
        self.d_slow
    }

    /// The absolute delay budget for a normalized penalty.
    #[must_use]
    pub fn delay_budget(&self, penalty: DelayPenalty) -> Time {
        self.d_fast + (self.d_slow - self.d_fast) * penalty.fraction()
    }

    /// Creates an optimizer for a penalty and mode.
    #[must_use]
    pub fn optimizer(&'a self, penalty: DelayPenalty, mode: Mode) -> Optimizer<'a> {
        Optimizer::new(self, penalty, mode)
    }

    /// Allowed option indices (ascending leakage) for a gate kind, state and
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the kind is not part of this problem's netlist.
    #[must_use]
    pub fn allowed(&self, kind: GateKind, state: InputState, mode: Mode) -> &[u8] {
        &self.table(kind).allowed[mode_index(mode)][state.bits() as usize]
    }

    /// Minimum reachable leakage for a gate kind in a state under a mode
    /// (ignoring delay — a valid lower bound).
    #[must_use]
    pub fn min_leak(&self, kind: GateKind, state: InputState, mode: Mode) -> Current {
        Current::new(self.table(kind).min_leak[mode_index(mode)][state.bits() as usize])
    }

    /// Leakage of the fast option in a state.
    #[must_use]
    pub fn fast_leak(&self, kind: GateKind, state: InputState) -> Current {
        Current::new(self.table(kind).fast_leak[state.bits() as usize])
    }

    /// Index of the fast option within `options_for(state)`.
    #[must_use]
    pub fn fast_index(&self, kind: GateKind, state: InputState) -> u8 {
        self.table(kind).fast_index[state.bits() as usize]
    }

    /// The option object for a `(kind, state, option index)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn option(&self, kind: GateKind, state: InputState, index: u8) -> &'a StateOption {
        let cell = self
            .library
            .cell(kind)
            .expect("problem construction validated all kinds");
        &cell.options_for(state)[index as usize]
    }

    /// Per-state minimum reachable leakage (nA) of a gate kind under a
    /// mode, indexed by [`InputState::bits`]: the table behind
    /// [`Problem::min_leak`], for callers that visit many states of one
    /// gate.
    pub(crate) fn min_leak_table(&self, kind: GateKind, mode: Mode) -> &[f64] {
        &self.table(kind).min_leak[mode_index(mode)]
    }

    /// The number of gates in a primary input's transitive fanout (by
    /// input position): how many gates deciding that input can influence.
    ///
    /// # Panics
    ///
    /// Panics if the input index is out of range.
    #[must_use]
    pub fn tfo_size(&self, input_index: usize) -> usize {
        self.tfo_sizes[input_index]
    }

    fn table(&self, kind: GateKind) -> &KindTable {
        self.tables
            .get(&kind)
            .expect("problem construction covered every kind in the netlist")
    }
}

fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::StateOnly => 0,
        Mode::StateAndVt => 1,
        Mode::Proposed => 2,
    }
}

fn uses_thick(version: &svtox_cells::CellVersion) -> bool {
    version
        .assignment()
        .iter()
        .any(|&(_, tox)| tox == OxideClass::Thick)
}

/// Counts the gates in each primary input's transitive fanout.
fn transitive_fanout_sizes(netlist: &Netlist) -> Vec<usize> {
    let mut seen = vec![u32::MAX; netlist.num_gates()];
    let mut stack: Vec<GateId> = Vec::new();
    let mut sizes = Vec::with_capacity(netlist.num_inputs());
    for (ii, &pi) in netlist.inputs().iter().enumerate() {
        let mark = ii as u32;
        let mut size = 0;
        stack.extend(netlist.net(pi).fanouts().iter().map(|&(g, _)| g));
        while let Some(g) = stack.pop() {
            if seen[g.index()] == mark {
                continue;
            }
            seen[g.index()] = mark;
            size += 1;
            let out = netlist.gate(g).output();
            stack.extend(netlist.net(out).fanouts().iter().map(|&(g2, _)| g2));
        }
        sizes.push(size);
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::LibraryOptions;
    use svtox_netlist::generators::benchmark;
    use svtox_tech::Technology;

    fn setup() -> (Netlist, Library) {
        (
            benchmark("c432").unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    #[test]
    fn delay_normalization() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        assert!(p.d_slow() > p.d_fast());
        let b0 = p.delay_budget(DelayPenalty::new(0.0).unwrap());
        let b100 = p.delay_budget(DelayPenalty::new(1.0).unwrap());
        assert_eq!(b0, p.d_fast());
        assert_eq!(b100, p.d_slow());
        let b5 = p.delay_budget(DelayPenalty::five_percent());
        assert!(b5 > b0 && b5 < b100);
    }

    #[test]
    fn penalty_validation() {
        assert!(DelayPenalty::new(-0.1).is_err());
        assert!(DelayPenalty::new(1.1).is_err());
        assert_eq!(DelayPenalty::new(0.25).unwrap().fraction(), 0.25);
    }

    #[test]
    fn mode_tables_nest() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        for kind in [GateKind::Nand(2), GateKind::Nor(2), GateKind::Inv] {
            for state in InputState::all(kind.arity()) {
                let proposed = p.allowed(kind, state, Mode::Proposed);
                let vt = p.allowed(kind, state, Mode::StateAndVt);
                let only = p.allowed(kind, state, Mode::StateOnly);
                assert!(only.len() == 1);
                assert!(vt.len() <= proposed.len());
                assert!(!proposed.is_empty());
                // Min leak is monotone: more knobs, lower floor.
                assert!(
                    p.min_leak(kind, state, Mode::Proposed)
                        <= p.min_leak(kind, state, Mode::StateAndVt)
                );
                assert!(
                    p.min_leak(kind, state, Mode::StateAndVt)
                        <= p.min_leak(kind, state, Mode::StateOnly)
                );
                // StateOnly's single option is the fast one.
                assert_eq!(only[0], p.fast_index(kind, state));
            }
        }
    }

    #[test]
    fn vt_mode_never_uses_thick_oxide() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let cell = lib.cell(GateKind::Nand(2)).unwrap();
        for state in InputState::all(2) {
            for &idx in p.allowed(GateKind::Nand(2), state, Mode::StateAndVt) {
                let opt = p.option(GateKind::Nand(2), state, idx);
                if idx == p.fast_index(GateKind::Nand(2), state) {
                    continue;
                }
                assert!(!uses_thick(cell.version(opt.version())));
            }
        }
    }

    #[test]
    fn tfo_cones_are_complete() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        // Reference cone: the gates reachable from the input, found by a
        // forward sweep in topological order.
        for (ii, &pi) in n.inputs().iter().enumerate() {
            let mut reached = vec![false; n.num_nets()];
            reached[pi.index()] = true;
            let mut cone = 0;
            for &g in n.topo_order() {
                let gate = n.gate(g);
                if gate.inputs().iter().any(|net| reached[net.index()]) {
                    reached[gate.output().index()] = true;
                    cone += 1;
                }
            }
            assert_eq!(p.tfo_size(ii), cone, "input {ii}");
        }
        // Total cone mass is positive and bounded.
        let total: usize = (0..n.num_inputs()).map(|i| p.tfo_size(i)).sum();
        assert!(total >= n.num_gates());
        assert!(total <= n.num_gates() * n.num_inputs());
    }
}
