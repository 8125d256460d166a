//! Three-valued event-driven simulation for partial standby vectors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use svtox_cells::InputState;
use svtox_netlist::{GateId, GateKind, NetId, Netlist};

use crate::logic::Logic;

/// Three-valued, event-driven simulator.
///
/// The state-tree search decides primary inputs one at a time; undecided
/// inputs are `X`. For every gate, the simulator exposes the input cube
/// still reachable ([`TriSimulator::gate_cube`], or enumerated as
/// [`TriSimulator::possible_states`]), which the optimizer turns into
/// leakage lower bounds for pruning. After each [`TriSimulator::set_input`]
/// it also lists the gates whose cube may have changed
/// ([`TriSimulator::touched`]), so a bound can be maintained
/// event-driven rather than over a static fan-out cone.
#[derive(Debug, Clone)]
pub struct TriSimulator<'a> {
    netlist: &'a Netlist,
    net_values: Vec<Logic>,
    queued: Vec<bool>,
    /// Event queue, reused across calls (empty between them).
    heap: BinaryHeap<Reverse<(u32, GateId)>>,
    /// Gates enqueued by the last `set_input`, in enqueue order.
    touched: Vec<GateId>,
}

impl<'a> TriSimulator<'a> {
    /// Creates a simulator with every primary input undecided.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut sim = Self {
            netlist,
            net_values: vec![Logic::X; netlist.num_nets()],
            queued: vec![false; netlist.num_gates()],
            heap: BinaryHeap::new(),
            touched: Vec::new(),
        };
        sim.full_eval();
        sim
    }

    /// The netlist under simulation.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Number of primary inputs still undecided.
    #[must_use]
    pub fn num_undecided(&self) -> usize {
        self.netlist
            .inputs()
            .iter()
            .filter(|&&pi| self.net_values[pi.index()] == Logic::X)
            .count()
    }

    /// Sets one primary input (by position) to a three-valued level,
    /// propagating only the affected cone. Returns the number of gates
    /// re-evaluated. The re-evaluated gates — exactly those one of whose
    /// input nets changed value — are listed by [`TriSimulator::touched`]
    /// until the next call. Allocates nothing once the internal buffers
    /// have grown to the largest event cone.
    ///
    /// # Panics
    ///
    /// Panics if `input_index` is out of range.
    pub fn set_input(&mut self, input_index: usize, value: Logic) -> usize {
        self.touched.clear();
        let pi = self.netlist.inputs()[input_index];
        if self.net_values[pi.index()] == value {
            return 0;
        }
        self.net_values[pi.index()] = value;
        self.enqueue_fanouts(pi);
        // Stack scratch (arity-bounded): deciding an input never allocates,
        // which matters because the state search calls this at every node.
        let mut ins = [Logic::X; GateKind::MAX_ARITY];
        while let Some(Reverse((_lvl, gate_id))) = self.heap.pop() {
            self.queued[gate_id.index()] = false;
            let gate = self.netlist.gate(gate_id);
            let pins = gate.inputs();
            for (slot, &n) in ins.iter_mut().zip(pins) {
                *slot = self.net_values[n.index()];
            }
            let new = Logic::eval_gate(gate.kind(), &ins[..pins.len()]);
            let out = gate.output();
            if self.net_values[out.index()] != new {
                self.net_values[out.index()] = new;
                self.enqueue_fanouts(out);
            }
        }
        self.touched.len()
    }

    /// Queues (and records as touched) every not-yet-queued reader of a
    /// net that just changed value.
    fn enqueue_fanouts(&mut self, net: NetId) {
        for &(g, _pin) in self.netlist.net(net).fanouts() {
            if !self.queued[g.index()] {
                self.queued[g.index()] = true;
                self.touched.push(g);
                self.heap.push(Reverse((self.netlist.level(g), g)));
            }
        }
    }

    /// The gates the last [`TriSimulator::set_input`] re-evaluated, in the
    /// order they were queued: every gate one of whose input nets changed
    /// value, and no other. Levelized propagation queues a gate at most
    /// once per call, but callers needing a canonical order should sort.
    #[must_use]
    pub fn touched(&self) -> &[GateId] {
        &self.touched
    }

    /// Resets every primary input to undecided.
    pub fn clear(&mut self) {
        self.touched.clear();
        for v in &mut self.net_values {
            *v = Logic::X;
        }
        self.full_eval();
    }

    /// The value of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.net_values[net.index()]
    }

    /// The three-valued input levels of a gate, in logical pin order.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    #[must_use]
    pub fn gate_levels(&self, gate: GateId) -> Vec<Logic> {
        self.netlist
            .gate(gate)
            .inputs()
            .iter()
            .map(|&n| self.net_values[n.index()])
            .collect()
    }

    /// A gate's input cube in logical pin order, as `(ones, xs)` bitmasks:
    /// bit `i` of `ones` is set when pin `i` is `1`, bit `i` of `xs` when it
    /// is `X`. The states the gate can still assume are `ones | sub` for
    /// every `sub` ⊆ `xs` (what [`TriSimulator::possible_states`]
    /// enumerates), so callers can walk them without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    #[must_use]
    pub fn gate_cube(&self, gate: GateId) -> (u16, u16) {
        let (mut ones, mut xs) = (0u16, 0u16);
        for (i, &n) in self.netlist.gate(gate).inputs().iter().enumerate() {
            match self.net_values[n.index()] {
                Logic::One => ones |= 1 << i,
                Logic::X => xs |= 1 << i,
                Logic::Zero => {}
            }
        }
        (ones, xs)
    }

    /// Enumerates the input states a gate can still assume given the
    /// decided inputs: the Cartesian expansion of its `X` pins.
    ///
    /// Note this is a (tight, cheap) superset of the truly reachable
    /// states — correlations between `X` nets are ignored, which is the
    /// safe direction for bounding.
    #[must_use]
    pub fn possible_states(&self, gate: GateId) -> Vec<InputState> {
        let levels = self.gate_levels(gate);
        let free: Vec<usize> = levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == Logic::X)
            .map(|(i, _)| i)
            .collect();
        let mut base: u16 = 0;
        for (i, &l) in levels.iter().enumerate() {
            if l == Logic::One {
                base |= 1 << i;
            }
        }
        (0..(1u32 << free.len()))
            .map(|combo| {
                let mut bits = base;
                for (k, &pin) in free.iter().enumerate() {
                    if combo >> k & 1 == 1 {
                        bits |= 1 << pin;
                    }
                }
                InputState::from_bits(bits, levels.len())
            })
            .collect()
    }

    fn full_eval(&mut self) {
        let mut ins = [Logic::X; GateKind::MAX_ARITY];
        for &gid in self.netlist.topo_order() {
            let gate = self.netlist.gate(gid);
            let pins = gate.inputs();
            for (slot, &n) in ins.iter_mut().zip(pins) {
                *slot = self.net_values[n.index()];
            }
            self.net_values[gate.output().index()] =
                Logic::eval_gate(gate.kind(), &ins[..pins.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two::Simulator;
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::{GateKind, NetlistBuilder};

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let nb = b.add_gate(GateKind::Inv, &[c]).unwrap();
        let y = b.add_gate(GateKind::Nand(2), &[a, nb]).unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn starts_all_unknown() {
        let n = toy();
        let sim = TriSimulator::new(&n);
        assert_eq!(sim.num_undecided(), 2);
        for (nid, _) in n.nets() {
            assert_eq!(sim.value(nid), Logic::X);
        }
    }

    #[test]
    fn controlling_input_decides_cone() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        // a=0 forces the NAND to 1 even though b is unknown.
        sim.set_input(0, Logic::Zero);
        let y = n.outputs()[0];
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(sim.num_undecided(), 1);
    }

    #[test]
    fn agrees_with_two_valued_when_fully_decided() {
        let spec = RandomDagSpec::new("tri-test", 16, 6, 200, 10);
        let n = random_dag(&spec).unwrap();
        let mut tri = TriSimulator::new(&n);
        let mut two = Simulator::new(&n);
        let vector: Vec<bool> = (0..n.num_inputs()).map(|i| i % 3 == 0).collect();
        two.set_inputs(&vector);
        for (i, &v) in vector.iter().enumerate() {
            tri.set_input(i, Logic::from(v));
        }
        assert_eq!(tri.num_undecided(), 0);
        for (nid, _) in n.nets() {
            assert_eq!(tri.value(nid).to_bool(), Some(two.value(nid)));
        }
    }

    #[test]
    fn possible_states_cover_actual_state() {
        let spec = RandomDagSpec::new("tri-cover", 12, 4, 120, 8);
        let n = random_dag(&spec).unwrap();
        let mut tri = TriSimulator::new(&n);
        // Decide half the inputs.
        for i in 0..n.num_inputs() / 2 {
            tri.set_input(i, Logic::from(i % 2 == 0));
        }
        // Complete the vector in a two-valued simulator.
        let mut two = Simulator::new(&n);
        let vector: Vec<bool> = (0..n.num_inputs())
            .map(|i| {
                if i < n.num_inputs() / 2 {
                    i % 2 == 0
                } else {
                    true
                }
            })
            .collect();
        two.set_inputs(&vector);
        for (gid, _) in n.gates() {
            let actual = two.gate_state(gid);
            let possible = tri.possible_states(gid);
            assert!(
                possible.contains(&actual),
                "gate {gid}: state {actual} not in possible set"
            );
        }
    }

    #[test]
    fn possible_states_shrink_as_inputs_decide() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        let nand = n.topo_order()[1];
        assert_eq!(sim.possible_states(nand).len(), 4);
        sim.set_input(0, Logic::One);
        assert_eq!(sim.possible_states(nand).len(), 2);
        sim.set_input(1, Logic::Zero);
        assert_eq!(sim.possible_states(nand).len(), 1);
    }

    /// Differential check of the touched list: after each random 0/1/X
    /// step, it holds every reader of a net whose value changed, exactly
    /// once, and no other gate.
    #[test]
    fn touched_is_the_fanout_of_the_changed_nets() {
        use svtox_exec::rng::Xoshiro256pp;
        for case in 0..6u64 {
            let spec = RandomDagSpec::new(format!("tri-touched-{case}"), 10, 4, 150, 8);
            let n = random_dag(&spec).unwrap();
            let mut sim = TriSimulator::new(&n);
            let mut rng = Xoshiro256pp::seed_from_u64(0x7a11 + case);
            for step in 0..200 {
                let before: Vec<Logic> = n.nets().map(|(nid, _)| sim.value(nid)).collect();
                let input = rng.gen_index(n.num_inputs());
                let value = [Logic::Zero, Logic::One, Logic::X][rng.gen_index(3)];
                let evaluated = sim.set_input(input, value);
                let mut expected: Vec<GateId> = n
                    .nets()
                    .filter(|&(nid, _)| sim.value(nid) != before[nid.index()])
                    .flat_map(|(_, net)| net.fanouts().iter().map(|&(g, _)| g))
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                let mut touched = sim.touched().to_vec();
                assert_eq!(touched.len(), evaluated, "case {case}, step {step}");
                touched.sort_unstable();
                let len = touched.len();
                touched.dedup();
                assert_eq!(touched.len(), len, "case {case}, step {step}: duplicates");
                assert_eq!(touched, expected, "case {case}, step {step}");
            }
        }
    }

    #[test]
    fn gate_cube_matches_possible_states() {
        let spec = RandomDagSpec::new("tri-cube", 12, 4, 120, 8);
        let n = random_dag(&spec).unwrap();
        let mut sim = TriSimulator::new(&n);
        for i in 0..n.num_inputs() / 2 {
            sim.set_input(i, Logic::from(i % 3 == 0));
        }
        for (gid, gate) in n.gates() {
            let (ones, xs) = sim.gate_cube(gid);
            assert_eq!(ones & xs, 0);
            let mut states = sim.possible_states(gid);
            states.sort_unstable();
            let mut from_cube: Vec<InputState> = (0..1u32 << gate.inputs().len())
                .map(|b| b as u16)
                .filter(|&b| b & !xs == ones)
                .map(|b| InputState::from_bits(b, gate.inputs().len()))
                .collect();
            from_cube.sort_unstable();
            assert_eq!(states, from_cube, "gate {gid}");
        }
    }

    #[test]
    fn clear_resets() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        sim.set_input(0, Logic::One);
        sim.set_input(1, Logic::Zero);
        sim.clear();
        assert_eq!(sim.num_undecided(), 2);
    }

    #[test]
    fn undoing_an_input_works_via_x() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        let y = n.outputs()[0];
        sim.set_input(0, Logic::Zero);
        assert_eq!(sim.value(y), Logic::One);
        sim.set_input(0, Logic::X);
        assert_eq!(sim.value(y), Logic::X);
    }
}
