//! Table 1: delay/leakage trade-offs of the NAND2 cell versions per input
//! state (leakage in nA, delays normalized to the fast version, per pin).

use svtox_bench::{default_library, BenchArgs};
use svtox_cells::InputState;
use svtox_netlist::GateKind;
use svtox_sta::GateConfig;
use svtox_tech::{Capacitance, Time};

fn main() {
    // The table takes no workload flags, but a typo still fails with a
    // usage error like in every harness binary.
    let _ = BenchArgs::from_env();
    let library = default_library();
    let cell = library.cell(GateKind::Nand(2)).expect("NAND2 in library");
    let load = Capacitance::new(4.0);
    let slew = Time::new(20.0);

    println!("Table 1 — trade-offs for Vt-Tox versions of the NAND2 gate");
    println!("(leakage in nA; delays normalized to the minimum-delay version)");
    println!(
        "{:<6} {:<14} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "state", "version", "leak nA", "rise A", "rise B", "fall A", "fall B"
    );

    // Reference arcs (fast version, identity pins).
    let fast = cell.fast_version();
    let ref_delay = |pin: usize, rising: bool| -> Time {
        let arc = cell.arc_physical(fast, pin);
        if rising {
            arc.rise.lookup(slew, load).0
        } else {
            arc.fall.lookup(slew, load).0
        }
    };

    // The paper shows states 11, 00, 10 (01 is the reordered twin of 10).
    for bits in [0b11u16, 0b00, 0b01] {
        let state = InputState::from_bits(bits, 2);
        for opt in cell.options_for(state) {
            let cfg = GateConfig::from(opt);
            let d = |logical: usize, rising: bool| -> f64 {
                let arc = cell.arc_physical(cfg.version, cfg.physical_pin(logical));
                let t = if rising {
                    arc.rise.lookup(slew, load).0
                } else {
                    arc.fall.lookup(slew, load).0
                };
                t / ref_delay(cfg.physical_pin(logical), rising)
            };
            println!(
                "{:<6} {:<14} {:>9.1} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                state,
                cell.version(opt.version()).label(),
                opt.leakage().value(),
                d(0, true),
                d(1, true),
                d(0, false),
                d(1, false),
            );
        }
        println!();
    }
    println!("paper reference (state 11): 270.4 / 109.1 / 91.4 / 19.5 nA,");
    println!("rise ≤1.37x, fall ≤1.27x — compare ordering and ratios, not absolutes.");
}
