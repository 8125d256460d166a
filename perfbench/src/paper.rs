//! `paper_h1`: the paper's Table 3/4 flow over the suite reconstructions.
//!
//! Per circuit: generate, `Problem::new`, the Monte-Carlo baseline, then
//! Heuristic 1 at each delay penalty — serially, with no thread pool.

use std::time::Instant;

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{DelayPenalty, Mode, Obs, Problem, Solution};
use svtox_exec::rng::derive_seed;
use svtox_exec::ExecConfig;
use svtox_netlist::generators::{benchmark, benchmark_names};
use svtox_netlist::Netlist;
use svtox_sim::random_average_leakage_parallel;
use svtox_sta::{Sta, TimingConfig};
use svtox_tech::{Technology, Time};

use crate::checks;
use crate::report::{
    self, geomean, median, median_of_medians, ms, percentile, ratio, Ctx, Report, Tracer,
};

/// Suite flows run side by side (see `run`).
pub const FLOWS: usize = 2;

/// Delay penalties of the paper's tables.
pub const PENALTIES: [f64; 3] = [0.05, 0.10, 0.25];

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Size {
    pub circuits: Vec<&'static str>,
    pub vectors: usize,
    pub setup_reps: usize,
}

impl Size {
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                circuits: vec!["c432", "c499", "c880"],
                vectors: 512,
                setup_reps: 1,
            }
        } else {
            Self {
                circuits: benchmark_names(),
                vectors: 10_000,
                setup_reps: 7,
            }
        }
    }
}

/// The generated inputs: the suite netlists and the seed of each
/// circuit's baseline vectors.
pub struct Inputs {
    pub library: Library,
    pub netlists: Vec<Netlist>,
    pub baseline_seeds: Vec<u64>,
}

/// One timed set-up: library, circuits, and a `Problem::new` per circuit.
/// Returns the inputs, the set-up time and each `Problem::new` time (ms).
pub(crate) fn setup_once(
    size: &Size,
    seed: u64,
    tracer: &Tracer,
    group: u32,
) -> (Inputs, f64, Vec<f64>) {
    let ctx = Ctx::root(group);
    let start = Instant::now();
    let (library, _) = tracer.span("cells.characterize", "", ctx, |_| {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default())
            .expect("the default library characterizes")
    });
    let (netlists, _) = tracer.span("netlist.build", "", ctx, |_| {
        size.circuits
            .iter()
            .map(|n| benchmark(n).expect("suite circuit generates"))
            .collect::<Vec<_>>()
    });
    let admits: Vec<f64> = netlists
        .iter()
        .map(|n| {
            let (p, dt) = tracer.span("core.problem", n.name(), ctx, |_| {
                Problem::new(n, &library, TimingConfig::default())
            });
            p.expect("suite kinds are in the library");
            ms(dt)
        })
        .collect();
    let setup = start.elapsed().as_secs_f64();
    if tracer.is_on() {
        for n in &netlists {
            let (delay, _) = tracer.span("sta.full_analyze", n.name(), ctx, |_| {
                let mut sta = Sta::new(n, &library, TimingConfig::default())
                    .expect("suite kinds are in the library");
                sta.max_delay()
            });
            std::hint::black_box(delay);
        }
    }
    let baseline_seeds = (0..netlists.len() as u64)
        .map(|i| derive_seed(seed, i))
        .collect();
    let inputs = Inputs {
        library,
        netlists,
        baseline_seeds,
    };
    (inputs, setup, admits)
}

struct Op {
    circuit: usize,
    average: f64,
    budget: Time,
    solution: Result<Solution, String>,
}

struct Pass {
    traced: bool,
    wall: f64,
    op_ms: Vec<f64>,
    ops: Vec<Op>,
    /// `Problem::new` times (ms) per circuit, probed between circuits.
    admits: Vec<f64>,
    counters: std::collections::BTreeMap<String, u64>,
}

fn run_pass(
    problems: &[Problem<'_>],
    inputs: &Inputs,
    size: &Size,
    tracer: &Tracer,
    obs: &Obs,
    group: u32,
) -> Pass {
    let mut op_ms = Vec::new();
    let mut ops = Vec::new();
    let mut admits = Vec::new();
    let mut wall = 0.0;
    for (i, problem) in problems.iter().enumerate() {
        let name = problem.netlist().name();
        let ((), dt) = tracer.span("paper.circuit", name, Ctx::root(group), |ctx| {
            let (average, _) = tracer.span("sim.baseline", name, ctx, |_| {
                random_average_leakage_parallel(
                    problem.netlist(),
                    &inputs.library,
                    size.vectors,
                    inputs.baseline_seeds[i],
                    &ExecConfig::serial(),
                    obs,
                )
                .expect("suite kinds are in the library")
                .total
                .value()
            });
            for &penalty in &PENALTIES {
                let optimizer = problem
                    .optimizer(
                        DelayPenalty::new(penalty).expect("penalty in range"),
                        Mode::Proposed,
                    )
                    .with_obs(obs);
                let (solution, dt) = tracer.span("core.h1", name, ctx, |_| optimizer.heuristic1());
                op_ms.push(ms(dt));
                ops.push(Op {
                    circuit: i,
                    average,
                    budget: optimizer.budget(),
                    solution: solution.map_err(|e| e.to_string()),
                });
            }
        });
        wall += dt.as_secs_f64();
        // Admission probes spread over the whole run, outside the timed
        // work, so one noisy moment does not set `admit_p50_ms`.
        report::probe_admission(problem.netlist(), &inputs.library, 1, &mut admits);
    }
    Pass {
        traced: tracer.is_on(),
        wall,
        op_ms,
        ops,
        admits,
        counters: obs.counter_snapshot(),
    }
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Report {
    let size = Size::new(smoke);
    let loud = Tracer::new(trace);
    let quiet = Tracer::new(false);
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut admits = vec![Vec::new(); size.circuits.len()];
    let mut kept = None;
    for r in 0..size.setup_reps {
        let (inputs, setup, admit) = setup_once(&size, seed, &loud, 10_000 + r as u32);
        setups.push(setup);
        for (all, t) in admits.iter_mut().zip(admit) {
            all.push(t);
        }
        kept = Some(inputs);
    }
    let inputs = kept.expect("at least one set-up");
    let problems: Vec<Problem<'_>> = inputs
        .netlists
        .iter()
        .map(|n| {
            Problem::new(n, &inputs.library, TimingConfig::default())
                .expect("suite kinds are in the library")
        })
        .collect();

    // Two flows run the serial suite pass side by side, one per core of a
    // 2-core host: measured there, the two cores' speeds differ by up to a
    // third and swap over time, so a lone flow times whichever core it
    // lands on. Traced runs alternate untraced and traced passes in each
    // flow, so the tracing overhead is measured inside the run.
    let start = Instant::now();
    let flows: Vec<Vec<Pass>> = std::thread::scope(|scope| {
        let flows: Vec<_> = (0..FLOWS)
            .map(|flow| {
                let (problems, inputs, size, loud, quiet) =
                    (&problems, &inputs, &size, &loud, &quiet);
                scope.spawn(move || {
                    let mut passes: Vec<Pass> = Vec::new();
                    let mut walls = Vec::new();
                    while report::another_rep(start, &walls, if trace { 2 } else { 1 }, seconds) {
                        let traced = trace && passes.len() % 2 == 1;
                        let obs = if traced {
                            Obs::enabled()
                        } else {
                            Obs::disabled()
                        };
                        let tracer = if traced { loud } else { quiet };
                        let group = (flow * 1000 + passes.len()) as u32;
                        let pass = run_pass(problems, inputs, size, tracer, &obs, group);
                        walls.push(pass.wall);
                        passes.push(pass);
                    }
                    passes
                })
            })
            .collect();
        flows
            .into_iter()
            .map(|f| f.join().expect("a suite flow does not panic"))
            .collect()
    });
    let walls: Vec<Vec<f64>> = flows
        .iter()
        .map(|f| f.iter().map(|p| p.wall).collect())
        .collect();
    let passes: Vec<Pass> = flows.into_iter().flatten().collect();

    // Output checks: every solution against the scalar evaluator, and
    // every pass bit-identical to the first (Heuristic 1 is deterministic).
    for pass in &passes {
        for (k, op) in pass.ops.iter().enumerate() {
            let problem = &problems[op.circuit];
            let outcome = op.solution.as_ref().map_err(Clone::clone).and_then(|sol| {
                checks::solution(problem, op.budget, sol)?;
                match &passes[0].ops[k].solution {
                    Ok(first) if sol.same_assignment(first) => Ok(()),
                    _ => Err(format!(
                        "{}: heuristic 1 differs between passes",
                        problem.netlist().name()
                    )),
                }
            });
            report.check(outcome);
        }
    }
    let first = &passes[0];
    let reduction = geomean(
        &first
            .ops
            .iter()
            .filter_map(|op| Some(op.average / op.solution.as_ref().ok()?.leakage.value()))
            .collect::<Vec<_>>(),
    );

    for pass in &passes {
        for (all, t) in admits.iter_mut().zip(&pass.admits) {
            all.push(*t);
        }
    }
    let timed: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let op_ms: Vec<f64> = timed.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
    let op_medians = report::op_medians(&timed.iter().map(|p| &p.op_ms[..]).collect::<Vec<_>>());
    let run_s = median(&timed.iter().map(|p| p.wall).collect::<Vec<_>>());
    report.e2e("setup_s", median(&setups), "s");
    report.e2e("run_s", run_s, "s");
    report.e2e("reduction_x", reduction, "x");
    report.e2e(
        "jobs_per_s",
        ratio(timed[0].op_ms.len() as f64, run_s),
        "1/s",
    );
    report.e2e("job_p50_ms", median(&op_medians), "ms");
    report.e2e("job_p95_ms", percentile(&op_ms, 95.0), "ms");
    report.e2e("admit_p50_ms", median_of_medians(&admits), "ms");
    report.notes.push(format!(
        "{} passes of {} circuits x {} penalties in {FLOWS} flows ({}); {} checked solutions",
        passes.len(),
        problems.len(),
        PENALTIES.len(),
        walls
            .iter()
            .map(|f| f
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" "))
            .collect::<Vec<_>>()
            .join(" | "),
        report.attempted
    ));

    if trace {
        report.spans = loud.jsonl();
        layers(&mut report, &loud, &passes, &problems, &size);
    }
    report
}

fn layers(
    report: &mut Report,
    tracer: &Tracer,
    passes: &[Pass],
    problems: &[Problem<'_>],
    size: &Size,
) {
    report.layer(
        "cells.characterize_ms",
        tracer.layer_ms("cells.characterize", None),
        "ms",
    );
    report.layer(
        "netlist.build_ms",
        tracer.layer_ms("netlist.build", None),
        "ms",
    );
    report.layer(
        "core.problem_ms",
        tracer.layer_ms("core.problem", None),
        "ms",
    );
    report.layer(
        "sta.full_analyze_ms",
        tracer.layer_ms("sta.full_analyze", None),
        "ms",
    );
    report.layer(
        "sim.baseline_ms",
        tracer.layer_ms("sim.baseline", None),
        "ms",
    );
    report.layer("core.h1_ms", tracer.layer_ms("core.h1", None), "ms");
    for name in &size.circuits {
        report.layer(
            &format!("core.h1_ms.{name}"),
            tracer.layer_ms("core.h1", Some(name)),
            "ms",
        );
    }
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let counter = |name: &str| {
        median(
            &traced
                .iter()
                .map(|p| p.counters.get(name).copied().unwrap_or(0) as f64)
                .collect::<Vec<_>>(),
        )
    };
    report.layer("sim.gate_evals", counter("sim.packed.gate_evals"), "count");
    report.layer("sta.flushes", counter("sta.flushes"), "count");
    report.layer(
        "sta.gates_reevaluated",
        counter("sta.gates_reevaluated"),
        "count",
    );

    let mut replay = checks::Replay::default();
    for op in &passes[0].ops {
        if let Ok(sol) = &op.solution {
            replay.add(checks::sta_replay(&problems[op.circuit], sol));
        }
    }
    report.layer(
        "sta.gates_per_flush",
        ratio(replay.gates as f64, replay.flushes as f64),
        "count",
    );
    report.layer(
        "sta.update_us_per_gate",
        ratio(replay.elapsed.as_secs_f64() * 1e6, replay.gates as f64),
        "us",
    );
    let wall = |traced: bool| {
        median(
            &passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.wall)
                .collect::<Vec<_>>(),
        )
    };
    report.layer(
        "obs.overhead_pct",
        100.0 * (ratio(wall(true), wall(false)) - 1.0),
        "%",
    );
}
