//! `search_exhaustive`: the state-tree search run to completion at two
//! threads on seeded random DAGs, by the single engine and by the default
//! portfolio.
//!
//! The circuits have more than 12 inputs, so the portfolio's exact members
//! stay out and the work is fixed and bit-identical at any thread count.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{
    Budget, DelayPenalty, ExecConfig, Mode, Obs, PortfolioConfig, Problem, RunOutcome, SearchStats,
    Solution,
};
use svtox_exec::rng::derive_seed;
use svtox_netlist::generators::{random_dag, RandomDagSpec};
use svtox_netlist::Netlist;
use svtox_sim::random_average_leakage_parallel;
use svtox_sta::{Sta, TimingConfig};
use svtox_tech::{Technology, Time};

use crate::checks;
use crate::report::{
    self, geomean, median, median_of_medians, ms, percentile, ratio, Ctx, Report, Tracer,
};

/// Engine threads of both engines.
pub const THREADS: usize = 2;
/// Delay penalty of every optimization.
pub const PENALTY: f64 = 0.05;

/// One circuit of the workload's fixed family.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub inputs: usize,
    pub gates: usize,
    pub depth: usize,
    /// Generator seed: fixed, so every run searches the same trees and a
    /// run's time measures the code, not the draw of the circuits.
    pub seed: u64,
}

/// The measured family: 13 and 14 inputs (above the portfolio's exact
/// ceiling of 12), 8,192 and 16,384 leaves per H2 order.
pub const FAMILY: [Shape; 2] = [
    Shape {
        name: "dag13",
        inputs: 13,
        gates: 40,
        depth: 6,
        seed: 0x5eed_0013,
    },
    Shape {
        name: "dag14",
        inputs: 14,
        gates: 24,
        depth: 5,
        seed: 0x5eed_0014,
    },
];

const SMOKE: [Shape; 1] = [Shape {
    name: "dag13s",
    inputs: 13,
    gates: 12,
    depth: 3,
    seed: 0x5eed_0113,
}];

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Size {
    pub shapes: &'static [Shape],
    pub vectors: usize,
    pub setup_reps: usize,
    /// Extra `Problem::new` calls per circuit and set-up for `admit_p50_ms`
    /// (one call on these small circuits takes about 0.1 ms).
    pub admit_probes: usize,
}

impl Size {
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                shapes: &SMOKE,
                vectors: 512,
                setup_reps: 1,
                admit_probes: 2,
            }
        } else {
            Self {
                shapes: &FAMILY,
                vectors: 10_000,
                setup_reps: 7,
                admit_probes: 32,
            }
        }
    }
}

/// What the workload seed draws: the order the circuits run in, the
/// portfolio's restart vectors, and each circuit's baseline vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    pub order: Vec<usize>,
    pub portfolio: PortfolioConfig,
    pub baseline_seeds: Vec<u64>,
}

#[must_use]
pub fn draw(size: &Size, seed: u64) -> Draw {
    let n = size.shapes.len();
    let first = (seed % n as u64) as usize;
    Draw {
        order: (0..n).map(|k| (first + k) % n).collect(),
        portfolio: PortfolioConfig {
            seed: derive_seed(seed, 0x9e57),
            ..PortfolioConfig::default()
        },
        baseline_seeds: (0..n as u64).map(|k| derive_seed(seed, k)).collect(),
    }
}

/// Generates one circuit of the family.
#[must_use]
pub fn circuit(shape: &Shape) -> Netlist {
    let mut spec = RandomDagSpec::new(shape.name, shape.inputs, 8, shape.gates, shape.depth);
    spec.seed = shape.seed;
    random_dag(&spec).expect("the random DAG spec is valid")
}

fn setup_once(
    size: &Size,
    draw: &Draw,
    tracer: &Tracer,
    group: u32,
) -> (Library, Vec<Netlist>, f64, Vec<Vec<f64>>) {
    let ctx = Ctx::root(group);
    let start = Instant::now();
    let (library, _) = tracer.span("cells.characterize", "", ctx, |_| {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default())
            .expect("the default library characterizes")
    });
    let (netlists, _) = tracer.span("netlist.build", "", ctx, |_| {
        draw.order
            .iter()
            .map(|&k| circuit(&size.shapes[k]))
            .collect::<Vec<_>>()
    });
    let mut admits: Vec<Vec<f64>> = netlists
        .iter()
        .map(|n| {
            let (p, dt) = tracer.span("core.problem", n.name(), ctx, |_| {
                Problem::new(n, &library, TimingConfig::default())
            });
            p.expect("generated kinds are in the library");
            vec![ms(dt)]
        })
        .collect();
    let setup = start.elapsed().as_secs_f64();
    for (n, times) in netlists.iter().zip(&mut admits) {
        report::probe_admission(n, &library, size.admit_probes, times);
    }
    if tracer.is_on() {
        for n in &netlists {
            let (delay, _) = tracer.span("sta.full_analyze", n.name(), ctx, |_| {
                Sta::new(n, &library, TimingConfig::default())
                    .expect("generated kinds are in the library")
                    .max_delay()
            });
            std::hint::black_box(delay);
        }
    }
    (library, netlists, setup, admits)
}

/// The three ways each circuit is optimized, cheapest first. Both
/// engines start from Heuristic 1, so each must end no worse than the one
/// before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Heuristic1,
    Single,
    Portfolio,
}

const ENGINES: [Engine; 3] = [Engine::Heuristic1, Engine::Single, Engine::Portfolio];

impl Engine {
    fn span(self) -> &'static str {
        match self {
            Engine::Heuristic1 => "core.h1",
            Engine::Single => "core.single",
            Engine::Portfolio => "core.portfolio",
        }
    }
}

struct Run {
    circuit: usize,
    engine: Engine,
    budget: Time,
    outcome: Result<(Solution, SearchStats, usize), String>,
}

struct Rep {
    traced: bool,
    wall: f64,
    op_ms: Vec<f64>,
    runs: Vec<Run>,
    /// `Problem::new` times (ms) per circuit, probed between engine runs.
    admits: Vec<Vec<f64>>,
    counters: BTreeMap<String, u64>,
}

fn run_rep(
    problems: &[Problem<'_>],
    size: &Size,
    portfolio_config: &PortfolioConfig,
    tracer: &Tracer,
    obs: &Obs,
    group: u32,
) -> Rep {
    let exec = ExecConfig::with_threads(THREADS);
    let penalty = DelayPenalty::new(PENALTY).expect("penalty in range");
    let mut op_ms = Vec::new();
    let mut runs = Vec::new();
    let mut admits = vec![Vec::new(); problems.len()];
    // Admission probes spread over the whole run, outside the timed work,
    // so one noisy moment does not set `admit_p50_ms`.
    let mut probe = |i: usize| {
        let p = &problems[i];
        report::probe_admission(p.netlist(), p.library(), size.admit_probes, &mut admits[i]);
    };
    for (i, problem) in problems.iter().enumerate() {
        let name = problem.netlist().name();
        let optimizer = problem.optimizer(penalty, Mode::Proposed).with_obs(obs);
        tracer.span("search.circuit", name, Ctx::root(group), |ctx| {
            for engine in ENGINES {
                let (outcome, dt) = tracer.span(engine.span(), name, ctx, |_| match engine {
                    Engine::Heuristic1 => optimizer
                        .heuristic1()
                        .map(|sol| (sol, SearchStats::default(), 0))
                        .map_err(|e| format!("heuristic 1 failed: {e}")),
                    Engine::Single => {
                        match optimizer.run_with_budget(&exec, &Budget::unlimited(), None) {
                            RunOutcome::Complete { solution, stats } => Ok((solution, stats, 0)),
                            other => Err(format!("single engine ended {}", other.status())),
                        }
                    }
                    Engine::Portfolio => {
                        match optimizer.run_portfolio(
                            &exec,
                            &Budget::unlimited(),
                            portfolio_config,
                            None,
                        ) {
                            Ok(p) if p.reason.is_none() => Ok((p.best, p.stats, p.rounds)),
                            Ok(p) => Err(format!("portfolio ended {}", p.status())),
                            Err(e) => Err(format!("portfolio failed: {e}")),
                        }
                    }
                });
                op_ms.push(ms(dt));
                probe(i);
                runs.push(Run {
                    circuit: i,
                    engine,
                    budget: optimizer.budget(),
                    outcome: outcome.map_err(|e| format!("{name}: {e}")),
                });
            }
        });
    }
    Rep {
        traced: tracer.is_on(),
        wall: op_ms.iter().sum::<f64>() / 1e3,
        op_ms,
        runs,
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

    let draw = draw(&size, seed);
    let mut setups = Vec::new();
    let mut admits = vec![Vec::new(); size.shapes.len()];
    let mut kept = None;
    for r in 0..size.setup_reps {
        let (library, netlists, setup, admit) = setup_once(&size, &draw, &loud, 1000 + r as u32);
        setups.push(setup);
        for (all, times) in admits.iter_mut().zip(admit) {
            all.extend(times);
        }
        kept = Some((library, netlists));
    }
    let (library, netlists) = kept.expect("at least one set-up");
    let problems: Vec<Problem<'_>> = netlists
        .iter()
        .map(|n| {
            Problem::new(n, &library, TimingConfig::default())
                .expect("generated kinds are in the library")
        })
        .collect();
    // The random-vector reference of `reduction_x` (not part of the
    // timed work).
    let averages: Vec<f64> = netlists
        .iter()
        .enumerate()
        .map(|(k, n)| {
            let ctx = Ctx::root(999);
            loud.span("sim.baseline", n.name(), ctx, |_| {
                random_average_leakage_parallel(
                    n,
                    &library,
                    size.vectors,
                    draw.baseline_seeds[k],
                    &ExecConfig::serial(),
                    Obs::disabled_ref(),
                )
                .expect("generated kinds are in the library")
                .total
                .value()
            })
            .0
        })
        .collect();

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut walls = Vec::new();
    while report::another_rep(start, &walls, if trace { 2 } else { 1 }, seconds) {
        let traced = trace && reps.len() % 2 == 1;
        let obs = if traced {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let tracer = if traced { &loud } else { &quiet };
        let rep = run_rep(
            &problems,
            &size,
            &draw.portfolio,
            tracer,
            &obs,
            reps.len() as u32,
        );
        walls.push(rep.wall);
        reps.push(rep);
    }

    // Output checks: complete outcomes, solutions against the scalar
    // evaluator, each engine no worse than the one before it, and every
    // repetition bit-identical to the first.
    for rep in &reps {
        for (k, run) in rep.runs.iter().enumerate() {
            let problem = &problems[run.circuit];
            let outcome = run
                .outcome
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|(sol, _, _)| {
                    checks::solution(problem, run.budget, sol)?;
                    if let Ok((first, _, _)) = &reps[0].runs[k].outcome {
                        if !sol.same_assignment(first) {
                            return Err(format!(
                                "{}: result differs between repetitions",
                                problem.netlist().name()
                            ));
                        }
                    }
                    if run.engine != Engine::Heuristic1 {
                        let before = &rep.runs[k - 1];
                        if let Ok((prev, _, _)) = &before.outcome {
                            if sol.leakage.value() > prev.leakage.value() {
                                return Err(format!(
                                    "{}: {:?} ended at {}, worse than {:?} at {}",
                                    problem.netlist().name(),
                                    run.engine,
                                    sol.leakage,
                                    before.engine,
                                    prev.leakage
                                ));
                            }
                        }
                    }
                    Ok(())
                });
            report.check(outcome);
        }
    }
    let reductions: Vec<f64> = reps[0]
        .runs
        .iter()
        .filter_map(|run| {
            let (sol, _, _) = run.outcome.as_ref().ok()?;
            Some(averages[run.circuit] / sol.leakage.value())
        })
        .collect();

    for rep in &reps {
        for (all, times) in admits.iter_mut().zip(&rep.admits) {
            all.extend(times);
        }
    }
    let timed: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let op_ms: Vec<f64> = timed.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    let op_medians = report::op_medians(&timed.iter().map(|r| &r.op_ms[..]).collect::<Vec<_>>());
    let run_s = median(&timed.iter().map(|r| r.wall).collect::<Vec<_>>());
    report.e2e("setup_s", median(&setups), "s");
    report.e2e("run_s", run_s, "s");
    report.e2e("reduction_x", geomean(&reductions), "x");
    report.e2e(
        "jobs_per_s",
        ratio(timed[0].op_ms.len() as f64, run_s),
        "1/s",
    );
    report.e2e("job_p50_ms", median(&op_medians), "ms");
    report.e2e("job_p95_ms", percentile(&op_ms, 95.0), "ms");
    report.e2e("admit_p50_ms", median_of_medians(&admits), "ms");
    report.notes.push(format!(
        "{} repetitions ({}) of {} x {{heuristic 1, single engine, portfolio}} at {THREADS} threads",
        reps.len(),
        walls
            .iter()
            .map(|w| format!("{w:.3} s"))
            .collect::<Vec<_>>()
            .join(", "),
        netlists
            .iter()
            .map(|n| format!(
                "{} ({} inputs, {} gates)",
                n.name(),
                n.num_inputs(),
                n.num_gates()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if trace {
        report.spans = loud.jsonl();
        layers(&mut report, &loud, &reps, &problems);
    }
    report
}

fn layers(report: &mut Report, tracer: &Tracer, reps: &[Rep], problems: &[Problem<'_>]) {
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
    report.layer("core.single_ms", tracer.layer_ms("core.single", None), "ms");
    report.layer(
        "core.portfolio_ms",
        tracer.layer_ms("core.portfolio", None),
        "ms",
    );

    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let stats = |r: &Rep| {
        let mut all = SearchStats::default();
        let mut rounds = 0;
        for run in &r.runs {
            if let Ok((_, s, n)) = &run.outcome {
                all.absorb(s);
                rounds += n;
            }
        }
        (all, rounds)
    };
    let leaves = per_rep(&|r| stats(r).0.leaves_evaluated() as f64);
    let nodes = per_rep(&|r| stats(r).0.nodes_expanded() as f64);
    let prunes = per_rep(&|r| {
        let s = stats(r).0;
        (s.prunes_local() + s.prunes_shared()) as f64
    });
    let engine_us = per_rep(&|r| r.op_ms.iter().sum::<f64>() * 1e3);
    report.layer("core.search.leaves", leaves, "count");
    report.layer("core.search.nodes", nodes, "count");
    report.layer("core.search.prune_ratio", ratio(prunes, nodes), "ratio");
    report.layer("core.search.us_per_leaf", ratio(engine_us, leaves), "us");
    report.layer(
        "core.portfolio.rounds",
        per_rep(&|r| stats(r).1 as f64),
        "count",
    );
    report.layer(
        "exec.idle_share",
        per_rep(&|r| {
            let s = stats(r).0;
            let idle: Duration = s.workers.iter().map(|w| w.idle).sum();
            let busy: Duration = s.workers.iter().map(|w| w.busy).sum();
            ratio(idle.as_secs_f64(), (idle + busy).as_secs_f64())
        }),
        "ratio",
    );
    report.layer(
        "exec.steals",
        per_rep(&|r| stats(r).0.steals() as f64),
        "count",
    );
    let counter = |name: &str| per_rep(&|r| r.counters.get(name).copied().unwrap_or(0) as f64);
    report.layer("sta.flushes", counter("sta.flushes"), "count");
    report.layer(
        "sta.gates_reevaluated",
        counter("sta.gates_reevaluated"),
        "count",
    );

    let mut replay = checks::Replay::default();
    for run in &reps[0].runs {
        if let Ok((sol, _, _)) = &run.outcome {
            replay.add(checks::sta_replay(&problems[run.circuit], sol));
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
            &reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall)
                .collect::<Vec<_>>(),
        )
    };
    report.layer(
        "obs.overhead_pct",
        100.0 * (ratio(wall(true), wall(false)) - 1.0),
        "%",
    );
    report.notes.push(format!(
        "counter gap: sta.flushes/sta.gates_reevaluated count Heuristic 1 only; the engines' worker and portfolio-member analyzers are not flushed to obs (sta.full_analyzes = {})",
        counter("sta.full_analyzes")
    ));
}
