//! Parallel suite runner: Heuristic-1 across circuits × penalties.
//!
//! ```text
//! cargo run --release -p svtox-bench --bin suite -- \
//!     [--quick] [--threads N] [--json] [--trace FILE] [--budget SECONDS]
//! ```
//!
//! `--threads 0` uses one worker per available CPU. Results are identical
//! for any thread count: tasks reduce in a fixed order and Heuristic 1 is
//! deterministic. `--json` prints one machine-readable JSON document
//! (entries plus counters) instead of the table; `--trace FILE` writes the
//! JSONL event trace. `--budget SECONDS` routes every (circuit, penalty)
//! through the full engine under that wall-clock budget, so each entry
//! carries a genuine typed outcome (`complete`, or `degraded` with its
//! reason) instead of the always-complete Heuristic-1 path.

use svtox_bench::{run_suite, ua, x_factor, BenchArgs};
use svtox_exec::ExecConfig;
use svtox_obs::{json, JsonlSink, Obs};

fn main() {
    let args = BenchArgs::from_env();
    let exec = ExecConfig::with_threads(args.threads);
    let obs = if args.json || args.trace.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    if let Some(path) = &args.trace {
        let sink = JsonlSink::to_file(path).expect("trace file creates");
        obs.set_sink(Box::new(sink));
    }
    let penalties = [0.05, 0.10, 0.25];
    let (entries, stats) = run_suite(&args, &penalties, &exec, &obs);
    obs.emit_counters();
    obs.flush();

    if args.json {
        // One JSON document on stdout: suite entries + final counters.
        let mut root = std::collections::BTreeMap::new();
        let list: Vec<json::Value> = entries
            .iter()
            .map(|e| {
                let mut obj = std::collections::BTreeMap::new();
                obj.insert(
                    "circuit".to_string(),
                    json::Value::Str(e.circuit.to_string()),
                );
                obj.insert("penalty".to_string(), json::Value::Num(e.penalty));
                obj.insert(
                    "avg_ua".to_string(),
                    json::Value::Num(e.average.as_micro_amps()),
                );
                obj.insert(
                    "opt_ua".to_string(),
                    json::Value::Num(e.solution.leakage.as_micro_amps()),
                );
                obj.insert(
                    "reduction_x".to_string(),
                    json::Value::Num(e.average.value() / e.solution.leakage.value()),
                );
                obj.insert(
                    "leaves".to_string(),
                    json::Value::Num(e.solution.leaves_explored as f64),
                );
                obj.insert(
                    "outcome".to_string(),
                    json::Value::Str(e.outcome.to_string()),
                );
                obj.insert(
                    "reason".to_string(),
                    match &e.reason {
                        Some(reason) => json::Value::Str(reason.clone()),
                        None => json::Value::Null,
                    },
                );
                obj.insert(
                    "winner".to_string(),
                    match e.winner {
                        Some(winner) => json::Value::Str(winner.to_string()),
                        None => json::Value::Null,
                    },
                );
                json::Value::Obj(obj)
            })
            .collect();
        root.insert("entries".to_string(), json::Value::Arr(list));
        let counters: std::collections::BTreeMap<String, json::Value> = obs
            .counter_snapshot()
            .into_iter()
            .map(|(k, v)| (k, json::Value::Num(v as f64)))
            .collect();
        root.insert("counters".to_string(), json::Value::Obj(counters));
        root.insert(
            "tasks_executed".to_string(),
            json::Value::Num(stats.tasks_executed() as f64),
        );
        println!("{}", json::Value::Obj(root));
        return;
    }

    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>6}",
        "circuit", "penalty", "avg (µA)", "opt (µA)", "X"
    );
    for e in &entries {
        let mut status = match &e.reason {
            Some(reason) => format!("  {} ({reason})", e.outcome),
            None => String::new(),
        };
        if let Some(winner) = e.winner {
            status.push_str(&format!("  winner: {winner}"));
        }
        println!(
            "{:<8} {:>7}% {:>12} {:>12} {:>6}{status}",
            e.circuit,
            (e.penalty * 100.0).round(),
            ua(e.average),
            ua(e.solution.leakage),
            x_factor(e.average, e.solution.leakage),
        );
    }
    println!("\nengine: {stats}");
}
