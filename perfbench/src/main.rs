//! The svtox benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_h1|search_exhaustive|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run record line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`). See
//! `perfbench/README.md` for the workloads and the metric map.

mod checks;
mod paper;
mod report;
mod search;
mod serve;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metric, Report};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper_h1", "search_exhaustive", "serve_mix"];

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("reduction_x", "x"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("admit_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints all of them; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("cells.characterize_ms", "ms"),
    ("netlist.build_ms", "ms"),
    ("core.problem_ms", "ms"),
    ("sta.full_analyze_ms", "ms"),
    ("sim.baseline_ms", "ms"),
    ("sim.gate_evals", "count"),
    ("core.h1_ms", "ms"),
    ("core.h1_ms.c432", "ms"),
    ("core.h1_ms.c499", "ms"),
    ("core.h1_ms.c880", "ms"),
    ("core.h1_ms.c1355", "ms"),
    ("core.h1_ms.c1908", "ms"),
    ("core.h1_ms.c2670", "ms"),
    ("core.h1_ms.c3540", "ms"),
    ("core.h1_ms.c5315", "ms"),
    ("core.h1_ms.c6288", "ms"),
    ("core.h1_ms.c7552", "ms"),
    ("core.h1_ms.alu64", "ms"),
    ("sta.flushes", "count"),
    ("sta.gates_reevaluated", "count"),
    ("sta.gates_per_flush", "count"),
    ("sta.update_us_per_gate", "us"),
    ("core.single_ms", "ms"),
    ("core.portfolio_ms", "ms"),
    ("core.search.leaves", "count"),
    ("core.search.nodes", "count"),
    ("core.search.prune_ratio", "ratio"),
    ("core.search.us_per_leaf", "us"),
    ("core.portfolio.rounds", "count"),
    ("exec.idle_share", "ratio"),
    ("exec.steals", "count"),
    ("serve.engine_ms.p50", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.status_ms.p50", "ms"),
    ("serve.cache.netlist_hit_ratio", "ratio"),
    ("serve.cache.library_hit_ratio", "ratio"),
    ("serve.cache.eco_hit_ratio", "ratio"),
    ("serve.connections_per_job", "count"),
    ("serve.journal_bytes_per_job", "B"),
    ("serve.mix.hot_share", "ratio"),
    ("serve.mix.unique_share", "ratio"),
    ("serve.mix.eco_share", "ratio"),
    ("serve.job_p50_ms.hot", "ms"),
    ("serve.job_p50_ms.unique", "ms"),
    ("serve.job_p50_ms.eco", "ms"),
    ("obs.overhead_pct", "%"),
    ("fail_share", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smallest sizes; only the benchmark's own tests set it.
    pub smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs one workload.
#[must_use]
pub fn run(args: &Args) -> Report {
    let run = match args.workload.as_str() {
        "paper_h1" => paper::run,
        "search_exhaustive" => search::run,
        _ => serve::run,
    };
    let mut report = run(args.seed, args.seconds, args.trace, args.smoke);
    report.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    report.layer(
        "fail_share",
        report::ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    report
}

/// The metrics one run prints: the full list of its kind, in order.
///
/// # Errors
///
/// Names a metric the workload reported that is not in the list, or an
/// end-to-end metric it did not report.
pub fn printed(report: &Report, trace: bool) -> Result<Vec<Metric>, String> {
    let (list, got) = if trace {
        (&PER_LAYER[..], &report.layers)
    } else {
        (&END_TO_END[..], &report.e2e)
    };
    if let Some(stray) = got.iter().find(|m| !list.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("metric {} is not declared", stray.name));
    }
    list.iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) if !m.value.is_finite() => Err(format!("metric {name} is {}", m.value)),
            Some(m) if m.unit == unit => Ok(m.clone()),
            Some(m) => Err(format!("metric {name} reported in {} not {unit}", m.unit)),
            None if trace => Ok(Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => Err(format!("end-to-end metric {name} missing")),
        })
        .collect()
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the program's sources (`crates/`, sorted by path): names
/// the code a record measured even where there is no git metadata.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    svtox_obs::json::escape_into(&mut out, s);
    out
}

fn threads(workload: &str) -> usize {
    match workload {
        "search_exhaustive" => search::THREADS,
        "paper_h1" => paper::FLOWS,
        // One engine thread per job; two runners serve jobs side by side.
        _ => 1,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let out_dir = root.join(".bench_build").join("perfbench");
    let report = run(&args);
    let metrics = match printed(&report, args.trace) {
        Ok(m) => m,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(1);
        }
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut record = format!(
        "{{\"bench\":\"svtox\",\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"threads\":{},\"host_cpus\":{host_cpus},\"commit\":{},\"source_hash\":\"{}\",\"attempted\":{},\"failed\":{},\"notes\":[",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        threads(&args.workload),
        json_str(&commit(&root)),
        source_hash(&root),
        report.attempted,
        report.failed,
    );
    for (i, note) in report.notes.iter().enumerate() {
        let _ = write!(record, "{}{}", if i > 0 { "," } else { "" }, json_str(note));
    }
    record.push_str("],\"metrics\":{");
    let mut result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let entry = format!(
            "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
        record.push_str(&entry);
        result.push_str(&entry);
    }
    record.push_str("}}");
    result.push_str("}}");

    // The record also appends to a trajectory beside the build; traced
    // runs write their spans next to it.
    if std::fs::create_dir_all(&out_dir).is_ok() {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("history.jsonl"))
        {
            let _ = writeln!(f, "{record}");
        }
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, &report.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{record}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
