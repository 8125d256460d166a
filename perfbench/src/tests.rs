//! The benchmark's own tests. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use super::*;
use report::Tracer;
use svtox_obs::json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(json::Value::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(json::Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (
                s("name"),
                s(if section == "workloads" {
                    "why"
                } else {
                    "unit"
                }),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn printed_metrics_are_declared_in_benchmark_json() {
    let as_pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), as_pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), as_pairs(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
    let args = parse("--workload serve_mix --seed 7 --seconds 3 --trace 1").expect("valid");
    assert_eq!(
        (args.workload.as_str(), args.seed, args.seconds, args.trace),
        ("serve_mix", 7, 3.0, true)
    );
    assert!(parse("--workload nope --seed 1").is_err());
    assert!(parse("--workload paper_h1 --trace 2").is_err());
    assert!(parse("--workload paper_h1 --seed").is_err());
}

#[test]
fn paper_inputs_are_deterministic_in_the_seed() {
    let size = paper::Size::new(true);
    let quiet = Tracer::new(false);
    let a = paper::setup_once(&size, 11, &quiet, 0).0;
    let b = paper::setup_once(&size, 11, &quiet, 0).0;
    let c = paper::setup_once(&size, 12, &quiet, 0).0;
    let text = |i: &paper::Inputs| i.netlists.iter().map(|n| n.to_bench()).collect::<Vec<_>>();
    assert_eq!(text(&a), text(&b));
    assert_eq!(a.baseline_seeds, b.baseline_seeds);
    assert_ne!(a.baseline_seeds, c.baseline_seeds);
}

#[test]
fn search_inputs_are_deterministic_in_the_seed() {
    let size = search::Size::new(false);
    assert_eq!(search::draw(&size, 3), search::draw(&size, 3));
    assert_ne!(search::draw(&size, 3), search::draw(&size, 4));
    for shape in search::FAMILY {
        assert_eq!(
            search::circuit(&shape).to_bench(),
            search::circuit(&shape).to_bench()
        );
        // More than 12 inputs keeps the portfolio's exact members out.
        assert!(search::circuit(&shape).num_inputs() > 12);
    }
}

#[test]
fn serve_jobs_are_deterministic_in_the_seed() {
    let size = serve::Size::new(false);
    let a = serve::Mix::new(&size, 5);
    let b = serve::Mix::new(&size, 5);
    let c = serve::Mix::new(&size, 6);
    let jobs = |m: &serve::Mix| (0..40).map(|i| m.job(i)).collect::<Vec<_>>();
    assert_eq!(jobs(&a), jobs(&b));
    assert_ne!(jobs(&a), jobs(&c));
    let kinds = jobs(&a);
    assert!(kinds.iter().any(|j| matches!(j.kind, serve::Kind::Hot(_))));
    assert!(kinds
        .iter()
        .any(|j| matches!(j.kind, serve::Kind::Unique(_))));
    assert!(kinds.iter().any(|j| j.edits.is_some()));
}

fn smoke(workload: &str, trace: bool) -> Report {
    let report = run(&Args {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        smoke: true,
    });
    assert!(report.attempted > 0, "{workload}: nothing checked");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.notes);
    for m in printed(&report, trace).expect("every printed metric is declared") {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
    let e2e = printed(&report, false).expect("every end-to-end metric is reported");
    for m in &e2e {
        assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
    }
    report
}

#[test]
fn paper_h1_smoke_passes_its_checks() {
    let report = smoke("paper_h1", true);
    let layer = |n: &str| report.layers.iter().find(|m| m.name == n).map(|m| m.value);
    assert!(layer("core.h1_ms.c432").is_some_and(|v| v > 0.0));
    assert!(layer("sta.gates_per_flush").is_some_and(|v| v > 0.0));
}

#[test]
fn search_exhaustive_smoke_passes_its_checks() {
    let report = smoke("search_exhaustive", true);
    let layer = |n: &str| report.layers.iter().find(|m| m.name == n).map(|m| m.value);
    assert!(layer("core.search.leaves").is_some_and(|v| v > 0.0));
}

#[test]
fn serve_mix_smoke_passes_its_checks() {
    let report = smoke("serve_mix", true);
    let layer = |n: &str| report.layers.iter().find(|m| m.name == n).map(|m| m.value);
    assert!(layer("serve.engine_ms.p50").is_some_and(|v| v > 0.0));
    assert!(layer("serve.cache.library_hit_ratio").is_some_and(|v| v > 0.0));
    let shares: f64 = ["hot", "unique", "eco"]
        .iter()
        .filter_map(|part| layer(&format!("serve.mix.{part}_share")))
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "mix shares sum to {shares}");
}
