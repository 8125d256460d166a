//! `svtox bench <sim|portfolio|eco>`: one registry for the CLI benchmarks.
//!
//! Each [`Bench`] fixes its circuits, workload size and gate as constants,
//! so a recorded `results/BENCH_<name>.json` always means the same
//! measurement. Every bench produces one [`Record`], and [`run_bench`] is
//! the one path that renders it, writes `--out` and checks the gate. The
//! measurement bodies live in [`crate::simbench`], [`crate::portbench`]
//! and [`crate::ecobench`].

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::time::Duration;

use svtox_obs::json::Value;

use crate::CliError;

/// Circuits every bench sweeps: small to medium, so a run fits a CI budget.
pub const CIRCUITS: [&str; 3] = ["c432", "c880", "c1908"];

/// One registered benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Packed word-level vs scalar reference Monte-Carlo throughput.
    Sim,
    /// Strategy portfolio vs the single engine at the same deadline.
    Portfolio,
    /// Warm ECO re-optimization vs a cold restart, time to quality.
    Eco,
}

impl Bench {
    /// Every registered bench.
    pub const ALL: [Self; 3] = [Self::Sim, Self::Portfolio, Self::Eco];
    /// Vectors per packed estimator call in the sim bench.
    pub const SIM_VECTORS: usize = 4096;
    /// Deadline both engines run under in the portfolio bench.
    pub const PORTFOLIO_DEADLINE: Duration = Duration::from_millis(1500);
    /// Deadline both engines run under in the eco bench.
    pub const ECO_DEADLINE: Duration = Duration::from_secs(3);

    /// The name on the command line and in the record's `bench` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Sim => "sim",
            Self::Portfolio => "portfolio",
            Self::Eco => "eco",
        }
    }

    /// The gate: the top-level scalar it reads and the range that scalar
    /// must lie in. The packed simulator must beat the scalar reference
    /// 10×; the portfolio must never end above the single engine; the warm
    /// ECO restart must reach the shared quality at least 2× faster than a
    /// cold one on every circuit. A NaN lies in no range, so the gate
    /// fails closed.
    #[must_use]
    pub fn gate(self) -> (&'static str, RangeInclusive<f64>) {
        match self {
            Self::Sim => ("aggregate_speedup", 10.0..=f64::INFINITY),
            Self::Portfolio => ("regressions", 0.0..=0.0),
            Self::Eco => ("min_speedup", 2.0..=f64::INFINITY),
        }
    }
}

/// One bench run: the bench, its top-level scalars (the gate's among
/// them) and one JSON object per circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which bench produced the record.
    pub bench: Bench,
    /// Top-level scalars, keyed as in the JSON document.
    pub scalars: Vec<(&'static str, Value)>,
    /// Per-circuit rows, each a JSON object.
    pub rows: Vec<Value>,
}

/// A JSON object from `(key, value)` pairs.
pub(crate) fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// A JSON number from a count.
pub(crate) fn num(n: usize) -> Value {
    Value::Num(n as f64)
}

impl Record {
    /// The scalar the gate reads (NaN when missing) and whether it passes.
    #[must_use]
    pub fn headline(&self) -> (f64, bool) {
        let (key, range) = self.bench.gate();
        let value = self
            .scalars
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(f64::NAN);
        (value, range.contains(&value))
    }

    /// The JSON document (the `results/BENCH_<name>.json` schema).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut root: BTreeMap<String, Value> = self
            .scalars
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect();
        root.insert("bench".into(), Value::Str(self.bench.name().into()));
        root.insert("rows".into(), Value::Arr(self.rows.clone()));
        Value::Obj(root)
    }

    /// One line per row (`circuit` first, then `key=value` in key order),
    /// then the scalars and the gate verdict.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let Value::Obj(fields) = row else { continue };
            let circuit = fields.get("circuit").map_or(String::new(), cell);
            let _ = write!(out, "{circuit:<8}");
            for (k, v) in fields.iter().filter(|(k, _)| *k != "circuit") {
                let _ = write!(out, " {k}={}", cell(v));
            }
            out.push('\n');
        }
        for (k, v) in &self.scalars {
            let _ = writeln!(out, "{k}: {}", cell(v));
        }
        let (key, range) = self.bench.gate();
        let verdict = if self.headline().1 { "pass" } else { "FAIL" };
        let _ = writeln!(out, "gate: {key} in {range:?} ({verdict})");
        out
    }
}

/// One value in the text rendering.
fn cell(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Num(n) if n.fract() != 0.0 => format!("{n:.3}"),
        other => other.to_string(),
    }
}

/// Arguments of `svtox bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// The bench to run.
    pub bench: Bench,
    /// Worker threads for the engine races (`0` = one per CPU).
    pub threads: usize,
    /// Print the record as JSON instead of text.
    pub json: bool,
    /// Also write the JSON record to this path.
    pub out: Option<String>,
}

/// Runs a bench at its fixed size, renders its record, writes `--out`
/// (before the gate is checked, so a failing run still leaves its record)
/// and checks the gate.
///
/// # Errors
///
/// Returns an error if the bench fails to run, the record cannot be
/// written, or the gate fails (the message carries the rendered record).
pub fn run_bench(args: &BenchArgs) -> Result<String, Box<dyn Error>> {
    let record = match args.bench {
        Bench::Sim => crate::simbench::run_sim_bench(Bench::SIM_VECTORS),
        Bench::Portfolio => {
            crate::portbench::run_portfolio_bench(Bench::PORTFOLIO_DEADLINE, args.threads)
        }
        Bench::Eco => crate::ecobench::run_eco_bench(Bench::ECO_DEADLINE, args.threads),
    }?;
    let json = format!("{}\n", record.to_json());
    if let Some(path) = &args.out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &json)?;
    }
    let rendered = if args.json {
        json
    } else {
        record.render_text()
    };
    match record.headline() {
        (_, true) => Ok(rendered),
        (value, false) => Err(Box::new(CliError(format!(
            "{} bench: {} = {value} misses the gate\n{rendered}",
            args.bench.name(),
            args.bench.gate().0
        )))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Key sets copied literally from the committed artifacts
    /// `results/BENCH_{sim,portfolio,eco}.json` (top level, then per row).
    fn pinned_keys(bench: Bench) -> [&'static str; 2] {
        match bench {
            Bench::Sim => [
                "aggregate_speedup bench rows unit",
                "circuit gates packed_vectors packed_vectors_gates_per_sec scalar_vectors \
                 scalar_vectors_gates_per_sec speedup",
            ],
            Bench::Portfolio => [
                "bench deadline_ms regressions rows threads",
                "circuit gates inputs portfolio_ua proven_optimal regression rounds single_ua \
                 status winner",
            ],
            Bench::Eco => [
                "bench deadline_ms min_speedup rows threads",
                "carry_ratio circuit cold_ua eco_ua edit_ops gates inputs speedup t_cold_ms \
                 t_eco_ms warm_candidates warm_evaluated",
            ],
        }
    }

    /// Asserts that a JSON document has its bench's pinned key sets.
    fn assert_keys(bench: Bench, doc: &Value) {
        let keys = |v: &Value| match v {
            Value::Obj(map) => map.keys().cloned().collect::<Vec<_>>().join(" "),
            _ => String::new(),
        };
        let [top, row] = pinned_keys(bench);
        assert_eq!(keys(doc), top, "{} top level", bench.name());
        let Some(Value::Arr(rows)) = doc.get("rows") else {
            panic!("{}: rows missing", bench.name());
        };
        for r in rows {
            assert_eq!(keys(r), row, "{} row", bench.name());
        }
    }

    /// A numeric row field.
    pub(crate) fn field(row: &Value, key: &str) -> f64 {
        row.get(key).and_then(Value::as_f64).unwrap()
    }

    /// Asserts that a measured record carries its pinned schema.
    pub(crate) fn assert_schema(record: &Record) {
        assert_keys(record.bench, &record.to_json());
    }

    /// Renders a one-row record with the given headline through the shared
    /// renderer and checks that the JSON parses back and the text shows it.
    pub(crate) fn assert_renders(bench: Bench, headline: f64, text: &str) {
        let record = Record {
            bench,
            scalars: vec![(bench.gate().0, Value::Num(headline))],
            rows: vec![obj([("circuit", Value::Str("c432".into()))])],
        };
        let parsed = svtox_obs::json::parse(&record.to_json().to_string()).unwrap();
        assert_eq!(
            parsed.get("bench").and_then(Value::as_str),
            Some(bench.name())
        );
        assert_eq!(
            parsed.get(bench.gate().0).and_then(Value::as_f64),
            Some(headline)
        );
        let Some(Value::Arr(rows)) = parsed.get("rows") else {
            panic!("rows missing");
        };
        assert_eq!(rows[0].get("circuit").and_then(Value::as_str), Some("c432"));
        assert!(
            record.render_text().contains(text),
            "{}",
            record.render_text()
        );
    }

    #[test]
    fn gates_fail_closed() {
        let passes = |bench: Bench, value: f64| {
            let record = Record {
                bench,
                scalars: vec![(bench.gate().0, Value::Num(value))],
                rows: Vec::new(),
            };
            record.headline().1
        };
        for (bench, pass, miss) in [
            (Bench::Sim, 10.0, 9.9),
            (Bench::Portfolio, 0.0, 1.0),
            (Bench::Eco, 2.0, 1.5),
        ] {
            assert!(passes(bench, pass), "{}", bench.name());
            assert!(!passes(bench, miss), "{}", bench.name());
            assert!(!passes(bench, f64::NAN), "{}", bench.name());
            let missing = Record {
                bench,
                scalars: Vec::new(),
                rows: Vec::new(),
            };
            assert!(missing.headline().0.is_nan() && !missing.headline().1);
            assert!(missing.render_text().ends_with("(FAIL)\n"));
        }
    }

    #[test]
    fn committed_artifacts_match_the_pinned_schema() {
        for (bench, text) in [
            (Bench::Sim, include_str!("../../../results/BENCH_sim.json")),
            (
                Bench::Portfolio,
                include_str!("../../../results/BENCH_portfolio.json"),
            ),
            (Bench::Eco, include_str!("../../../results/BENCH_eco.json")),
        ] {
            let doc = svtox_obs::json::parse(text.trim()).unwrap();
            assert_eq!(doc.get("bench").and_then(Value::as_str), Some(bench.name()));
            assert_keys(bench, &doc);
        }
    }
}
