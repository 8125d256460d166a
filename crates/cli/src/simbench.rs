//! The `svtox bench sim` measurement: packed word-level vs scalar
//! reference Monte-Carlo throughput on the bench circuits.
//!
//! Both sides run the same estimator contract shape (chunked, seeded,
//! leakage-accumulating); throughput is reported in vectors·gates per
//! second so circuits of different size aggregate meaningfully. The
//! aggregate speedup is the ratio of total-work/total-time across all
//! measured circuits; it is the headline [`Bench::Sim`]'s gate reads.

use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

use svtox_cells::{Library, LibraryOptions};
use svtox_check::random_average_leakage_scalar;
use svtox_exec::ExecConfig;
use svtox_netlist::generators::benchmark;
use svtox_obs::json::Value;
use svtox_sim::random_average_leakage;
use svtox_tech::Technology;

use crate::bench::{num, obj, Bench, Record, CIRCUITS};

/// Minimum wall-clock per measurement; repeats amortize timer noise.
const MIN_MEASURE: Duration = Duration::from_millis(60);

/// Seconds per call of `f`, repeated until [`MIN_MEASURE`] has elapsed
/// (one untimed warmup call first).
fn measure<F: FnMut()>(mut f: F) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= MIN_MEASURE {
            return elapsed.as_secs_f64() / f64::from(iters);
        }
    }
}

/// Runs the packed-vs-scalar micro-benchmark with `vectors` vectors per
/// packed estimator call.
///
/// The scalar side runs `vectors / 16` (min 64) so a single measurement
/// stays short even in unoptimized builds — throughput normalization makes
/// the different counts comparable.
///
/// # Errors
///
/// Returns an error if a benchmark circuit or the library fails to build.
pub fn run_sim_bench(vectors: usize) -> Result<Record, Box<dyn Error>> {
    let vectors = vectors.max(64);
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
    let scalar_vectors = (vectors / 16).max(64);
    let mut rows = Vec::new();
    let mut scalar_work = 0.0;
    let mut scalar_time = 0.0;
    let mut packed_work = 0.0;
    let mut packed_time = 0.0;
    for name in CIRCUITS {
        let netlist = benchmark(name)?;
        let gates = netlist.num_gates();
        let scalar_secs = measure(|| {
            let avg = random_average_leakage_scalar(
                &netlist,
                &library,
                scalar_vectors,
                42,
                &ExecConfig::serial(),
            )
            .expect("library covers the suite");
            black_box(avg);
        });
        let packed_secs = measure(|| {
            let avg = random_average_leakage(&netlist, &library, vectors, 42)
                .expect("library covers the suite");
            black_box(avg);
        });
        let scalar_rate = (scalar_vectors * gates) as f64 / scalar_secs;
        let packed_rate = (vectors * gates) as f64 / packed_secs;
        scalar_work += (scalar_vectors * gates) as f64;
        scalar_time += scalar_secs;
        packed_work += (vectors * gates) as f64;
        packed_time += packed_secs;
        rows.push(obj([
            ("circuit", Value::Str(name.to_string())),
            ("gates", num(gates)),
            ("scalar_vectors", num(scalar_vectors)),
            ("packed_vectors", num(vectors)),
            ("scalar_vectors_gates_per_sec", Value::Num(scalar_rate)),
            ("packed_vectors_gates_per_sec", Value::Num(packed_rate)),
            ("speedup", Value::Num(packed_rate / scalar_rate)),
        ]));
    }
    let speedup = (packed_work / packed_time) / (scalar_work / scalar_time);
    Ok(Record {
        bench: Bench::Sim,
        scalars: vec![
            ("unit", Value::Str("vectors*gates/sec".to_string())),
            ("aggregate_speedup", Value::Num(speedup)),
        ],
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::tests::{assert_renders, assert_schema, field};

    #[test]
    fn report_renders_parseable_json_with_all_rows() {
        assert_renders(Bench::Sim, 30.0, "aggregate_speedup: 30");
    }

    #[test]
    fn a_tiny_run_measures_a_real_speedup() {
        // Smallest legal size: mostly a smoke test that both estimator
        // paths run and produce positive rates (the ≥10× CI gate runs in
        // release via ci.sh, not here).
        let record = run_sim_bench(64).unwrap();
        assert_schema(&record);
        assert_eq!(record.rows.len(), CIRCUITS.len());
        for row in &record.rows {
            assert!(field(row, "scalar_vectors_gates_per_sec") > 0.0);
            assert!(field(row, "packed_vectors_gates_per_sec") > 0.0);
            assert!(field(row, "speedup") > 1.0, "{row}");
        }
        assert!(record.headline().0 > 1.0);
    }
}
