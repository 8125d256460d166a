//! Scalar reference for the random-vector leakage baseline: the
//! pre-packed Monte-Carlo estimator, kept verbatim (draw contract,
//! evaluation order, float summation) with its per-seed estimates pinned.

use svtox_cells::{Library, LibraryError};
use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_exec::{map_tasks, Budget, ExecConfig};
use svtox_netlist::Netlist;
use svtox_obs::Obs;
use svtox_sim::{LeakageTotals, Simulator, CHUNK_SIZE};
use svtox_tech::Current;

/// Average leakage of the all-fast netlist over `num_vectors` random
/// vectors, one vector at a time, spread over the workers of `exec`: the
/// oracle the packed [`svtox_sim::random_average_leakage`] is benchmarked
/// and checked against.
///
/// The draw contract is the original one: one `gen_bool(0.5)` per primary
/// input per vector, in chunks of [`CHUNK_SIZE`] seeded via
/// `derive_seed(seed, chunk)` and folded in chunk order, so the estimate is
/// bit-identical at any thread count. The packed path draws one `next_u64`
/// per input per 64-vector word instead, so the two agree statistically
/// but not bit-for-bit.
///
/// # Errors
///
/// Returns an error if the netlist uses a gate kind absent from the library.
///
/// # Panics
///
/// Panics if `num_vectors` is zero.
pub fn random_average_leakage_scalar(
    netlist: &Netlist,
    library: &Library,
    num_vectors: usize,
    seed: u64,
    exec: &ExecConfig,
) -> Result<LeakageTotals, LibraryError> {
    assert!(num_vectors > 0, "need at least one vector");
    let cells: Vec<_> = netlist
        .gates()
        .map(|(_, g)| library.cell(g.kind()))
        .collect::<Result<Vec<_>, _>>()?;
    let num_chunks = num_vectors.div_ceil(CHUNK_SIZE);
    let (partials, _stats) = map_tasks(
        exec,
        num_chunks,
        &Budget::unlimited(),
        Obs::disabled_ref(),
        |_worker| (Simulator::new(netlist), vec![false; netlist.num_inputs()]),
        |(sim, vector), chunk, _ws| {
            let start = chunk * CHUNK_SIZE;
            let end = (start + CHUNK_SIZE).min(num_vectors);
            let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, chunk as u64));
            let mut sum_isub = 0.0;
            let mut sum_igate = 0.0;
            for _ in start..end {
                for v in vector.iter_mut() {
                    *v = rng.gen_bool(0.5);
                }
                sim.set_inputs(vector);
                for ((gid, _), cell) in netlist.gates().zip(&cells) {
                    let split = cell.leakage_breakdown(cell.fast_version(), sim.gate_state(gid));
                    sum_isub += split.isub.value();
                    sum_igate += split.igate.value();
                }
            }
            Some((sum_isub, sum_igate))
        },
    )
    .expect("sampling tasks do not panic");
    let mut sum_isub = 0.0;
    let mut sum_igate = 0.0;
    for (isub, igate) in partials.into_iter().flatten() {
        sum_isub += isub;
        sum_igate += igate;
    }
    let isub = Current::new(sum_isub / num_vectors as f64);
    let igate = Current::new(sum_igate / num_vectors as f64);
    Ok(LeakageTotals {
        total: isub + igate,
        isub,
        igate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::LibraryOptions;
    use svtox_netlist::generators::benchmark;
    use svtox_sim::random_average_leakage;
    use svtox_tech::Technology;

    fn library() -> Library {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap()
    }

    /// The scalar reference must keep producing the exact pre-packed
    /// numbers: these f64 bit patterns were captured from the original
    /// scalar implementation before the word-level path landed.
    #[test]
    fn scalar_reference_estimates_are_pinned() {
        let lib = library();
        let cases: [(&str, usize, u64, u64, u64); 4] = [
            (
                "c432",
                500,
                42,
                0x40df_5e9f_bdc7_083f,
                0x40d0_e1cf_e148_b0d3,
            ),
            ("c432", 300, 5, 0x40df_691e_f412_474f, 0x40d0_ec3b_a213_7b83),
            ("c880", 300, 5, 0x40f0_0885_b28e_8571, 0x40e0_abab_4d59_bc8d),
            ("c432", 100, 7, 0x40df_415e_d669_f81c, 0x40d0_f6b1_09a0_d189),
        ];
        for (name, vectors, seed, isub_bits, igate_bits) in cases {
            let n = benchmark(name).unwrap();
            let avg = random_average_leakage_scalar(&n, &lib, vectors, seed, &ExecConfig::serial())
                .unwrap();
            assert_eq!(
                avg.isub.value().to_bits(),
                isub_bits,
                "{name}/{vectors}/{seed} isub"
            );
            assert_eq!(
                avg.igate.value().to_bits(),
                igate_bits,
                "{name}/{vectors}/{seed} igate"
            );
        }
    }

    #[test]
    fn scalar_parallel_estimate_is_thread_count_invariant() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let serial =
            random_average_leakage_scalar(&n, &lib, 600, 9, &ExecConfig::serial()).unwrap();
        for threads in [2, 4, 8] {
            let par =
                random_average_leakage_scalar(&n, &lib, 600, 9, &ExecConfig::with_threads(threads))
                    .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    /// The packed path deliberately uses a different draw contract, so the
    /// two estimators agree statistically but not bit-for-bit.
    #[test]
    fn packed_and_scalar_estimates_agree_statistically() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let packed = random_average_leakage(&n, &lib, 500, 42).unwrap();
        let scalar =
            random_average_leakage_scalar(&n, &lib, 500, 42, &ExecConfig::serial()).unwrap();
        assert_ne!(packed, scalar, "draw contracts are distinct by design");
        let rel = (packed.total.value() - scalar.total.value()).abs() / scalar.total.value();
        assert!(rel < 0.05, "packed vs scalar differ by {rel}");
    }
}
