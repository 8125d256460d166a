//! ECO re-optimization: re-running the search after a netlist edit.
//!
//! [`Optimizer::rerun_after_edit`] optimizes the *post-edit* problem while
//! reusing what the pre-edit run learned:
//!
//! * the previous solution's input vector, and
//! * the per-task best vectors recorded in a checkpoint file,
//!
//! are re-evaluated as feasible incumbents on the post-edit problem and
//! fed to the shared cross-worker bound before the branch and bound
//! starts (see [`Optimizer::heuristic2_warm`]).
//!
//! # Soundness: value reuse, not exploration skipping
//!
//! Recorded *subtree exploration* cannot be replayed after a functional
//! edit — a rewire preserves every count a checkpoint's meta line records
//! while changing the circuit function, so "the subtree was fully
//! explored" no longer means anything about the post-edit tree. What
//! *does* survive an edit is that any complete input vector is still a
//! complete input vector: re-evaluating it on the post-edit problem
//! yields a genuine feasible leaf value, an upper bound on the post-edit
//! optimum. Feeding such values to the shared incumbent (whose prune is
//! strict `>`) can only speed convergence; the returned solution is
//! bit-identical to a cold run at any thread count. Edits are mostly
//! local (Kitahara-style selective methodologies), so the previous
//! vector's value usually lands close to the new optimum and prunes most
//! of the tree immediately.

use std::path::Path;

use svtox_exec::{ExecConfig, SearchStats, SharedMinF64};
use svtox_netlist::EditTrace;

use crate::checkpoint;
use crate::error::OptError;
use crate::solution::Solution;

use super::parallel::WarmStats;
use super::Optimizer;

/// What an ECO re-optimization did: the new solution plus reuse stats.
#[derive(Debug, Clone)]
pub struct EcoReport {
    /// The post-edit optimum (bit-identical to a cold re-run).
    pub solution: Solution,
    /// Search statistics of the re-run.
    pub stats: SearchStats,
    /// Warm-seeding outcome (candidates offered / evaluated / best value).
    pub warm: WarmStats,
    /// Vectors recovered from the checkpoint file (0 without one).
    pub checkpoint_vectors: usize,
    /// Pre-edit gates that survived the edit (reused assignments context).
    pub gates_carried: usize,
    /// Gates in the post-edit netlist.
    pub gates_total: usize,
}

impl EcoReport {
    /// Fraction of post-edit gates carried over from before the edit.
    #[must_use]
    pub fn carry_ratio(&self) -> f64 {
        if self.gates_total == 0 {
            return 0.0;
        }
        self.gates_carried as f64 / self.gates_total as f64
    }
}

impl<'a> Optimizer<'a> {
    /// Re-optimizes after a netlist edit, warm-seeded by the previous
    /// solution and (optionally) a checkpoint file from the pre-edit run.
    ///
    /// `self` must be built on the **post-edit** problem. `trace` is the
    /// edit's id mapping (used for reuse reporting); `prev` is the
    /// pre-edit solution, `checkpoint` a checkpoint file whose
    /// per-task best vectors are mined as additional warm candidates
    /// (best-effort: an unreadable or foreign file contributes nothing).
    /// `shared_out` optionally exposes the live incumbent for
    /// time-to-quality instrumentation.
    ///
    /// The returned solution is **bit-identical** to a cold
    /// [`Optimizer::heuristic2`] on the same problem at any
    /// thread count — reuse affects speed, not the answer. Candidate
    /// vectors whose length no longer matches (the edit changed the
    /// primary-input count) are skipped silently.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure.
    pub fn rerun_after_edit(
        &self,
        exec: &ExecConfig,
        prev: Option<&Solution>,
        trace: &EditTrace,
        checkpoint: Option<&Path>,
        shared_out: Option<&SharedMinF64>,
    ) -> Result<EcoReport, OptError> {
        let _span = self.obs.span("core.eco.rerun");
        let mut warm_vectors: Vec<Vec<bool>> = Vec::new();
        if let Some(sol) = prev {
            warm_vectors.push(sol.vector.clone());
        }
        let mut checkpoint_vectors = 0usize;
        if let Some(path) = checkpoint {
            if let Ok(Some(loaded)) = checkpoint::load(path) {
                let mut push = |v: &Vec<bool>| {
                    if !warm_vectors.contains(v) {
                        warm_vectors.push(v.clone());
                        checkpoint_vectors += 1;
                    }
                };
                push(&loaded.meta.seed.vector);
                for task in loaded.tasks.values() {
                    if let Some(sol) = &task.solution {
                        push(&sol.vector);
                    }
                }
            }
        }
        let (solution, stats, warm) = self.heuristic2_warm(exec, &warm_vectors, shared_out)?;
        let gates_total = self.problem.netlist().num_gates();
        let gates_carried = trace.gates_carried().min(gates_total);
        self.obs.add("core.eco.runs", 1);
        self.obs
            .add("core.eco.warm_candidates", warm.candidates as u64);
        self.obs
            .add("core.eco.warm_evaluated", warm.evaluated as u64);
        self.obs
            .add("core.eco.checkpoint_vectors", checkpoint_vectors as u64);
        self.obs.add("core.eco.gates_carried", gates_carried as u64);
        self.obs.add("core.eco.gates_total", gates_total as u64);
        Ok(EcoReport {
            solution,
            stats,
            warm,
            checkpoint_vectors,
            gates_carried,
            gates_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::{EditScript, Netlist};
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    use crate::problem::{DelayPenalty, Mode, Problem};

    fn library() -> Library {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap()
    }

    fn base() -> Netlist {
        random_dag(&RandomDagSpec::new("eco-small", 8, 4, 40, 6)).unwrap()
    }

    /// A small functional edit: add two gates, rewire a PO driver pin,
    /// retag one output.
    fn edit(netlist: &mut Netlist) -> EditTrace {
        let pi0 = netlist.net(netlist.inputs()[0]).name().to_string();
        let pi1 = netlist.net(netlist.inputs()[1]).name().to_string();
        let po0 = netlist.net(netlist.outputs()[0]).name().to_string();
        let script = EditScript::parse(&format!(
            "add eco_a = NAND({pi0}, {pi1})\nadd eco_b = NOT(eco_a)\nrewire {po0} 0 eco_b\n"
        ))
        .unwrap();
        script.apply(netlist).unwrap()
    }

    #[test]
    fn eco_rerun_is_bit_identical_to_cold_at_every_thread_count() {
        let lib = library();
        let pre = base();
        let problem = Problem::new(&pre, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let (prev, _) = opt.heuristic2(&ExecConfig::with_threads(2)).unwrap();

        let mut post = pre.clone();
        let trace = edit(&mut post);
        let post_problem = Problem::new(&post, &lib, TimingConfig::default()).unwrap();
        let post_opt = post_problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);

        let (cold, _) = post_opt.heuristic2(&ExecConfig::with_threads(1)).unwrap();
        for threads in [1usize, 2, 4] {
            let report = post_opt
                .rerun_after_edit(
                    &ExecConfig::with_threads(threads),
                    Some(&prev),
                    &trace,
                    None,
                    None,
                )
                .unwrap();
            assert!(
                report.solution.same_assignment(&cold),
                "threads={threads}: eco {} vs cold {}",
                report.solution,
                cold
            );
            assert_eq!(report.warm.candidates, 1);
            assert_eq!(report.warm.evaluated, 1);
            let warm_best = report.warm.best.unwrap();
            assert!(
                warm_best >= cold.leakage.value() - 1e-12,
                "warm value {warm_best} below the optimum"
            );
            assert_eq!(report.gates_total, post.num_gates());
            assert_eq!(report.gates_carried, pre.num_gates());
            assert!(report.carry_ratio() > 0.9);
        }
    }

    #[test]
    fn stale_vector_lengths_are_skipped() {
        let lib = library();
        let netlist = base();
        let problem = Problem::new(&netlist, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        // A "previous" solution with the wrong input count.
        let (mut prev, _) = opt.heuristic2(&ExecConfig::serial()).unwrap();
        prev.vector.pop();
        let trace = EditTrace {
            gate_map: Vec::new(),
            net_map: Vec::new(),
            added_gates: 0,
            removed_gates: 0,
            rewired_pins: 0,
            retagged_outputs: 0,
        };
        let report = opt
            .rerun_after_edit(&ExecConfig::serial(), Some(&prev), &trace, None, None)
            .unwrap();
        assert_eq!(report.warm.candidates, 1);
        assert_eq!(report.warm.evaluated, 0);
        assert_eq!(report.warm.best, None);
        let (cold, _) = opt.heuristic2(&ExecConfig::serial()).unwrap();
        assert!(report.solution.same_assignment(&cold));
    }

    #[test]
    fn checkpoint_vectors_feed_the_warm_seed() {
        use crate::checkpoint::CheckpointSpec;

        let lib = library();
        let pre = base();
        let problem = Problem::new(&pre, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let dir = std::env::temp_dir().join(format!("svtox-eco-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pre.ckpt");
        let exec = ExecConfig::with_threads(2);
        let prev = match opt.run(&exec, Some(&CheckpointSpec::fresh(&path))) {
            crate::outcome::RunOutcome::Complete { solution, .. } => solution,
            other => panic!("expected a complete run, got {other:?}"),
        };

        let mut post = pre.clone();
        let trace = edit(&mut post);
        let post_problem = Problem::new(&post, &lib, TimingConfig::default()).unwrap();
        let post_opt = post_problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let report = post_opt
            .rerun_after_edit(&exec, Some(&prev), &trace, Some(&path), None)
            .unwrap();
        // The checkpoint contributed at least the H1 seed vector (tasks
        // may or may not record distinct ones), and everything offered
        // with a matching length got evaluated.
        assert!(report.checkpoint_vectors >= 1);
        assert_eq!(report.warm.candidates, 1 + report.checkpoint_vectors);
        assert_eq!(report.warm.evaluated, report.warm.candidates);
        let (cold, _) = post_opt.heuristic2(&ExecConfig::with_threads(1)).unwrap();
        assert!(report.solution.same_assignment(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }
}
