//! The production entry point: fault-tolerant, checkpointed search.
//!
//! [`Optimizer::run`] wraps the root-split parallel search of
//! [`super::parallel`] in the degradation contract of
//! [`crate::outcome::RunOutcome`]:
//!
//! * the execution engine runs with the optimizer's fault handle and
//!   retry policy, so injected (or real) task panics retry with rebuilt
//!   worker state and dead workers respawn — see `svtox_exec::run_pool`;
//! * any shortfall that still leaves an incumbent (deadline, cancel,
//!   exhausted retry/respawn budgets) degrades instead of erroring,
//!   carrying the best solution found and the reason;
//! * with a [`CheckpointSpec`], every exhaustively-explored prefix
//!   subtree is appended to a JSONL file as it finishes, and a resumed
//!   run replays those records instead of recomputing them — the final
//!   solution is bit-identical to an uninterrupted run (same assignment
//!   for any thread count; additionally the same leaf count serially).

use std::collections::BTreeMap;
use std::time::Instant;

use svtox_exec::{Budget, ExecConfig, ExecError};

use crate::checkpoint::{self, CheckpointMeta, CheckpointSpec, CheckpointWriter};
use crate::error::OptError;
use crate::outcome::{DegradeReason, RunOutcome};
use crate::solution::Solution;

use super::parallel::{prefix_depth, PrefixSearch};
use super::{LeafKind, Optimizer};

impl<'a> Optimizer<'a> {
    /// Runs the Heuristic 2 search under the full robustness contract:
    /// retries and respawns per the engine's
    /// [`svtox_exec::RetryPolicy`], fault injection at every registered
    /// site, optional checkpointing, and a typed [`RunOutcome`] instead
    /// of an error that would discard the incumbent.
    ///
    /// Semantics match [`Optimizer::heuristic2`] exactly when nothing
    /// goes wrong: same seed, same bounds, same bit-identical result for
    /// any thread count. A resumed run re-derives the Heuristic 1 seed
    /// rather than trusting the one recorded in the checkpoint.
    pub fn run(&self, exec: &ExecConfig, checkpoint: Option<&CheckpointSpec>) -> RunOutcome {
        self.run_with_budget(exec, &exec.budget_faulted(self.fault), checkpoint)
    }

    /// [`Optimizer::run`] under a caller-supplied [`Budget`].
    ///
    /// The caller owns the budget's deadline and cancellation token, so
    /// an external actor — a Ctrl-C handler, a job-cancel endpoint, a
    /// server shutdown — can stop the run cooperatively; the outcome is
    /// then [`RunOutcome::Degraded`] with
    /// [`crate::outcome::DegradeReason::Cancelled`] (or `DeadlineExpired`
    /// when the budget's own deadline fired first). Note the budget
    /// bypasses the `clock.skew` fault site, which only
    /// [`Optimizer::run`] routes through.
    pub fn run_with_budget(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        checkpoint: Option<&CheckpointSpec>,
    ) -> RunOutcome {
        match self.run_inner(exec, budget, checkpoint) {
            Ok(outcome) => outcome,
            Err(error) => RunOutcome::Failed { error },
        }
    }

    fn run_inner(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        spec: Option<&CheckpointSpec>,
    ) -> Result<RunOutcome, OptError> {
        let start = Instant::now();
        let k = prefix_depth(exec.threads(), self.problem.netlist().num_inputs());

        // Load and validate an existing checkpoint before spending any
        // search effort.
        let loaded = match spec {
            Some(s) if s.resume => checkpoint::load(&s.path)?,
            _ => None,
        };
        let recorded = match loaded {
            Some(cp) => {
                self.validate_meta(&cp.meta, k, spec.expect("loaded implies a spec"))?;
                cp.tasks
            }
            None => BTreeMap::new(),
        };
        // Heuristic 1 is deterministic and cheap, so resume re-derives
        // the seed instead of trusting the file.
        let seed = self.heuristic1()?;
        let _span = self.obs.span("core.run");

        let writer = match spec {
            Some(s) if s.resume && !recorded.is_empty() => {
                Some(CheckpointWriter::append(&s.path, self.fault)?)
            }
            Some(s) => Some(CheckpointWriter::create(
                &s.path,
                &self.meta(k, &seed),
                self.fault,
            )?),
            None => None,
        };
        if !recorded.is_empty() {
            self.obs
                .add("core.run.tasks_resumed", recorded.len() as u64);
        }

        let plan = PrefixSearch {
            seed: Some(seed),
            leaf: LeafKind::Greedy,
            warm: &[],
            shared: None,
            recorded: &recorded,
            writer: writer.as_ref(),
        };
        let run = self.search_prefixes(exec, budget, start, plan)?;
        let best = run.best.expect("seeded search always has an incumbent");
        let stats = run.stats;

        if let Some(error) = run.error {
            return Ok(match error {
                ExecError::WorkerPanic { worker, message } => RunOutcome::Degraded {
                    reason: DegradeReason::WorkerLoss { worker, message },
                    best,
                    stats,
                },
                other => RunOutcome::Failed {
                    error: OptError::Exec(other),
                },
            });
        }
        if !run.failures.is_empty() {
            return Ok(RunOutcome::Degraded {
                reason: DegradeReason::TasksFailed {
                    failed: run.failures.len(),
                    first: run.failures[0].message.clone(),
                },
                best,
                stats,
            });
        }
        if !stats.completed {
            let reason = if budget.deadline_passed() {
                DegradeReason::DeadlineExpired
            } else {
                DegradeReason::Cancelled
            };
            return Ok(RunOutcome::Degraded {
                reason,
                best,
                stats,
            });
        }
        Ok(RunOutcome::Complete {
            solution: best,
            stats,
        })
    }

    /// The identity this run stamps into (and demands from) a checkpoint.
    pub(crate) fn meta(&self, k: usize, seed: &Solution) -> CheckpointMeta {
        let netlist = self.problem.netlist();
        CheckpointMeta {
            circuit: netlist.name().to_string(),
            inputs: netlist.num_inputs(),
            gates: netlist.num_gates(),
            penalty_bits: self.penalty.fraction().to_bits(),
            mode: self.mode,
            k,
            seed: seed.clone(),
            engine: None,
        }
    }

    /// Rejects a checkpoint recorded for a different problem or split.
    pub(crate) fn validate_meta(
        &self,
        meta: &CheckpointMeta,
        k: usize,
        spec: &CheckpointSpec,
    ) -> Result<(), OptError> {
        let netlist = self.problem.netlist();
        let at = spec.path.display();
        if meta.circuit != netlist.name() {
            return Err(OptError::Checkpoint(format!(
                "{at}: recorded circuit \"{}\" does not match \"{}\"",
                meta.circuit,
                netlist.name()
            )));
        }
        if meta.inputs != netlist.num_inputs() || meta.gates != netlist.num_gates() {
            return Err(OptError::Checkpoint(format!(
                "{at}: recorded size {}x{} does not match {}x{}",
                meta.inputs,
                meta.gates,
                netlist.num_inputs(),
                netlist.num_gates()
            )));
        }
        if meta.penalty_bits != self.penalty.fraction().to_bits() {
            return Err(OptError::Checkpoint(format!(
                "{at}: recorded delay penalty {} does not match {}",
                f64::from_bits(meta.penalty_bits),
                self.penalty.fraction()
            )));
        }
        if meta.mode != self.mode {
            return Err(OptError::Checkpoint(format!(
                "{at}: recorded mode {} does not match {}",
                checkpoint::mode_name(meta.mode),
                checkpoint::mode_name(self.mode)
            )));
        }
        if meta.k != k {
            return Err(OptError::Checkpoint(format!(
                "{at}: recorded split depth {} does not match {k} — \
                 resume with a thread count that maps to the same split",
                meta.k
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use svtox_cells::{Library, LibraryOptions};
    use svtox_exec::{ExecConfig, RetryPolicy};
    use svtox_fault::{Fault, FaultPlan, Site, Trigger};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    use crate::checkpoint::CheckpointSpec;
    use crate::outcome::{DegradeReason, RunOutcome};
    use crate::problem::{DelayPenalty, Mode, Problem};

    fn small() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("resilient-small", 7, 4, 32, 5);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "svtox-resilient-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn fault_free_run_matches_heuristic2_parallel() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(2);
        let (reference, _) = opt.heuristic2(&exec).unwrap();
        let outcome = opt.run(&exec, None);
        let RunOutcome::Complete { solution, stats } = outcome else {
            panic!("fault-free run must complete, got {outcome}");
        };
        assert!(stats.completed);
        assert!(solution.same_assignment(&reference));
        assert_eq!(solution.leaves_explored, reference.leaves_explored);
    }

    #[test]
    fn mid_search_kill_then_resume_is_bit_identical() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let (reference, _) = opt.heuristic2(&exec).unwrap();

        let path = temp_path("kill-resume");
        let plan = FaultPlan::new(11).with_rule(Site::CoreLeaf, Trigger::Nth(5));
        let fault = Fault::new(&plan);
        let killed = opt
            .with_fault(&fault)
            .run(&exec, Some(&CheckpointSpec::fresh(&path)));
        let RunOutcome::Degraded { reason, best, .. } = killed else {
            panic!("the kill fault must degrade the run, got {killed}");
        };
        assert_eq!(reason, DegradeReason::Cancelled);
        assert!(best.leakage.value() <= opt.heuristic1().unwrap().leakage.value() + 1e-12);

        let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Complete { solution, .. } = resumed else {
            panic!("resume must complete, got {resumed}");
        };
        assert!(solution.same_assignment(&reference));
        // Serially the replay is exact to the leaf count as well.
        assert_eq!(solution.leaves_explored, reference.leaves_explored);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_cancel_degrades_with_a_flushed_checkpoint() {
        use svtox_exec::{Budget, CancelToken};
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let (reference, _) = opt.heuristic2(&exec).unwrap();

        // A pre-cancelled external token: the run must degrade with
        // `Cancelled` (not the deadline) and still write a checkpoint a
        // later uncancelled run can resume bit-identically.
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::linked(None, token);
        let path = temp_path("external-cancel");
        let cancelled = opt.run_with_budget(&exec, &budget, Some(&CheckpointSpec::fresh(&path)));
        let RunOutcome::Degraded { reason, best, .. } = cancelled else {
            panic!("a cancelled run must degrade, got {cancelled}");
        };
        assert_eq!(reason, DegradeReason::Cancelled);
        assert!(best.same_assignment(&opt.heuristic1().unwrap()));

        let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Complete { solution, .. } = resumed else {
            panic!("resume must complete, got {resumed}");
        };
        assert!(solution.same_assignment(&reference));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rederives_a_forged_seed() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let RunOutcome::Complete {
            solution: reference,
            ..
        } = opt.run(&exec, None)
        else {
            panic!("baseline run must complete");
        };

        let path = temp_path("forged-seed");
        let plan = FaultPlan::new(11).with_rule(Site::CoreLeaf, Trigger::Nth(5));
        let fault = Fault::new(&plan);
        let killed = opt
            .with_fault(&fault)
            .run(&exec, Some(&CheckpointSpec::fresh(&path)));
        assert_eq!(killed.status(), "degraded");
        // Overwrite the recorded seed's leakage with 1 nA: trusting it
        // would prune every fresh subtree and return the forgery.
        let text = std::fs::read_to_string(&path).unwrap();
        let (meta, tasks) = text.split_once('\n').unwrap();
        let at = meta.find("\"leakage\":\"").unwrap() + "\"leakage\":\"".len();
        let forged = format!(
            "{}{:016x}{}",
            &meta[..at],
            1.0f64.to_bits(),
            &meta[at + 16..]
        );
        std::fs::write(&path, format!("{forged}\n{tasks}")).unwrap();

        let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Complete { solution, .. } = resumed else {
            panic!("resume must complete, got {resumed}");
        };
        assert!(solution.same_assignment(&reference));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_checkpoint_is_a_typed_failure() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let path = temp_path("foreign");
        let RunOutcome::Complete { .. } = opt.run(&exec, Some(&CheckpointSpec::fresh(&path)))
        else {
            panic!("baseline run must complete");
        };
        // Same circuit, different penalty: the identity check must fire.
        let other = problem.optimizer(DelayPenalty::new(0.25).unwrap(), Mode::Proposed);
        let outcome = other.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Failed { error } = outcome else {
            panic!("mismatched checkpoint must fail, got {outcome}");
        };
        assert!(error.to_string().contains("penalty"), "got {error}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dispatch_panic_storm_degrades_but_keeps_a_valid_incumbent() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let h1 = opt.heuristic1().unwrap();
        // Every dispatch panics and retries are exhausted instantly: all
        // tasks fail, yet the outcome still carries the seed.
        let plan = FaultPlan::new(3).with_rule(Site::ExecDispatch, Trigger::EveryNth(1));
        let fault = Fault::new(&plan);
        let exec = ExecConfig::with_threads(2).with_retries(RetryPolicy {
            max_task_retries: 1,
            max_respawns: 0,
        });
        let outcome = opt.with_fault(&fault).run(&exec, None);
        let RunOutcome::Degraded { reason, best, .. } = outcome else {
            panic!("a storm over every task must degrade, got {outcome}");
        };
        assert!(
            matches!(reason, DegradeReason::TasksFailed { .. }),
            "{reason}"
        );
        assert!(best.same_assignment(&h1), "the incumbent is the H1 seed");
        best.verify(&problem).unwrap();
    }
}
