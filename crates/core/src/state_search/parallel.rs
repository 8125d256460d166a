//! The state-tree search kernel and its root-split driver.
//!
//! Every state-tree branch and bound — Heuristic 2, the exact method,
//! [`Optimizer::run`] and the portfolio's H2/exact members — is the same
//! depth-first walk, false branch first, that differs only in how a leaf's
//! gate tree is evaluated ([`LeafKind`]). [`Optimizer::search_subtree`]
//! is that walk. The driver splits the tree at the root over the first
//! `k` inputs of the branching order: prefix index `p` fixes input `d`
//! (for `d < k`) to bit `k-1-d` of `p`, so *ascending task index is
//! exactly the depth-first exploration order*. Each task searches its
//! subtree, workers share the incumbent leakage through a
//! [`SharedMinF64`], and the per-task bests reduce with [`min_by_stable`]
//! in task order.
//!
//! Determinism: a task prunes with `>=` against its *task-local*
//! incumbent but only with strict `>` against the shared cross-worker
//! incumbent. The shared bound is always at least the global minimum, so
//! the path to the first optimal leaf in depth-first order can never be
//! cut by a bound that merely *equals* it — whichever worker finds the
//! optimum first in wall time. Every other subtree either reports a
//! strictly worse value or nothing, and the stable reduction keeps the
//! earliest minimum. Results are therefore bit-identical for any thread
//! count, while still profiting from cross-worker pruning.

use std::collections::BTreeMap;
use std::time::Instant;

use svtox_exec::{
    min_by_stable, run_pool, Budget, ExecConfig, ExecError, SearchStats, SharedMinF64, TaskFailure,
    WorkerStats,
};
use svtox_fault::Site as FaultSite;
use svtox_sim::Logic;
use svtox_sta::Sta;

use crate::checkpoint::{CheckpointWriter, TaskRecord};
use crate::error::OptError;
use crate::solution::Solution;

use super::{BoundTracker, LeafKind, Optimizer};

/// Outcome of pre-search warm seeding ([`Optimizer::heuristic2_warm`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WarmStats {
    /// Candidate vectors offered.
    pub candidates: usize,
    /// Candidates whose length matched the problem and were evaluated.
    pub evaluated: usize,
    /// Best (lowest) warm leakage value, if any candidate was evaluated.
    pub best: Option<f64>,
}

/// Everything one worker reuses across its tasks.
pub(crate) struct WorkerCtx<'p, 'n> {
    pub(crate) sta: Sta<'n>,
    pub(crate) tracker: BoundTracker<'p, 'n>,
    pub(crate) vector: Vec<bool>,
}

/// Number of prefix inputs to split on: enough tasks to keep every worker
/// busy through imbalance (~8 tasks per worker), capped so task setup
/// stays negligible and floored so stealing has room even single-threaded.
pub(crate) fn prefix_depth(threads: usize, num_inputs: usize) -> usize {
    let want = (threads * 8).next_power_of_two().trailing_zeros() as usize;
    want.clamp(3, 10).min(num_inputs)
}

/// What one root-split search starts from.
pub(crate) struct PrefixSearch<'s> {
    /// The task-local incumbent of every subtree: Heuristic 1 for the
    /// greedy searches, `None` for exact.
    pub(crate) seed: Option<Solution>,
    pub(crate) leaf: LeafKind,
    /// Feasible vectors evaluated before the search; their values tighten
    /// only the shared bound.
    pub(crate) warm: &'s [Vec<bool>],
    /// A caller-owned shared incumbent (`None`: an internal cell).
    pub(crate) shared: Option<&'s SharedMinF64>,
    /// Subtrees a checkpoint recorded as exhausted, replayed not searched.
    pub(crate) recorded: &'s BTreeMap<usize, TaskRecord>,
    /// Where subtrees this run exhausts are recorded.
    pub(crate) writer: Option<&'s CheckpointWriter>,
}

/// Everything a root-split search produced, including partial failure.
pub(crate) struct PrefixRun {
    /// The stable minimum over the seed and every task's best.
    pub(crate) best: Option<Solution>,
    pub(crate) stats: SearchStats,
    pub(crate) warm: WarmStats,
    pub(crate) failures: Vec<TaskFailure>,
    pub(crate) error: Option<ExecError>,
}

impl PrefixRun {
    /// The strict view: any worker loss or exhausted task is an error.
    fn strict(self) -> Result<(Solution, SearchStats, WarmStats), OptError> {
        if let Some(error) = self.error {
            return Err(error.into());
        }
        if let Some(f) = self.failures.into_iter().next() {
            return Err(ExecError::TaskFailed {
                task: f.task,
                attempts: f.attempts,
                message: f.message,
            }
            .into());
        }
        let best = self
            .best
            .expect("a seeded or unbudgeted search has an incumbent");
        Ok((best, self.stats, self.warm))
    }
}

/// One level of the depth-first walk: the input at `depth` and the value
/// it branches on next (`None` once both are tried, and for leaves).
struct Frame {
    depth: usize,
    next: Option<bool>,
}

impl Frame {
    fn new(depth: usize, n: usize) -> Self {
        Self {
            depth,
            next: (depth < n).then_some(false),
        }
    }
}

/// The two prune rules: `>=` against the task-local incumbent, strict `>`
/// against the shared one, so an equal cross-worker bound can never cut
/// the path to the first optimal leaf.
fn pruned(bound: f64, local_leak: f64, shared: &SharedMinF64, ws: &mut WorkerStats) -> bool {
    if bound >= local_leak {
        ws.prunes_local += 1;
        true
    } else if bound > shared.get() {
        ws.prunes_shared += 1;
        true
    } else {
        false
    }
}

impl<'a> Optimizer<'a> {
    /// **Heuristic 2**: [`Optimizer::heuristic1`] plus a branch-and-bound
    /// improvement pass over the state tree, split across the engine's
    /// workers.
    ///
    /// The pass honours `exec`'s wall-clock budget, measured from entry so
    /// it covers the embedded Heuristic 1 descent; with no budget it
    /// exhausts the tree (making the state search exact — the gate tree
    /// stays greedy). An unbudgeted result is bit-identical for any thread
    /// count, and never worse than Heuristic 1 — an expired budget returns
    /// the incumbent. `ExecConfig::serial().with_time_budget(d)` is the
    /// classic single-threaded, time-budgeted Heuristic 2.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure, or when a worker or
    /// task is lost beyond `exec`'s retry policy.
    pub fn heuristic2(&self, exec: &ExecConfig) -> Result<(Solution, SearchStats), OptError> {
        let (best, stats, _) = self.heuristic2_warm(exec, &[], None)?;
        Ok((best, stats))
    }

    /// [`Optimizer::heuristic2`] with two extensions used by ECO
    /// re-optimization and the benchmark harness:
    ///
    /// * `warm_vectors` — candidate input vectors (a previous solution, a
    ///   checkpoint's per-task bests) evaluated as feasible incumbents
    ///   *before* the search. Their values tighten **only** the shared
    ///   cross-worker bound, whose prune is strict `>`; the task-local
    ///   seed stays the Heuristic 1 value exactly as in a cold run, so the
    ///   first optimal leaf's path is never cut and the returned solution
    ///   is bit-identical to the cold run at any thread count — warm
    ///   seeding changes how fast the search converges, never what it
    ///   returns.
    /// * `shared_out` — a caller-owned incumbent cell (start it at
    ///   `+inf`); the caller can poll it from another thread to record the
    ///   time-to-quality trajectory. `None` uses an internal cell.
    ///
    /// # Errors
    ///
    /// As [`Optimizer::heuristic2`].
    pub fn heuristic2_warm(
        &self,
        exec: &ExecConfig,
        warm_vectors: &[Vec<bool>],
        shared_out: Option<&SharedMinF64>,
    ) -> Result<(Solution, SearchStats, WarmStats), OptError> {
        let start = Instant::now();
        let budget = exec.budget();
        let seed = self.heuristic1()?;
        let _span = self.obs.span("core.heuristic2");
        let plan = PrefixSearch {
            seed: Some(seed),
            leaf: LeafKind::Greedy,
            warm: warm_vectors,
            shared: shared_out,
            recorded: &BTreeMap::new(),
            writer: None,
        };
        self.search_prefixes(exec, &budget, start, plan)?.strict()
    }

    /// The **exact** two-tree branch and bound: exhaustive, pruned search
    /// of the state tree with an exact gate-tree branch and bound at every
    /// surviving leaf, split across the engine's workers.
    ///
    /// Exhaustive by definition, so any wall-clock budget on `exec` is
    /// ignored — a truncated "exact" answer would be indistinguishable
    /// from a wrong one. The result is bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::TooManyInputs`] if the circuit has more than
    /// `max_inputs` primary inputs — the state space is `2^n` and this
    /// method is intended for the small circuits the paper's exact method
    /// handles — or an error on library lookup failure or engine loss.
    pub fn exact(
        &self,
        max_inputs: usize,
        exec: &ExecConfig,
    ) -> Result<(Solution, SearchStats), OptError> {
        let netlist = self.problem.netlist();
        if netlist.num_inputs() > max_inputs {
            return Err(OptError::TooManyInputs {
                inputs: netlist.num_inputs(),
                limit: max_inputs,
            });
        }
        let _span = self.obs.span("core.exact");
        let start = Instant::now();
        // Surface library errors once, on the caller's thread.
        Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        let plan = PrefixSearch {
            seed: None,
            leaf: LeafKind::Exact,
            warm: &[],
            shared: None,
            recorded: &BTreeMap::new(),
            writer: None,
        };
        let (best, stats, _) = self
            .search_prefixes(exec, &Budget::unlimited(), start, plan)?
            .strict()?;
        Ok((best, stats))
    }

    /// The per-worker state of every state-tree search. The caller has
    /// already built one analyzer on its own thread, so the library is
    /// known good.
    pub(crate) fn worker_ctx(&self) -> WorkerCtx<'a, 'a> {
        let netlist = self.problem.netlist();
        WorkerCtx {
            sta: Sta::new(netlist, self.problem.library(), self.problem.timing())
                .expect("library already validated"),
            tracker: BoundTracker::new(self.problem, self.mode),
            vector: vec![false; netlist.num_inputs()],
        }
    }

    /// The root-split driver behind every prefix search: seeds the shared
    /// incumbent (seed, warm vectors, recorded bests), runs one task per
    /// prefix on the pool — replaying recorded subtrees and recording
    /// freshly exhausted ones — reduces in task order and publishes the
    /// `core.search.*` counters.
    pub(crate) fn search_prefixes(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        start: Instant,
        plan: PrefixSearch<'_>,
    ) -> Result<PrefixRun, OptError> {
        let netlist = self.problem.netlist();
        let order = self.branch_order(self.input_order);
        let k = prefix_depth(exec.threads(), order.len());
        let seed_leak = plan
            .seed
            .as_ref()
            .map_or(f64::INFINITY, |s| s.leakage.value());
        let seed_leaves = plan.seed.as_ref().map_or(0, |s| s.leaves_explored);

        let internal;
        let shared = match plan.shared {
            Some(cell) => cell,
            None => {
                internal = SharedMinF64::new(f64::INFINITY);
                &internal
            }
        };
        shared.update_min(seed_leak);
        // Recorded bests are exactly the values an uninterrupted run had
        // published by the time those subtrees finished.
        for rec in plan.recorded.values() {
            if let Some(sol) = &rec.solution {
                shared.update_min(sol.leakage.value());
            }
        }
        let mut warm = WarmStats {
            candidates: plan.warm.len(),
            ..WarmStats::default()
        };
        if !plan.warm.is_empty() {
            let mut sta = Sta::new(netlist, self.problem.library(), self.problem.timing())?;
            for vector in plan.warm {
                if vector.len() != netlist.num_inputs() {
                    continue;
                }
                let value = self
                    .evaluate_leaf(LeafKind::Greedy, vector, &mut sta, start, 0)
                    .leakage
                    .value();
                warm.evaluated += 1;
                if warm.best.is_none_or(|b| value < b) {
                    warm.best = Some(value);
                }
                shared.update_min(value);
            }
        }

        let run = run_pool(
            exec,
            1usize << k,
            budget,
            self.obs,
            self.fault,
            |_worker| self.worker_ctx(),
            |ctx, p, ws| {
                if let Some(rec) = plan.recorded.get(&p) {
                    // Replay: the subtree was exhaustively explored in a
                    // previous run. Its leaf count keeps totals honest.
                    ws.leaves_evaluated += rec.leaves;
                    return rec.solution.clone();
                }
                let before = ws.leaves_evaluated;
                let sol = self
                    .search_subtree(ctx, p, k, &order, budget, shared, seed_leak, plan.leaf, ws);
                // Record only subtrees the budget did not interrupt:
                // `expired` is monotone, so not-expired here proves the
                // walk above ran to exhaustion.
                if let Some(w) = plan.writer.filter(|_| !budget.expired()) {
                    w.record_task(p, ws.leaves_evaluated - before, sol.as_ref());
                }
                sol
            },
        );

        let stats = run.stats;
        self.obs.add("core.search.nodes", stats.nodes_expanded());
        self.obs.add("core.search.leaves", stats.leaves_evaluated());
        self.obs
            .add("core.search.prunes_local", stats.prunes_local());
        self.obs
            .add("core.search.prunes_shared", stats.prunes_shared());
        self.obs
            .add("core.search.incumbent_updates", stats.incumbent_updates());
        let mut best = min_by_stable(plan.seed, run.results, |a, b| a.leakage < b.leakage);
        if let Some(best) = &mut best {
            best.runtime = start.elapsed();
            best.leaves_explored = seed_leaves + stats.leaves_evaluated() as usize;
        }
        Ok(PrefixRun {
            best,
            stats,
            warm,
            failures: run.failures,
            error: run.error,
        })
    }

    /// Searches the subtree under prefix `p` depth first, false branch
    /// first, returning its best leaf (or `None` if the whole subtree
    /// pruned away or yielded nothing better than `seed_leak`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search_subtree(
        &self,
        ctx: &mut WorkerCtx<'a, 'a>,
        p: usize,
        k: usize,
        order: &[usize],
        budget: &Budget,
        shared: &SharedMinF64,
        seed_leak: f64,
        leaf: LeafKind,
        ws: &mut WorkerStats,
    ) -> Option<Solution> {
        let task_start = Instant::now();
        let n = order.len();
        // Apply the prefix: depth d takes bit k-1-d of p, making ascending
        // task index the depth-first (false-first) exploration order.
        for (d, &input) in order.iter().enumerate().take(k) {
            let value = (p >> (k - 1 - d)) & 1 == 1;
            ctx.vector[input] = value;
            ctx.tracker.set_input(input, Logic::from(value));
            ws.nodes_expanded += 1;
        }

        let mut local: Option<Solution> = None;
        let mut local_leak = seed_leak;
        let mut stack = Vec::with_capacity(n - k + 1);
        if !pruned(ctx.tracker.bound().value(), local_leak, shared, ws) {
            stack.push(Frame::new(k, n));
        }
        while let Some(frame) = stack.last_mut() {
            if budget.expired() {
                break;
            }
            let depth = frame.depth;
            let Some(value) = frame.next else {
                if depth == n {
                    ws.leaves_evaluated += 1;
                    let candidate = self.evaluate_leaf(
                        leaf,
                        &ctx.vector,
                        &mut ctx.sta,
                        task_start,
                        ws.leaves_evaluated as usize,
                    );
                    if candidate.leakage.value() < local_leak {
                        local_leak = candidate.leakage.value();
                        if shared.update_min(local_leak) {
                            ws.incumbent_updates += 1;
                        }
                        local = Some(candidate);
                    }
                    // Chaos hook: a mid-search kill, at leaf granularity.
                    if self.fault.fires(FaultSite::CoreLeaf) {
                        budget.cancel();
                    }
                }
                stack.pop();
                if let Some(parent) = stack.last() {
                    ctx.tracker.set_input(order[parent.depth], Logic::X);
                }
                continue;
            };
            frame.next = (!value).then_some(true);
            let input = order[depth];
            ctx.tracker.set_input(input, Logic::from(value));
            ws.nodes_expanded += 1;
            if pruned(ctx.tracker.bound().value(), local_leak, shared, ws) {
                ctx.tracker.set_input(input, Logic::X);
                continue;
            }
            ctx.vector[input] = value;
            stack.push(Frame::new(depth + 1, n));
        }

        // Unwind whatever the budget interrupted, then the prefix.
        for frame in stack.iter().rev().skip(1) {
            ctx.tracker.set_input(order[frame.depth], Logic::X);
        }
        for &input in order.iter().take(k) {
            ctx.tracker.set_input(input, Logic::X);
        }
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_depth_scales_with_threads_and_clamps() {
        assert_eq!(prefix_depth(1, 20), 3);
        assert_eq!(prefix_depth(4, 20), 5);
        assert_eq!(prefix_depth(8, 20), 6);
        assert_eq!(prefix_depth(1024, 20), 10);
        assert_eq!(prefix_depth(8, 4), 4);
        assert_eq!(prefix_depth(1, 0), 0);
    }

    #[test]
    fn prefix_bits_follow_serial_order() {
        // Prefix 0 is all-false (the first depth-first branch), the last
        // prefix all-true, and bit k-1-d of p drives depth d.
        let k = 3;
        let decoded: Vec<Vec<bool>> = (0..1usize << k)
            .map(|p| (0..k).map(|d| (p >> (k - 1 - d)) & 1 == 1).collect())
            .collect();
        assert_eq!(decoded[0], vec![false, false, false]);
        assert_eq!(decoded[1], vec![false, false, true]);
        assert_eq!(decoded[6], vec![true, true, false]);
        assert_eq!(decoded[7], vec![true, true, true]);
    }
}
