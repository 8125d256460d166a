//! Strategy portfolio: race H1, H2, exact and randomized restarts.
//!
//! No single engine dominates across circuits — the exact branch and
//! bound wins small instances outright, Heuristic 2 under different
//! branch orders wins different mid-size instances, and randomized
//! restarts occasionally beat both. [`Optimizer::run_portfolio`] races
//! them all over the svtox-exec pool and keeps the first winner.
//!
//! # Round-based incumbent sharing
//!
//! Members share one incumbent cell ([`SharedMinF64`]), but *when* they
//! read it is the crux of the determinism contract. The portfolio runs in
//! **rounds**: each live member contributes exactly one *unit* of work
//! per round (one prefix subtree for the H2/exact members, one random
//! vector for the restarts member), and every unit of round `r` prunes
//! against the **frozen bound** `B_r` — the incumbent as of the previous
//! round's barrier. Improvements fold into the cell only *at* the
//! barrier, in fixed member order. A unit is therefore a pure function of
//! `(member state, B_r)`: no mid-round cross-member reads means no
//! dependence on worker timing, so the winning strategy, the final cost
//! bits, and every member's node/leaf/incumbent-update counts are
//! bit-identical for any thread count — and a killed run resumes
//! member-by-member to the same answer, because replayed units re-enter
//! the fold at their original round positions, reconstructing the exact
//! `B_r` sequence.
//!
//! Sharing still pays: a member's round-`r` improvement tightens every
//! other member's round-`r+1` bound, one barrier later than a live read
//! would, which costs at most one unit of stale pruning per member.
//!
//! # Anytime (deadline) mode
//!
//! The frozen-round contract above holds whenever the budget has **no
//! wall-clock deadline** — cancellation and fault injection preserve it,
//! because an interrupted unit is simply re-run in full on resume. A
//! budget *with* a deadline can stop a unit mid-search, so the result
//! already depends on timing and machine speed; paying the frozen-bound
//! tax there buys nothing. Deadline runs therefore switch to **anytime
//! mode**: every remaining unit is scheduled in one round, greedy and
//! restart units prune against (and update) the incumbent cell *live*,
//! and the deadline rather than the barrier ends the round. Exact units
//! keep the frozen round bound even in anytime mode, so a
//! proven-optimality claim never rests on a bound tightened by a partial
//! result that is neither folded nor recorded. The deterministic
//! accounting (member bests, provenance, incumbent updates) still happens
//! only at the barrier, exactly as in frozen mode.
//!
//! # Winner and optimality
//!
//! The winner is the first member in fixed declaration order whose final
//! best cost bit-equals the portfolio best (Heuristic 1 seeds the
//! incumbent and wins when nobody improves on it). Only an exact member
//! exhausting all of its units proves global optimality — its leaf search
//! covers the whole gate-choice space, which strictly contains the greedy
//! and restart leaves — and doing so cancels the remaining members
//! through their per-member budgets (children of the caller's budget, so
//! a deadline or Ctrl-C still reaches everyone).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_exec::{run_pool, Budget, CancelToken, ExecConfig, ExecError, SearchStats, SharedMinF64};
use svtox_fault::Site as FaultSite;

use crate::checkpoint::{self, CheckpointSpec, CheckpointWriter, TaskRecord};
use crate::error::OptError;
use crate::outcome::{DegradeReason, RunOutcome};
use crate::problem::InputOrder;
use crate::solution::Solution;

use super::parallel::WorkerCtx;
use super::{LeafKind, Optimizer};

/// One racing strategy of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The Heuristic 1 descent that seeds the incumbent.
    Heuristic1,
    /// Branch-and-bound state search with greedy gate trees.
    Heuristic2(InputOrder),
    /// Exhaustive two-tree branch and bound (small circuits only).
    Exact(InputOrder),
    /// Seeded randomized restart vectors with greedy gate trees.
    Restarts,
}

impl Strategy {
    /// Stable identifier used in reports, JSON, and checkpoint metadata.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Strategy::Heuristic1 => "h1",
            Strategy::Heuristic2(InputOrder::InfluenceDescending) => "h2-influence",
            Strategy::Heuristic2(InputOrder::Natural) => "h2-natural",
            Strategy::Heuristic2(InputOrder::InfluenceAscending) => "h2-reverse",
            Strategy::Exact(InputOrder::InfluenceDescending) => "exact-influence",
            Strategy::Exact(InputOrder::Natural) => "exact-natural",
            Strategy::Exact(InputOrder::InfluenceAscending) => "exact-reverse",
            Strategy::Restarts => "restarts",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Portfolio tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Random restart vectors the restarts member evaluates.
    pub restarts: usize,
    /// Input-count ceiling for including the exact members.
    pub exact_max_inputs: usize,
    /// Base seed of the restart vectors (each restart derives its own
    /// stream, so the set is identical for any thread count).
    pub seed: u64,
    /// Prefix split depth of the H2/exact members: each gets `2^depth`
    /// subtree units. Fixed — independent of the thread count — so
    /// checkpoints resume across machines.
    pub split_depth: usize,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        Self {
            restarts: 24,
            exact_max_inputs: 12,
            seed: 42,
            split_depth: 4,
        }
    }
}

/// How a member's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// Every unit was exhaustively explored.
    Complete,
    /// Stopped by the portfolio after another member proved optimality.
    Cancelled,
    /// Stopped mid-unit (deadline, external cancel, or injected kill);
    /// its checkpoint resumes the remaining units.
    Preempted,
}

impl fmt::Display for MemberStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemberStatus::Complete => "complete",
            MemberStatus::Cancelled => "cancelled",
            MemberStatus::Preempted => "preempted",
        })
    }
}

/// Per-member accounting folded into the [`PortfolioOutcome`].
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// Which strategy this member ran.
    pub strategy: Strategy,
    /// How the member ended.
    pub status: MemberStatus,
    /// The member's own best leakage (absent if it never beat the bound
    /// it was given).
    pub best_cost: Option<f64>,
    /// Units fully explored (including replayed ones).
    pub units_done: usize,
    /// Units the member was assigned in total.
    pub units_total: usize,
    /// Units replayed from a checkpoint instead of recomputed.
    pub resumed_units: usize,
    /// State-tree nodes this member expanded.
    pub nodes: u64,
    /// Leaves this member evaluated.
    pub leaves: u64,
    /// Barrier folds where this member improved the portfolio incumbent.
    pub incumbent_updates: u64,
}

/// One improvement of the portfolio incumbent.
#[derive(Debug, Clone, Copy)]
pub struct ProvenanceEntry {
    /// The member that produced the improvement.
    pub strategy: Strategy,
    /// The round at whose barrier it folded in.
    pub round: usize,
    /// The improved leakage.
    pub cost: f64,
}

/// The typed result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The first member (in declaration order) whose best matches the
    /// portfolio best bit-for-bit.
    pub winner: Strategy,
    /// The portfolio's best solution.
    pub best: Solution,
    /// Whether an exact member exhausted its search, proving `best`
    /// globally optimal.
    pub proven_optimal: bool,
    /// Barrier rounds executed.
    pub rounds: usize,
    /// Per-member reports, in declaration order.
    pub members: Vec<MemberReport>,
    /// Every incumbent improvement, oldest first (entry 0 is the H1
    /// seed).
    pub provenance: Vec<ProvenanceEntry>,
    /// Aggregated engine statistics over all rounds.
    pub stats: SearchStats,
    /// Why the run degraded, if it did.
    pub reason: Option<DegradeReason>,
}

impl PortfolioOutcome {
    /// `"complete"` or `"degraded"`, mirroring [`RunOutcome::status`].
    #[must_use]
    pub fn status(&self) -> &'static str {
        if self.reason.is_some() {
            "degraded"
        } else {
            "complete"
        }
    }

    /// Collapses into the engine-wide [`RunOutcome`] shape (the winner
    /// and member details are portfolio-specific and dropped).
    #[must_use]
    pub fn into_run_outcome(self) -> RunOutcome {
        match self.reason {
            Some(reason) => RunOutcome::Degraded {
                reason,
                best: self.best,
                stats: self.stats,
            },
            None => RunOutcome::Complete {
                solution: self.best,
                stats: self.stats,
            },
        }
    }
}

impl fmt::Display for PortfolioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "winner {} after {} rounds ({} members",
            self.winner,
            self.rounds,
            self.members.len()
        )?;
        if self.proven_optimal {
            write!(f, ", proven optimal")?;
        }
        write!(f, ", {})", self.status())
    }
}

/// One unit's barrier-fold entry:
/// `(member, unit, solution, exhausted, nodes, leaves, replayed)`.
type UnitResult = (usize, usize, Option<Solution>, bool, u64, u64, bool);

/// What one unit reports back through the pool.
struct UnitReturn {
    solution: Option<Solution>,
    exhausted: bool,
    nodes: u64,
    leaves: u64,
}

/// Immutable description of one round task, safe to share with workers.
struct TaskDesc {
    member: usize,
    unit: usize,
    kind: TaskKind,
    budget: Budget,
}

enum TaskKind {
    Subtree {
        order: Vec<usize>,
        k: usize,
        leaf: LeafKind,
    },
    Restart {
        seed: u64,
    },
}

/// Mutable per-member bookkeeping of the driver loop.
struct Member {
    strategy: Strategy,
    kind: MemberKind,
    units_total: usize,
    budget: Budget,
    recorded: BTreeMap<usize, TaskRecord>,
    writer: Option<CheckpointWriter>,
    units_done: usize,
    resumed_units: usize,
    best_cost: Option<f64>,
    nodes: u64,
    leaves: u64,
    incumbent_updates: u64,
    preempted: bool,
    cancelled: bool,
}

enum MemberKind {
    Seed,
    Subtree {
        order: Vec<usize>,
        k: usize,
        leaf: LeafKind,
    },
    Restarts,
}

impl Member {
    /// Whether the member still has a unit to contribute this round.
    fn runnable(&self) -> bool {
        !self.preempted && !self.cancelled && self.units_done < self.units_total
    }

    fn status(&self) -> MemberStatus {
        if self.units_done == self.units_total {
            MemberStatus::Complete
        } else if self.cancelled {
            MemberStatus::Cancelled
        } else {
            MemberStatus::Preempted
        }
    }

    fn report(&self) -> MemberReport {
        MemberReport {
            strategy: self.strategy,
            status: self.status(),
            best_cost: self.best_cost,
            units_done: self.units_done,
            units_total: self.units_total,
            resumed_units: self.resumed_units,
            nodes: self.nodes,
            leaves: self.leaves,
            incumbent_updates: self.incumbent_updates,
        }
    }
}

impl<'a> Optimizer<'a> {
    /// Races the full strategy portfolio under `budget` and folds the
    /// members into a typed [`PortfolioOutcome`].
    ///
    /// With a [`CheckpointSpec`], each member appends its exhausted units
    /// to its own file (`<path>.<slug>`, tagged with the member's engine
    /// slug) and a resumed run replays them at their original round
    /// positions — bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`OptError`] for library failures, unusable checkpoint
    /// files, or an engine error that left no incumbent. Shortfalls that
    /// leave an incumbent (deadline, cancel, member kills) degrade via
    /// [`PortfolioOutcome::reason`] instead.
    pub fn run_portfolio(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        config: &PortfolioConfig,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<PortfolioOutcome, OptError> {
        let start = Instant::now();
        let _span = self.obs.span("core.portfolio.run");
        let n = self.problem.netlist().num_inputs();
        let k = config.split_depth.min(n);

        // Heuristic 1 is deterministic and cheap, so resume re-derives
        // the seed instead of trusting the file.
        let seed_sol = self.heuristic1()?;
        let seed_leak = seed_sol.leakage.value();

        // Fixed declaration order — winner ties break towards the front.
        let subtree = |order: InputOrder, leaf: LeafKind| MemberKind::Subtree {
            order: self.branch_order(order),
            k,
            leaf,
        };
        let mut strategies = vec![(Strategy::Heuristic1, MemberKind::Seed, 0usize)];
        for order in [
            InputOrder::InfluenceDescending,
            InputOrder::Natural,
            InputOrder::InfluenceAscending,
        ] {
            let kind = subtree(order, LeafKind::Greedy);
            strategies.push((Strategy::Heuristic2(order), kind, 1usize << k));
        }
        if n <= config.exact_max_inputs {
            for order in [InputOrder::InfluenceDescending, InputOrder::Natural] {
                let kind = subtree(order, LeafKind::Exact);
                strategies.push((Strategy::Exact(order), kind, 1usize << k));
            }
        }
        if config.restarts > 0 {
            strategies.push((Strategy::Restarts, MemberKind::Restarts, config.restarts));
        }

        let mut members = Vec::with_capacity(strategies.len());
        for (strategy, kind, units_total) in strategies {
            let member_k = match &kind {
                MemberKind::Subtree { k, .. } => *k,
                _ => 0,
            };
            let (recorded, writer) =
                self.member_checkpoint(checkpoint, strategy, member_k, units_total, &seed_sol)?;
            members.push(Member {
                strategy,
                kind,
                units_total,
                budget: budget.child(CancelToken::new()),
                recorded,
                writer,
                units_done: 0,
                resumed_units: 0,
                best_cost: if matches!(strategy, Strategy::Heuristic1) {
                    Some(seed_leak)
                } else {
                    None
                },
                nodes: 0,
                leaves: 0,
                incumbent_updates: 0,
                preempted: false,
                cancelled: false,
            });
        }

        // A deadline marks the run as *anytime*: it can stop mid-unit,
        // so its result already depends on timing and machine speed. In
        // that mode the frozen-round contract would only cost pruning
        // depth — a 2^k-leaf unit rarely exhausts before the deadline,
        // leaving every member to search with the seed bound forever. So
        // anytime runs trade the (already unattainable) bit-identity for
        // quality: greedy units share the incumbent cell live and every
        // remaining unit is scheduled at once, letting the deadline
        // rather than the barrier end the round.
        let live = budget.has_deadline();
        // The portfolio incumbent. Without a deadline it is updated only
        // at round barriers, so every unit of a round prunes against the
        // same frozen bound.
        let cell = SharedMinF64::new(seed_leak);
        let mut best = seed_sol.clone();
        // Degraded-run fallback attribution: a mid-unit (non-exhausted)
        // improvement folds into `best` but not into any member's
        // deterministic accounting.
        let mut partial_winner: Option<Strategy> = None;
        let mut provenance = vec![ProvenanceEntry {
            strategy: Strategy::Heuristic1,
            round: 0,
            cost: seed_leak,
        }];
        let mut total_stats = SearchStats {
            completed: true,
            ..SearchStats::default()
        };
        let mut rounds = 0usize;
        let mut live_units = 0u64;
        let mut proven_optimal = false;
        let mut worker_loss: Option<(usize, String)> = None;
        let mut task_failures: (usize, Option<String>) = (0, None);

        while members.iter().any(Member::runnable) {
            if budget.expired() {
                for m in members.iter_mut().filter(|m| m.runnable()) {
                    m.preempted = true;
                }
                break;
            }
            let bound = cell.get();
            let mut results: Vec<UnitResult> = Vec::new();
            let mut tasks: Vec<TaskDesc> = Vec::new();
            for (mi, m) in members.iter_mut().enumerate() {
                if !m.runnable() {
                    continue;
                }
                // A frozen round advances one unit per member; an
                // anytime round schedules every remaining unit at once.
                let span_end = if live {
                    m.units_total
                } else {
                    m.units_done + 1
                };
                for unit in m.units_done..span_end {
                    if let Some(rec) = m.recorded.get(&unit) {
                        results.push((mi, unit, rec.solution.clone(), true, 0, rec.leaves, true));
                        continue;
                    }
                    let kind = match &m.kind {
                        MemberKind::Subtree { order, k, leaf } => TaskKind::Subtree {
                            order: order.clone(),
                            k: *k,
                            leaf: *leaf,
                        },
                        MemberKind::Restarts => TaskKind::Restart {
                            seed: derive_seed(config.seed, unit as u64),
                        },
                        MemberKind::Seed => unreachable!("seed member has no units"),
                    };
                    tasks.push(TaskDesc {
                        member: mi,
                        unit,
                        kind,
                        budget: m.budget.clone(),
                    });
                }
            }
            if live {
                // Interleave members so the first workers cover one unit
                // of each strategy instead of draining one member's
                // queue before the deadline lands. Restart units are
                // near-free (one leaf evaluation each) and feed the live
                // incumbent, so the whole restart block runs right after
                // the first rank of dives — on large circuits a dive
                // never finishes, and restarts queued behind a second
                // dive rank would never run at all.
                tasks.sort_by_key(|t| {
                    let rank = match &t.kind {
                        TaskKind::Subtree { .. } if t.unit == 0 => 0,
                        TaskKind::Restart { .. } => 1,
                        TaskKind::Subtree { .. } => 2,
                    };
                    (rank, t.unit, t.member)
                });
            }

            if !tasks.is_empty() {
                live_units += tasks.len() as u64;
                let run = run_pool(
                    exec,
                    tasks.len(),
                    budget,
                    self.obs,
                    self.fault,
                    |_worker| self.worker_ctx(),
                    |ctx, t, ws| {
                        let shared = live.then_some(&cell);
                        Some(self.run_unit(ctx, &tasks[t], bound, shared, ws))
                    },
                );
                total_stats.absorb(&run.stats);
                for failure in &run.failures {
                    let mi = tasks[failure.task].member;
                    members[mi].preempted = true;
                    task_failures.0 += 1;
                    if task_failures.1.is_none() {
                        task_failures.1 = Some(failure.message.clone());
                    }
                }
                if let Some(error) = run.error {
                    match error {
                        ExecError::WorkerPanic { worker, message } => {
                            worker_loss = Some((worker, message));
                        }
                        other => return Err(OptError::Exec(other)),
                    }
                }
                for (t, slot) in run.results.into_iter().enumerate() {
                    let desc = &tasks[t];
                    match slot {
                        Some(unit) => results.push((
                            desc.member,
                            desc.unit,
                            unit.solution,
                            unit.exhausted,
                            unit.nodes,
                            unit.leaves,
                            false,
                        )),
                        // Skipped by budget expiry (or lost with a dead
                        // worker): the unit never ran to exhaustion.
                        None => {
                            members[desc.member].preempted = true;
                        }
                    }
                }
            }
            drop(tasks);

            // Barrier fold, in fixed (member, unit) order.
            results.sort_by_key(|r| (r.0, r.1));
            for (mi, unit, solution, exhausted, nodes, leaves, replayed) in results {
                let m = &mut members[mi];
                m.nodes += nodes;
                m.leaves += leaves;
                if exhausted {
                    if replayed {
                        m.resumed_units += 1;
                    } else if let Some(w) = &m.writer {
                        w.record_task(unit, leaves, solution.as_ref());
                    }
                    m.units_done += 1;
                } else {
                    m.preempted = true;
                }
                let Some(sol) = solution else { continue };
                let cost = sol.leakage.value();
                if exhausted {
                    if m.best_cost.is_none_or(|b| cost < b) {
                        m.best_cost = Some(cost);
                    }
                    if cost < best.leakage.value() {
                        cell.update_min(cost);
                        m.incumbent_updates += 1;
                        provenance.push(ProvenanceEntry {
                            strategy: m.strategy,
                            round: rounds,
                            cost,
                        });
                        best = sol;
                    }
                } else if cost < best.leakage.value() {
                    // Anytime value from an interrupted unit: keep the
                    // solution but leave the deterministic accounting
                    // (cell, member best, provenance) untouched — resume
                    // re-runs the unit in full.
                    partial_winner = Some(m.strategy);
                    best = sol;
                }
            }
            rounds += 1;

            if members
                .iter()
                .any(|m| matches!(m.strategy, Strategy::Exact(_)) && m.units_done == m.units_total)
            {
                proven_optimal = true;
                for m in members.iter_mut().filter(|m| m.runnable()) {
                    m.cancelled = true;
                    m.budget.cancel();
                }
            }
            if worker_loss.is_some() {
                for m in members.iter_mut().filter(|m| m.runnable()) {
                    m.preempted = true;
                }
                break;
            }
        }

        let reason = if let Some((worker, message)) = worker_loss {
            Some(DegradeReason::WorkerLoss { worker, message })
        } else if task_failures.0 > 0 {
            Some(DegradeReason::TasksFailed {
                failed: task_failures.0,
                first: task_failures.1.unwrap_or_default(),
            })
        } else if members.iter().any(|m| m.preempted) {
            if budget.deadline_passed() {
                Some(DegradeReason::DeadlineExpired)
            } else {
                Some(DegradeReason::Cancelled)
            }
        } else {
            None
        };

        let best_bits = best.leakage.value().to_bits();
        let winner = members
            .iter()
            .find(|m| m.best_cost.is_some_and(|c| c.to_bits() == best_bits))
            .map(|m| m.strategy)
            .or(partial_winner)
            .unwrap_or(Strategy::Heuristic1);

        best.runtime = start.elapsed();
        best.leaves_explored =
            seed_sol.leaves_explored + members.iter().map(|m| m.leaves).sum::<u64>() as usize;
        total_stats.completed = reason.is_none();
        total_stats.wall = start.elapsed();

        let members: Vec<MemberReport> = members.iter().map(Member::report).collect();
        let complete = members
            .iter()
            .filter(|m| m.status == MemberStatus::Complete)
            .count() as u64;
        let cancelled = members
            .iter()
            .filter(|m| m.status == MemberStatus::Cancelled)
            .count() as u64;
        let preempted = members
            .iter()
            .filter(|m| m.status == MemberStatus::Preempted)
            .count() as u64;
        let resumed: u64 = members.iter().map(|m| m.resumed_units as u64).sum();
        self.obs.add("core.portfolio.rounds", rounds as u64);
        self.obs.add("core.portfolio.units", live_units);
        self.obs.add("core.portfolio.units_resumed", resumed);
        self.obs.add(
            "core.portfolio.incumbent_updates",
            (provenance.len() - 1) as u64,
        );
        self.obs.add("core.portfolio.members_complete", complete);
        self.obs.add("core.portfolio.members_cancelled", cancelled);
        self.obs.add("core.portfolio.members_preempted", preempted);

        Ok(PortfolioOutcome {
            winner,
            best,
            proven_optimal,
            rounds,
            members,
            provenance,
            stats: total_stats,
            reason,
        })
    }

    /// Executes one live unit (worker side).
    fn run_unit(
        &self,
        ctx: &mut WorkerCtx<'a, 'a>,
        desc: &TaskDesc,
        bound: f64,
        live: Option<&SharedMinF64>,
        ws: &mut svtox_exec::WorkerStats,
    ) -> UnitReturn {
        let nodes0 = ws.nodes_expanded;
        let leaves0 = ws.leaves_evaluated;
        if desc.budget.expired() {
            return UnitReturn {
                solution: None,
                exhausted: false,
                nodes: 0,
                leaves: 0,
            };
        }
        let solution = match &desc.kind {
            TaskKind::Subtree { order, k, leaf } => {
                // Reproducible rounds prune against a private cell frozen
                // at the round bound: the unit prunes exactly as the
                // task-local rule dictates, immune to mid-round cross-member
                // noise. Anytime runs share the real incumbent instead —
                // except exact units, whose proven-optimality claim must
                // never rest on a bound tightened by a partial result
                // that is neither folded nor recorded.
                let frozen = SharedMinF64::new(bound);
                let (cell, bound) = match live {
                    Some(cell) if matches!(leaf, LeafKind::Greedy) => (cell, cell.get()),
                    _ => (&frozen, bound),
                };
                self.search_subtree(
                    ctx,
                    desc.unit,
                    *k,
                    order,
                    &desc.budget,
                    cell,
                    bound,
                    *leaf,
                    ws,
                )
            }
            TaskKind::Restart { seed } => {
                // Anytime runs judge (and feed) the live incumbent; a
                // random vector that only beats a stale round bound is
                // not worth reporting.
                let bound = live.map_or(bound, SharedMinF64::get);
                let start = Instant::now();
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                for slot in ctx.vector.iter_mut() {
                    *slot = rng.next_u64() & 1 == 1;
                }
                ws.leaves_evaluated += 1;
                let sol = self.evaluate_leaf(
                    LeafKind::Greedy,
                    &ctx.vector,
                    &mut ctx.sta,
                    start,
                    ws.leaves_evaluated as usize,
                );
                if self.fault.fires(FaultSite::CoreLeaf) {
                    desc.budget.cancel();
                }
                if let Some(cell) = live {
                    cell.update_min(sol.leakage.value());
                }
                (sol.leakage.value() < bound).then_some(sol)
            }
        };
        UnitReturn {
            solution,
            exhausted: !desc.budget.expired(),
            nodes: ws.nodes_expanded - nodes0,
            leaves: ws.leaves_evaluated - leaves0,
        }
    }

    /// Loads or creates one member's checkpoint state.
    fn member_checkpoint(
        &self,
        spec: Option<&CheckpointSpec>,
        strategy: Strategy,
        k: usize,
        units_total: usize,
        seed: &Solution,
    ) -> Result<(BTreeMap<usize, TaskRecord>, Option<CheckpointWriter>), OptError> {
        let Some(spec) = spec else {
            return Ok((BTreeMap::new(), None));
        };
        if units_total == 0 {
            // The seed member has nothing to record.
            return Ok((BTreeMap::new(), None));
        }
        let slug = strategy.slug();
        let path = PathBuf::from(format!("{}.{slug}", spec.path.display()));
        let member_spec = CheckpointSpec {
            path: path.clone(),
            resume: spec.resume,
        };
        let loaded = if spec.resume {
            checkpoint::load(&path)?
        } else {
            None
        };
        match loaded {
            Some(cp) => {
                self.validate_meta(&cp.meta, k, &member_spec)?;
                if cp.meta.engine.as_deref() != Some(slug) {
                    return Err(OptError::Checkpoint(format!(
                        "{}: recorded engine {:?} does not match member \"{slug}\"",
                        path.display(),
                        cp.meta.engine
                    )));
                }
                let writer = CheckpointWriter::append(&path, self.fault)?;
                Ok((cp.tasks, Some(writer)))
            }
            None => {
                let mut meta = self.meta(k, seed);
                meta.engine = Some(slug.to_string());
                let writer = CheckpointWriter::create(&path, &meta, self.fault)?;
                Ok((BTreeMap::new(), Some(writer)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_exec::ExecConfig;
    use svtox_fault::{Fault, FaultPlan, Site, Trigger};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    use crate::problem::{DelayPenalty, Mode, Problem};

    /// Small on purpose: the exact members run a full gate-option branch
    /// and bound per leaf, so circuit size multiplies into every test.
    fn small() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("portfolio-small", 6, 3, 16, 4);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    /// Tinier still, for the tests that include the exact members: their
    /// per-leaf gate-option branch and bound dominates everything.
    fn tiny() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("portfolio-tiny", 5, 3, 10, 4);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    /// A config without the exact members, for tests that only need the
    /// cheap strategies (greedy leaves evaluate in microseconds).
    fn greedy_config() -> PortfolioConfig {
        PortfolioConfig {
            restarts: 12,
            exact_max_inputs: 0,
            ..PortfolioConfig::default()
        }
    }

    fn temp_base(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "svtox-portfolio-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn remove_member_files(base: &std::path::Path) {
        for slug in [
            "h2-influence",
            "h2-natural",
            "h2-reverse",
            "exact-influence",
            "exact-natural",
            "restarts",
        ] {
            std::fs::remove_file(format!("{}.{slug}", base.display())).ok();
        }
    }

    #[test]
    fn portfolio_is_bit_identical_across_thread_counts() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let config = greedy_config();
        let run = |threads: usize| {
            opt.run_portfolio(
                &ExecConfig::with_threads(threads),
                &Budget::unlimited(),
                &config,
                None,
            )
            .expect("portfolio runs")
        };
        let one = run(1);
        assert!(one.reason.is_none(), "unbudgeted run completes");
        for threads in [2, 4] {
            let other = run(threads);
            assert_eq!(other.winner, one.winner, "winner at {threads} threads");
            assert_eq!(
                other.best.leakage.value().to_bits(),
                one.best.leakage.value().to_bits()
            );
            assert!(other.best.same_assignment(&one.best));
            assert_eq!(other.rounds, one.rounds);
            for (a, b) in one.members.iter().zip(&other.members) {
                assert_eq!(a.strategy, b.strategy);
                assert_eq!(a.incumbent_updates, b.incumbent_updates, "{}", a.strategy);
                assert_eq!(a.nodes, b.nodes, "{}", a.strategy);
                assert_eq!(a.leaves, b.leaves, "{}", a.strategy);
                assert_eq!(a.units_done, b.units_done, "{}", a.strategy);
            }
        }
    }

    #[test]
    fn exact_completion_proves_optimality_and_cancels_losers() {
        let (n, lib) = tiny();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        // More restart units than prefix units: the exact members finish
        // first and the restarts member must be cancelled, not completed.
        let config = PortfolioConfig {
            restarts: 40,
            ..PortfolioConfig::default()
        };
        let outcome = opt
            .run_portfolio(
                &ExecConfig::with_threads(2),
                &Budget::unlimited(),
                &config,
                None,
            )
            .unwrap();
        assert!(
            outcome.proven_optimal,
            "5 inputs gates the exact members in"
        );
        assert!(outcome.reason.is_none(), "cancelled losers do not degrade");
        let restarts = outcome
            .members
            .iter()
            .find(|m| m.strategy == Strategy::Restarts)
            .expect("restarts member present");
        assert_eq!(restarts.status, MemberStatus::Cancelled);
        assert!(restarts.units_done < restarts.units_total, "stopped early");
        // The proven optimum is at least as good as the exact search's
        // answer (identical gate-choice space).
        let (exact, _) = opt.exact(12, &ExecConfig::serial()).unwrap();
        assert_eq!(
            outcome.best.leakage.value().to_bits(),
            exact.leakage.value().to_bits()
        );
    }

    #[test]
    fn portfolio_beats_or_matches_every_individual_strategy() {
        let (n, lib) = tiny();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let outcome = opt
            .run_portfolio(
                &ExecConfig::serial(),
                &Budget::unlimited(),
                &PortfolioConfig::default(),
                None,
            )
            .unwrap();
        let portfolio = outcome.best.leakage.value();
        let h1 = opt.heuristic1().unwrap().leakage.value();
        let exec = ExecConfig::serial().with_time_budget(std::time::Duration::from_secs(10));
        let h2 = opt.heuristic2(&exec).unwrap().0.leakage.value();
        let exact = opt.exact(12, &exec).unwrap().0.leakage.value();
        assert!(portfolio <= h1 + 1e-15);
        assert!(portfolio <= h2 + 1e-15);
        assert!(portfolio <= exact + 1e-15);
        outcome.best.verify(&problem).unwrap();
    }

    #[test]
    fn kill_mid_run_then_resume_is_bit_identical() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let config = greedy_config();
        let reference = opt
            .run_portfolio(&exec, &Budget::unlimited(), &config, None)
            .unwrap();

        let base = temp_base("kill-resume");
        let plan = FaultPlan::new(13).with_rule(Site::CoreLeaf, Trigger::Nth(10));
        let fault = Fault::new(&plan);
        let killed = opt
            .with_fault(&fault)
            .run_portfolio(
                &exec,
                &Budget::unlimited(),
                &config,
                Some(&CheckpointSpec::fresh(&base)),
            )
            .unwrap();
        assert!(
            killed.reason.is_some(),
            "the injected kill preempts a member"
        );
        assert!(killed
            .members
            .iter()
            .any(|m| m.status == MemberStatus::Preempted));

        let resumed = opt
            .run_portfolio(
                &exec,
                &Budget::unlimited(),
                &config,
                Some(&CheckpointSpec::resume(&base)),
            )
            .unwrap();
        assert!(resumed.reason.is_none(), "resume completes");
        assert!(resumed.members.iter().any(|m| m.resumed_units > 0));
        assert_eq!(resumed.winner, reference.winner);
        assert_eq!(
            resumed.best.leakage.value().to_bits(),
            reference.best.leakage.value().to_bits()
        );
        assert!(resumed.best.same_assignment(&reference.best));
        remove_member_files(&base);
    }

    #[test]
    fn foreign_member_checkpoint_is_a_typed_failure() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::serial();
        let config = greedy_config();
        let base = temp_base("foreign");
        opt.run_portfolio(
            &exec,
            &Budget::unlimited(),
            &config,
            Some(&CheckpointSpec::fresh(&base)),
        )
        .unwrap();
        // Swap two members' files: the engine tag must reject the mix-up.
        let a = format!("{}.h2-influence", base.display());
        let b = format!("{}.h2-natural", base.display());
        let tmp = format!("{}.swap", base.display());
        std::fs::rename(&a, &tmp).unwrap();
        std::fs::rename(&b, &a).unwrap();
        std::fs::rename(&tmp, &b).unwrap();
        let err = opt
            .run_portfolio(
                &exec,
                &Budget::unlimited(),
                &config,
                Some(&CheckpointSpec::resume(&base)),
            )
            .expect_err("swapped files must fail");
        assert!(err.to_string().contains("engine"), "got {err}");
        remove_member_files(&base);
    }

    #[test]
    fn expired_budget_degrades_but_keeps_the_seed() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let outcome = opt
            .run_portfolio(
                &ExecConfig::with_threads(2),
                &Budget::with_duration(std::time::Duration::ZERO),
                &PortfolioConfig::default(),
                None,
            )
            .unwrap();
        assert_eq!(outcome.reason, Some(DegradeReason::DeadlineExpired));
        assert_eq!(outcome.winner, Strategy::Heuristic1);
        assert!(outcome.best.same_assignment(&opt.heuristic1().unwrap()));
        let run = outcome.into_run_outcome();
        assert_eq!(run.status(), "degraded");
    }
}
