//! Lexicographic multi-objective optimization over stable models.
//!
//! The paper relies on clasp's optimization to select the single best answer set under
//! Spack's 15+ prioritized criteria (Table II, Fig. 5). This module implements the
//! model-guided branch-and-bound strategy (clasp's `bb`): find a stable model, then
//! repeatedly demand a strictly better objective value at the highest not-yet-optimal
//! priority level (by adding a weighted-sum upper bound), level by level in decreasing
//! priority, until the optimum is proved for every level.
//!
//! # Determinism
//!
//! Every request solves once: the descent drives one serial solver at a time, and the
//! only state it inherits is the clause cache of its own grounding, which starts empty
//! when that grounding is made. Nothing is shared across requests, so the search is a
//! fixed function of the translation, the solver configuration, the fixed externals,
//! the assumptions and the earlier solves on the same cache. The returned **model** is
//! the descent's last incumbent, the **cost vector** is its lexicographic optimum, and
//! an **unsat core** is the failed-assumption set of the refuting solver. Equal inputs
//! give byte-identical answers.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ground::GroundProgram;
use crate::sat::{
    ClauseArena, ClauseCache, LinearSpec, Lit, SatConfig, SatStats, SearchResult, SolveBudgetState,
    Solver, Var,
};
use crate::stable::StabilityChecker;
use crate::translate::Translation;

/// The outcome of an optimizing solve.
#[derive(Debug, Clone)]
pub struct OptimalModel {
    /// The stable model: truth values indexed by SAT variable (program atoms first).
    pub model: Vec<bool>,
    /// The objective vector: `(priority, value)` pairs sorted by decreasing priority.
    pub cost: Vec<(i64, i64)>,
    /// Number of candidate models examined on the way to the optimum, including
    /// unstable supported models rejected by the stability check.
    pub models_examined: u64,
    /// Number of solver invocations.
    pub solver_runs: u64,
    /// Total conflicts across all runs.
    pub conflicts: u64,
    /// Loop nogoods added by the stable-model check.
    pub loop_nogoods: u64,
    /// Aggregated low-level solver statistics across all runs.
    pub sat: SatStats,
}

/// Outcome of an assumption-aware optimizing solve ([`solve_optimal_assuming`]).
#[derive(Debug, Clone)]
pub enum OptOutcome {
    /// A (lexicographically) optimal stable model was found.
    Optimal(OptimalModel),
    /// No stable model exists under the given assumptions.
    Unsat {
        /// The subset of the assumption literals refuted by the program (the *unsat
        /// core* from final-conflict analysis). Empty when the program has no stable
        /// model even without assumptions.
        core: Vec<Lit>,
        /// Aggregated solver statistics of the failed search.
        sat: SatStats,
    },
    /// The solve budget (wall deadline or conflict limit) expired before optimality
    /// was proven.
    Budget {
        /// The best stable model branch-and-bound had proven when the budget
        /// expired, with the costs it achieved — *not* guaranteed optimal. Under a
        /// wall deadline it depends on how far the search got, so it can differ
        /// between runs; under a conflict limit alone it is deterministic. `None`
        /// when the budget expired before any stable model was found.
        partial: Option<Box<OptimalModel>>,
        /// Aggregated solver statistics of the interrupted solve.
        sat: SatStats,
    },
}

/// Error produced by the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimization error: {}", self.message)
    }
}

impl std::error::Error for OptimizeError {}

struct Level {
    priority: i64,
    /// Literal/weight pairs contributing to this level.
    lits: Vec<(Lit, u64)>,
    /// Constant contribution from unconditional minimize entries.
    base: i64,
}

/// Solve for the lexicographically optimal stable model.
///
/// Returns `Ok(None)` when the program has no stable model at all.
///
/// # Warm starts
///
/// Within one priority level, branch-and-bound only ever *tightens* the objective
/// bound, so a single solver instance is kept across all improving models of the
/// level: every learned clause, loop nogood, saved phase, and activity score carries
/// over, and each iteration merely adds one more linear bound. Only when a level is
/// proved optimal (its last bound is UNSAT, poisoning the solver) is a fresh solver
/// built for the next level — seeded with the frozen bounds of the finished levels,
/// the session clause cache (which carries the retired solvers' provenance-safe
/// learned clauses), the loop nogoods discovered so far, and the incumbent model's
/// phases (so the search restarts in the neighbourhood of the best known
/// assignment).
pub fn solve_optimal(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
) -> Result<Option<OptimalModel>, OptimizeError> {
    let mut retired = None;
    let mut cache = ClauseCache::default();
    match solve_optimal_assuming(
        ground,
        translation,
        config,
        &[],
        &[],
        i64::MIN,
        &mut retired,
        &mut cache,
        None,
    )? {
        OptOutcome::Optimal(model) => Ok(Some(model)),
        OptOutcome::Unsat { .. } => Ok(None),
        OptOutcome::Budget { .. } => unreachable!("solve_optimal installs no budget"),
    }
}

/// [`solve_optimal`] under *assumption literals*: only stable models where every
/// assumption holds are considered, and on UNSAT the returned [`OptOutcome::Unsat`]
/// carries the core of assumptions responsible (tracked through conflict analysis by
/// [`Solver::search_with_assumptions`]).
///
/// `fixed` literals are asserted as root-level unit clauses in every solver this
/// solve builds — the realization of clingo's `assign_external`: an `#external`
/// guard's per-solve truth propagates once at the root instead of being re-decided
/// (and its consequences re-propagated) on every solver run of the optimization.
/// Fixed literals never appear in unsat cores; solvers do not outlive the solve, so
/// the units leak into nothing.
///
/// `priority_floor` bounds the optimization effort: minimize levels with a priority
/// *below* the floor are dropped entirely — neither optimized nor present in the
/// returned objective vector. The diagnostics path uses this to minimize only the
/// paper's `error(Priority, Msg, Args)` levels on the relaxed second-phase solve.
/// Pass `i64::MIN` to optimize every level.
///
/// On an UNSAT outcome the solver of the failed (bound-free) initial run is handed
/// back through `retired` — assumptions are plain decisions, so it is fully reusable,
/// and its learned clauses make it a warm probe for follow-up work such as
/// deletion-based core minimization (see [`StableProbe::from_solver`]).
///
/// `cache` is the session clause cache shared by every solve on this grounding: its
/// clauses are replayed into each solver built here, and every loop nogood found (plus
/// the provenance-safe learned clauses of each retiring solver) flows back into it.
///
/// `budget` is an optional shared solve budget (see [`SolveBudgetState`]): it is
/// installed into *every* solver this solve builds, so an armed budget interrupts the
/// solve within one solver check interval no matter which level it is on. An
/// interrupted solve returns [`OptOutcome::Budget`], carrying the incumbent model when
/// branch-and-bound had already proven one (graceful degradation).
///
/// The returned model is the descent's last incumbent and the core is the refuting
/// solver's failed-assumption set; no second solve re-derives either (see the module
/// docs on determinism).
#[allow(clippy::too_many_arguments)]
pub fn solve_optimal_assuming(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    assumptions: &[Lit],
    fixed: &[Lit],
    priority_floor: i64,
    retired: &mut Option<Solver>,
    cache: &mut ClauseCache,
    budget: Option<&Arc<SolveBudgetState>>,
) -> Result<OptOutcome, OptimizeError> {
    if ground.trivially_unsat {
        return Ok(OptOutcome::Unsat { core: Vec::new(), sat: SatStats::default() });
    }
    let levels: Vec<Level> =
        collect_levels(ground)?.into_iter().filter(|l| l.priority >= priority_floor).collect();
    let mut stats = RunStats::default();
    // Loop nogoods discovered by the stability check are shared across solver runs.
    let mut extra_clauses = ClauseArena::new();
    // One occurrence index serves every stability check of this solve.
    let mut stability = Stability {
        ground,
        checker: StabilityChecker::new(ground),
        debug: std::env::var("ASP_DEBUG").is_ok(),
    };

    // Initial model with no objective bounds. The solver stays live across levels: it
    // is only discarded when a level's final (UNSAT) bound poisons it, and only
    // rebuilt lazily when a later level actually needs another run — warm-started
    // from the session clause cache, the loop nogoods found so far, and the
    // incumbent's phases. Every objective literal starts phase-biased towards *false*
    // (clasp's optimization sign heuristic), so even the first model lands near the
    // cheap end of the search space and the per-level descents start close to the
    // optimum.
    let mut live =
        Some(build_solver(translation, config, fixed, &[], &extra_clauses, cache, budget));
    if let Some(solver) = live.as_mut() {
        for level in &levels {
            for &(l, _) in &level.lits {
                solver.set_phase(l.var(), !l.is_pos());
            }
        }
    }
    let mut best = {
        let solver = live.as_mut().expect("just built");
        match run_stable(solver, &mut stability, &mut extra_clauses, assumptions, &mut stats, cache)
        {
            StableOutcome::Model(m) => m,
            StableOutcome::Interrupted => {
                // The budget expired before even one stable model was found: there
                // is nothing to degrade to.
                stats.sat.absorb(&solver.stats);
                cache.harvest(solver);
                return Ok(OptOutcome::Budget { partial: None, sat: stats.sat });
            }
            StableOutcome::Unsat => {
                // The *unbounded* program is unsatisfiable under the assumptions: the
                // failed-assumption set is a genuine unsat core (later UNSATs merely
                // prove an objective bound optimal and carry no core).
                stats.sat.absorb(&solver.stats);
                cache.harvest(solver);
                let core = solver.failed_assumptions().to_vec();
                // Uninstall the budget so an adopter of the retired solver can never
                // observe a stale interrupt.
                solver.set_budget(None);
                *retired = live.take();
                return Ok(OptOutcome::Unsat { core, sat: stats.sat });
            }
        }
    };
    let mut best_costs = level_costs(&levels, &best);

    // Optimize level by level, highest priority first. `live_bounds[li]` is the index
    // of level `li`'s objective bound inside the live solver (if added), so repeated
    // descents tighten one constraint in place instead of stacking superseded copies.
    let mut fixed_bounds: Vec<LinearSpec> = Vec::new();
    let mut live_bounds: Vec<Option<usize>> = vec![None; levels.len()];
    for (li, level) in levels.iter().enumerate() {
        // First attempt per level is an *optimistic zero-probe*: most levels of a
        // lexicographic cascade optimize to zero, and proving "a zero-cost model
        // exists" in one run beats walking the bound down one unit per model. Only
        // when the probe fails (UNSAT — which poisons the solver exactly like a
        // final optimality proof would) does the level fall back to classic
        // one-step descents from the incumbent.
        let mut optimistic_failed = false;
        // The level's optimum is known to be strictly greater than this (a failed
        // probe is a lower-bound proof): reaching `proven_above + 1` is optimal
        // without paying a final UNSAT run.
        let mut proven_above: i64 = -1;
        loop {
            let current = best_costs[li];
            if stability.debug {
                eprintln!(
                    "[asp] level prio {} ({} lits): current cost {}",
                    level.priority,
                    level.lits.len(),
                    current
                );
            }
            if current == proven_above + 1 {
                break;
            }
            let solver = match live.as_mut() {
                Some(s) => s,
                None => {
                    // The previous run retired the solver (UNSAT bound). Rebuild with
                    // every frozen bound, the clause cache (which now carries the
                    // retired solver's provenance-safe learned clauses), and the
                    // loop nogoods, warm-started from the incumbent's phases.
                    let mut s = build_solver(
                        translation,
                        config,
                        fixed,
                        &fixed_bounds,
                        &extra_clauses,
                        cache,
                        budget,
                    );
                    for (v, &val) in best.iter().enumerate() {
                        s.set_phase(v as Var, val);
                    }
                    // The frozen non-zero bounds occupy the linear slots after the
                    // translation's, in level order; zero bounds became root-level
                    // unit clauses inside build_solver and need no slot.
                    live_bounds = vec![None; levels.len()];
                    let mut slot = translation.linears.len();
                    for (lj, b) in fixed_bounds.iter().enumerate() {
                        if b.upper == 0 {
                            live_bounds[lj] = Some(ZERO_BOUND);
                        } else {
                            live_bounds[lj] = Some(slot);
                            slot += 1;
                        }
                    }
                    live.insert(s)
                }
            };
            // Probe only when the incumbent is far from zero: at `current <= 2` a
            // classic descent reaches a zero-cost model just as fast when one exists,
            // and a failed probe would waste a full UNSAT proof (plus a solver
            // rebuild) on levels whose optimum is small but nonzero.
            let optimistic = !optimistic_failed && current > 2 && live_bounds[li].is_none();
            let bound = if optimistic { 0 } else { current - 1 };
            set_level_bound(solver, &mut live_bounds, li, level, bound);
            match run_stable(
                solver,
                &mut stability,
                &mut extra_clauses,
                assumptions,
                &mut stats,
                cache,
            ) {
                StableOutcome::Model(m) => {
                    best_costs = level_costs(&levels, &m);
                    best = m;
                }
                StableOutcome::Interrupted => {
                    // Budget expired mid-descent: degrade gracefully to the incumbent
                    // — a genuine stable model satisfying every bound proven so far,
                    // just not necessarily optimal.
                    stats.sat.absorb(&solver.stats);
                    cache.harvest(solver);
                    let sat = stats.sat.clone();
                    let partial = incumbent(&levels, &best_costs, best, stats);
                    return Ok(OptOutcome::Budget { partial: Some(Box::new(partial)), sat });
                }
                StableOutcome::Unsat => {
                    // The bound that failed poisons the solver either way, so retire
                    // it (a later run rebuilds on demand — its provenance-safe
                    // learned clauses live on through the cache). A failed one-step
                    // descent proves the level optimal; a failed zero-probe only
                    // proves the optimum is nonzero — fall back to classic descents.
                    stats.sat.absorb(&solver.stats);
                    cache.harvest(solver);
                    live = None;
                    if optimistic {
                        optimistic_failed = true;
                        proven_above = 0;
                        continue;
                    }
                    break;
                }
            }
        }
        // Freeze this level at its optimum for the remaining levels — and mirror the
        // frozen bound into the still-live solver (a pure tightening the incumbent
        // satisfies), keeping it interchangeable with a freshly built one.
        fixed_bounds.push(level_bound(level, best_costs[li]));
        if let Some(solver) = live.as_mut() {
            set_level_bound(solver, &mut live_bounds, li, level, best_costs[li]);
        }
    }
    if let Some(solver) = live.as_ref() {
        stats.sat.absorb(&solver.stats);
        cache.harvest(solver);
    }
    drop(live);
    Ok(OptOutcome::Optimal(incumbent(&levels, &best_costs, best, stats)))
}

/// Package the incumbent `model` with its per-level costs (`costs`, without the
/// levels' constant contributions) and the solve's counters.
fn incumbent(levels: &[Level], costs: &[i64], model: Vec<bool>, stats: RunStats) -> OptimalModel {
    let cost = levels.iter().zip(costs).map(|(l, &c)| (l.priority, c + l.base)).collect();
    OptimalModel {
        model,
        cost,
        models_examined: stats.models,
        solver_runs: stats.runs,
        conflicts: stats.sat.conflicts,
        loop_nogoods: stats.loop_nogoods,
        sat: stats.sat,
    }
}

/// Verdict of one [`StableProbe::check`] query.
#[derive(Debug, Clone)]
pub enum ProbeVerdict {
    /// A stable model exists under the assumptions.
    Stable,
    /// No stable model exists: carries the failed assumption subset (empty when the
    /// program is unsatisfiable without any assumption).
    Unsat(Vec<Lit>),
    /// The solve budget expired before the query reached a verdict. The probe stays
    /// reusable (once the budget is cleared), but the caller should stop probing.
    Interrupted,
}

/// A reusable stable-model satisfiability probe: one solver instance answers many
/// "is there a stable model under these assumptions?" queries. Assumptions are plain
/// decisions (undone by backtracking), so learned clauses and loop nogoods persist
/// across queries — this is what makes deletion-based core minimization affordable:
/// a core of size `k` costs `k` *incremental* probes, not `k` solver rebuilds.
pub struct StableProbe {
    solver: Solver,
    checker: StabilityChecker,
    trivially_unsat: bool,
    nogoods: u64,
}

impl StableProbe {
    /// Build the probe solver once from a grounded translation. `fixed` literals are
    /// asserted as root-level units — per-probe-session truths of `#external` guard
    /// atoms that parameterize the program but are never candidates for blame. The
    /// session `cache`'s clauses warm-start the probe.
    pub fn new(
        ground: &GroundProgram,
        translation: &Translation,
        config: &SatConfig,
        fixed: &[Lit],
        cache: &ClauseCache,
    ) -> Self {
        let solver =
            build_solver(translation, config, fixed, &[], &ClauseArena::new(), cache, None);
        Self::from_solver(ground, solver)
    }

    /// Adopt an existing solver as the probe — typically the retired solver of a
    /// failed [`solve_optimal_assuming`] initial run, whose clause database (with the
    /// same fixed `#external` units and every clause learned refuting the failed
    /// assumptions) is exactly the probe's starting point. Skips a full solver
    /// rebuild, and the learned clauses usually pay again during the probes.
    pub fn from_solver(ground: &GroundProgram, solver: Solver) -> Self {
        StableProbe {
            solver,
            checker: StabilityChecker::new(ground),
            trivially_unsat: ground.trivially_unsat,
            nogoods: 0,
        }
    }

    /// Install (or clear) a shared solve budget on the probe solver, bounding the
    /// total work of the remaining queries (deletion-based core minimization aborts
    /// gracefully on [`ProbeVerdict::Interrupted`], keeping its current core).
    pub fn set_budget(&mut self, budget: Option<Arc<SolveBudgetState>>) {
        self.solver.set_budget(budget);
    }

    /// Search for one stable model under `assumptions`. New loop nogoods flow into
    /// the session `cache`.
    pub fn check(
        &mut self,
        ground: &GroundProgram,
        assumptions: &[Lit],
        cache: &mut ClauseCache,
    ) -> ProbeVerdict {
        if self.trivially_unsat {
            return ProbeVerdict::Unsat(Vec::new());
        }
        loop {
            match self.solver.search_with_assumptions(assumptions) {
                SearchResult::Interrupted => {
                    return ProbeVerdict::Interrupted;
                }
                SearchResult::Unsat => {
                    return ProbeVerdict::Unsat(self.solver.failed_assumptions().to_vec());
                }
                SearchResult::Sat => {
                    let model = self.solver.model();
                    // Loop nogoods (with their external-support witnesses) hold in
                    // every stable model, so they stay valid for later queries too.
                    let Some(nogood) = self.checker.unfounded_nogood(ground, &model) else {
                        return ProbeVerdict::Stable;
                    };
                    self.nogoods += 1;
                    cache.add(&nogood);
                    if !self.solver.add_clause_safe(&nogood) {
                        return ProbeVerdict::Unsat(Vec::new());
                    }
                }
            }
        }
    }

    /// Aggregate low-level statistics of every query so far.
    pub fn stats(&self) -> &SatStats {
        &self.solver.stats
    }

    /// Collect the probe solver's provenance-safe learned clauses into the cache.
    pub fn harvest_into(&self, cache: &mut ClauseCache) {
        cache.harvest(&self.solver);
    }

    /// Loop nogoods added across all queries.
    pub fn loop_nogoods(&self) -> u64 {
        self.nogoods
    }
}

/// Enumerate stable models (without optimization), up to `limit`.
pub fn enumerate_models(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    limit: usize,
) -> Vec<Vec<bool>> {
    enumerate_models_with_stats(ground, translation, config, limit).0
}

/// [`enumerate_models`], additionally returning the solver's aggregate statistics and
/// the number of candidate models examined (including unstable ones rejected by the
/// stability check — the same meaning the counter has on the optimization path).
pub fn enumerate_models_with_stats(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    limit: usize,
) -> (Vec<Vec<bool>>, SatStats, u64) {
    let mut models = Vec::new();
    let mut examined = 0u64;
    if ground.trivially_unsat {
        return (models, SatStats::default(), examined);
    }
    let empty_cache = ClauseCache::default();
    let mut solver =
        build_solver(translation, config, &[], &[], &ClauseArena::new(), &empty_cache, None);
    let mut checker = StabilityChecker::new(ground);
    loop {
        if models.len() >= limit {
            break;
        }
        match solver.search() {
            SearchResult::Interrupted => {
                unreachable!("enumeration solvers never carry a budget")
            }
            SearchResult::Unsat => break,
            SearchResult::Sat => {
                examined += 1;
                let model = solver.model();
                if let Some(nogood) = checker.unfounded_nogood(ground, &model) {
                    if !solver.add_clause_safe(&nogood) {
                        break;
                    }
                } else {
                    models.push(model.clone());
                    // Block this model (projected on the program atoms).
                    let blocking: Vec<Lit> = (0..translation.num_atoms)
                        .map(|a| if model[a] { Lit::neg(a as Var) } else { Lit::pos(a as Var) })
                        .collect();
                    if !solver.add_blocking_clause(&blocking) {
                        break;
                    }
                }
            }
        }
    }
    let stats = solver.stats.clone();
    (models, stats, examined)
}

#[derive(Default)]
struct RunStats {
    runs: u64,
    models: u64,
    loop_nogoods: u64,
    sat: SatStats,
}

fn collect_levels(ground: &GroundProgram) -> Result<Vec<Level>, OptimizeError> {
    let mut by_priority: BTreeMap<i64, Level> = BTreeMap::new();
    for m in &ground.minimize {
        if m.weight < 0 {
            return Err(OptimizeError {
                message: "negative minimize weights are not supported".into(),
            });
        }
        let level = by_priority.entry(m.priority).or_insert_with(|| Level {
            priority: m.priority,
            lits: Vec::new(),
            base: 0,
        });
        match m.condition {
            None => level.base += m.weight,
            Some(atom) => level.lits.push((Lit::pos(atom as Var), m.weight as u64)),
        }
    }
    // Highest priority first.
    Ok(by_priority.into_values().rev().collect())
}

fn level_costs(levels: &[Level], model: &[bool]) -> Vec<i64> {
    levels
        .iter()
        .map(|level| {
            level
                .lits
                .iter()
                .filter(|(lit, _)| model[lit.var() as usize] == lit.is_pos())
                .map(|&(_, w)| w as i64)
                .sum()
        })
        .collect()
}

fn level_bound(level: &Level, bound: i64) -> LinearSpec {
    let (lits, weights): (Vec<Lit>, Vec<u64>) = level.lits.iter().copied().unzip();
    LinearSpec { condition: None, lits, weights, lower: 0, upper: bound.max(0) as u64 }
}

/// Sentinel "slot" marking a level bound imposed at zero: a zero upper bound over
/// positive weights just forces every weighted literal false, so it is asserted as
/// root-level unit clauses instead of a watched linear constraint — cheaper to
/// propagate, nothing to tighten later, and no heuristic focus needed. This is the
/// common shape for levels that are trivially optimal at zero (e.g. the guarded error
/// levels of a hard-mode concretizer solve).
const ZERO_BOUND: usize = usize::MAX;

/// Assert a zero bound as unit clauses: every literal with a positive weight must be
/// false. (A zero-weight literal contributes nothing to the sum and must stay free.)
fn pin_zero(solver: &mut Solver, lits: impl Iterator<Item = (Lit, u64)>) {
    for (l, w) in lits {
        if w > 0 && !solver.add_clause(&[l.negate()]) {
            break;
        }
    }
}

/// Impose (or tighten) a level's objective bound on the live solver. The first time a
/// level is bounded, a linear constraint is added and its literals are bumped and
/// phase-biased towards *false* (clasp's optimization sign heuristic) — otherwise
/// phase saving would keep steering the search back to the just-outlawed incumbent. Subsequent descents of the same level
/// tighten that constraint's upper bound in place, so the solver never accumulates
/// superseded bounds. A level first bounded at zero is pinned through unit clauses
/// instead (see [`ZERO_BOUND`]).
fn set_level_bound(
    solver: &mut Solver,
    live_bounds: &mut [Option<usize>],
    li: usize,
    level: &Level,
    bound: i64,
) {
    let upper = bound.max(0) as u64;
    if live_bounds[li] == Some(ZERO_BOUND) {
        return; // already pinned at zero — no tighter bound exists
    }
    if live_bounds[li].is_none() && upper == 0 {
        pin_zero(solver, level.lits.iter().copied());
        live_bounds[li] = Some(ZERO_BOUND);
        return;
    }
    // Re-focus the heuristic on the objective at every descent, not only the first:
    // the activity bump and the false-bias refresh are what steer the next search
    // towards cheaper models once phase saving has locked onto the incumbent.
    for &(l, _) in &level.lits {
        solver.bump_variable(l.var(), 0.5);
        solver.set_phase(l.var(), !l.is_pos());
    }
    if let Some(idx) = live_bounds[li] {
        solver.tighten_linear_upper(idx, upper);
        return;
    }
    live_bounds[li] = Some(solver.num_linears());
    solver.add_linear(level_bound(level, bound));
}

/// Build a solver over the translation, the per-solve `fixed` units, the session
/// `cache`, the loop nogoods in `extra_clauses` and the frozen objective `bounds`, with
/// the shared solve `budget` (when one is set) installed.
fn build_solver(
    translation: &Translation,
    config: &SatConfig,
    fixed: &[Lit],
    bounds: &[LinearSpec],
    extra_clauses: &ClauseArena,
    cache: &ClauseCache,
    budget: Option<&Arc<SolveBudgetState>>,
) -> Solver {
    let mut solver = Solver::new(translation.num_vars, config.clone());
    solver.set_budget(budget.cloned());
    // Program content is provenance-safe; per-solve artifacts (external units,
    // objective bounds) are not — the distinction is what lets learned clauses be
    // exported back into the session cache. The translation (canonicalized once in
    // `translate`) and the session cache (canonicalized on insert) both honour the
    // trusted contract, so every rebuild ingests them on the validation-free bulk
    // path instead of re-sorting and re-checking each clause.
    solver.load_trusted_clauses(translation.clauses.iter(), true);
    // Per-solve truths of `#external` guard atoms, as root-level units.
    for &l in fixed {
        if !solver.add_clause(&[l]) {
            break;
        }
    }
    for lin in &translation.linears {
        solver.add_linear_safe(lin.clone());
    }
    // Session cache: loop nogoods and safe learned clauses from earlier solves on
    // this grounding.
    solver.load_trusted_clauses(cache.clauses().iter(), true);
    for clause in extra_clauses.iter() {
        if !solver.add_clause_safe(clause) {
            break;
        }
    }
    for b in bounds {
        if b.upper == 0 {
            // A frozen zero bound forces every weighted literal false: root-level
            // unit clauses propagate this far more cheaply than a watched linear
            // constraint, and the heuristic has nothing to decide about them.
            pin_zero(&mut solver, b.lits.iter().copied().zip(b.weights.iter().copied()));
            continue;
        }
        solver.add_linear(b.clone());
        // Focus the heuristic on objective literals early.
        for &l in &b.lits {
            solver.bump_variable(l.var(), 0.5);
        }
    }
    solver
}

/// What every stable-model run of one solve shares: the ground program, its
/// stability checker (an occurrence index plus per-call scratch, built once per
/// solve), and whether `ASP_DEBUG` progress tracing is on.
struct Stability<'a> {
    ground: &'a GroundProgram,
    checker: StabilityChecker,
    debug: bool,
}

/// Outcome of driving a solver to the next stable model ([`run_stable`]).
enum StableOutcome {
    /// The next stable model under the solver's current bounds.
    Model(Vec<bool>),
    /// No stable model exists under the current bounds and assumptions.
    Unsat,
    /// The solve budget expired before a verdict.
    Interrupted,
}

/// Drive a live solver to the next *stable* model (adding loop nogoods for unstable
/// supported models along the way), or [`StableOutcome::Unsat`] when none exists under
/// the solver's current bounds. The solver keeps all state between calls; aggregate
/// statistics are absorbed by the caller when the solver is retired.
fn run_stable(
    solver: &mut Solver,
    stability: &mut Stability,
    extra_clauses: &mut ClauseArena,
    assumptions: &[Lit],
    stats: &mut RunStats,
    cache: &mut ClauseCache,
) -> StableOutcome {
    stats.runs += 1;
    loop {
        match solver.search_with_assumptions(assumptions) {
            SearchResult::Unsat => return StableOutcome::Unsat,
            SearchResult::Interrupted => return StableOutcome::Interrupted,
            SearchResult::Sat => {
                let model = solver.model();
                stats.models += 1;
                // Loop nogood: at least one unfounded atom must be false, or one of
                // the set's external supports must come true. It is a consequence of
                // the program (not of the bounds), so it persists and is replayed
                // into every future solver.
                let Some(nogood) = stability.checker.unfounded_nogood(stability.ground, &model)
                else {
                    return StableOutcome::Model(model);
                };
                stats.loop_nogoods += 1;
                if stability.debug && stats.loop_nogoods.is_multiple_of(50) {
                    eprintln!(
                        "[asp] {} loop nogoods so far (clause size {})",
                        stats.loop_nogoods,
                        nogood.len()
                    );
                }
                extra_clauses.push(&nogood);
                cache.add(&nogood);
                if !solver.add_clause_safe(&nogood) {
                    return StableOutcome::Unsat;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parser::parse_program;
    use crate::symbols::SymbolTable;
    use crate::translate::translate;

    fn setup(text: &str) -> (GroundProgram, Translation, SymbolTable) {
        let program = parse_program(text).unwrap();
        let mut symbols = SymbolTable::new();
        let ground = Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
        let translation = translate(&ground);
        (ground, translation, symbols)
    }

    fn true_atoms(ground: &GroundProgram, symbols: &SymbolTable, model: &[bool]) -> Vec<String> {
        ground
            .atoms
            .iter()
            .filter(|(id, _)| model[*id as usize])
            .map(|(_, a)| a.display(symbols).to_string())
            .collect()
    }

    #[test]
    fn fig3_has_exactly_two_stable_models() {
        let (ground, translation, symbols) = setup(
            r#"
            depends_on(a, b).
            depends_on(a, c).
            depends_on(b, d).
            depends_on(c, d).
            node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
            1 { node(a); node(b) }.
            "#,
        );
        let models = enumerate_models(&ground, &translation, &SatConfig::default(), 16);
        // Answer 1: node(b), node(d). Answer 2: node(a), node(b), node(c), node(d) —
        // and also the model where only node(a) is chosen, which derives b, c, d and is
        // identical to answer 2 as a set of atoms. Distinct atom sets: exactly 2.
        let mut sets: Vec<Vec<String>> = models
            .iter()
            .map(|m| {
                let mut v: Vec<String> = true_atoms(&ground, &symbols, m)
                    .into_iter()
                    .filter(|a| a.starts_with("node("))
                    .collect();
                v.sort();
                v
            })
            .collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 2, "{sets:?}");
        assert!(sets.contains(&vec!["node(b)".to_string(), "node(d)".to_string()]));
        assert!(sets.contains(&vec![
            "node(a)".to_string(),
            "node(b)".to_string(),
            "node(c)".to_string(),
            "node(d)".to_string()
        ]));
    }

    #[test]
    fn optimization_prefers_lower_weights() {
        let (ground, translation, symbols) = setup(
            r#"
            node(p).
            possible_version(p, v_new, 0).
            possible_version(p, v_old, 1).
            1 { version(P, V) : possible_version(P, V, W) } 1 :- node(P).
            version_weight(P, V, W) :- version(P, V), possible_version(P, V, W).
            #minimize{ W@3,P,V : version_weight(P, V, W) }.
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        let atoms = true_atoms(&ground, &symbols, &result.model);
        assert!(atoms.contains(&"version(p,v_new)".to_string()), "{atoms:?}");
        assert_eq!(result.cost, vec![(3, 0)]);
    }

    #[test]
    fn lexicographic_priorities_are_respected() {
        // Two choices: a cheap option on the low-priority criterion conflicts with the
        // cheap option on the high-priority criterion. The high-priority one must win.
        let (ground, translation, symbols) = setup(
            r#"
            1 { pick(x); pick(y) } 1.
            high_cost(x, 0). high_cost(y, 5).
            low_cost(x, 7).  low_cost(y, 0).
            high(P, W) :- pick(P), high_cost(P, W).
            low(P, W) :- pick(P), low_cost(P, W).
            #minimize{ W@10,P : high(P, W) }.
            #minimize{ W@1,P : low(P, W) }.
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        let atoms = true_atoms(&ground, &symbols, &result.model);
        assert!(atoms.contains(&"pick(x)".to_string()));
        assert_eq!(result.cost, vec![(10, 0), (1, 7)]);
    }

    #[test]
    fn unstable_supported_models_are_rejected() {
        // p and q support each other; the only stable model is empty, so r (which needs
        // p) must be false, and minimizing not_r cannot pretend otherwise.
        let (ground, translation, symbols) = setup(
            r#"
            base(1).
            p :- q.
            q :- p.
            r :- p.
            "#,
        );
        let models = enumerate_models(&ground, &translation, &SatConfig::default(), 8);
        assert_eq!(models.len(), 1);
        let atoms = true_atoms(&ground, &symbols, &models[0]);
        assert_eq!(atoms, vec!["base(1)".to_string()]);
    }

    #[test]
    fn unsat_program_returns_none() {
        let (ground, translation, _symbols) = setup(
            r#"
            p(a).
            :- p(a).
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default()).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn constant_minimize_contributions_are_reported() {
        let (ground, translation, _symbols) = setup(
            r#"
            always(a).
            #minimize{ 4@2,a : always(a) }.
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        assert_eq!(result.cost, vec![(2, 4)]);
    }
}
