//! Lexicographic multi-objective optimization over stable models.
//!
//! The paper relies on clasp's optimization to select the single best answer set under
//! Spack's 15+ prioritized criteria (Table II, Fig. 5). This module implements the
//! model-guided branch-and-bound strategy (clasp's `bb`): find a stable model, then
//! repeatedly demand a strictly better objective value at the highest not-yet-optimal
//! priority level (by adding a weighted-sum upper bound), level by level in decreasing
//! priority, until the optimum is proved for every level.
//!
//! # One solver per solve
//!
//! Like clasp, the whole descent runs on one solver. A level's bound is a linear
//! constraint under a fresh *guard* literal that each run assumes after the request's
//! assumptions, so a refuted bound (a failed zero-probe, or the proof that a level is
//! optimal) shows up as the guard in the failed-assumption set instead of poisoning the
//! solver: the unit `¬guard` retires the bound, and every learned clause, loop nogood,
//! saved phase and activity score carries on into the next run.
//!
//! # Determinism
//!
//! Every solve starts from a fresh solver and shares nothing with other solves, so the
//! search is a fixed function of the translation, the solver configuration, the fixed
//! externals and the assumptions. The returned **model** is the descent's last
//! incumbent, the **cost vector** is its lexicographic optimum, and an **unsat core**
//! is the failed-assumption set of the initial run. Equal inputs give byte-identical
//! answers.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ground::GroundProgram;
use crate::sat::{
    LinearSpec, Lit, SatConfig, SatStats, SearchResult, SolveBudgetState, Solver, Var,
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
pub fn solve_optimal(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
) -> Result<Option<OptimalModel>, OptimizeError> {
    let mut retired = None;
    match solve_optimal_assuming(
        ground,
        translation,
        config,
        &[],
        &[],
        i64::MIN,
        &mut retired,
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
/// `fixed` literals are asserted as root-level unit clauses in the solver — the
/// realization of clingo's `assign_external`: an `#external` guard's per-solve truth
/// propagates once at the root instead of being re-decided (and its consequences
/// re-propagated) on every run of the optimization. Fixed literals never appear in
/// unsat cores; the solver does not outlive the solve, so the units leak into nothing.
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
/// `budget` is an optional shared solve budget (see [`SolveBudgetState`]), installed
/// into the solver, so an armed budget interrupts the solve within one solver check
/// interval no matter which level it is on. An interrupted solve returns
/// [`OptOutcome::Budget`], carrying the incumbent model when branch-and-bound had
/// already proven one (graceful degradation).
///
/// The whole descent runs on one solver (see the module docs); the returned model is
/// its last incumbent and the core is the initial run's failed-assumption set.
#[allow(clippy::too_many_arguments)]
pub fn solve_optimal_assuming(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    assumptions: &[Lit],
    fixed: &[Lit],
    priority_floor: i64,
    retired: &mut Option<Solver>,
    budget: Option<&Arc<SolveBudgetState>>,
) -> Result<OptOutcome, OptimizeError> {
    if ground.trivially_unsat {
        return Ok(OptOutcome::Unsat { core: Vec::new(), sat: SatStats::default() });
    }
    let levels: Vec<Level> =
        collect_levels(ground)?.into_iter().filter(|l| l.priority >= priority_floor).collect();
    let mut stats = RunStats::default();
    // One occurrence index serves every stability check of this solve.
    let mut stability =
        Stability { ground, checker: StabilityChecker::new(ground), vars: translation.num_vars };

    let mut solver = build_solver(translation, config, fixed, budget);
    // A level spends at most two guards: one on a failed zero-probe, one on its descent.
    solver.reserve_vars(2 * levels.len());
    // Every objective literal starts phase-biased towards *false* (clasp's optimization
    // sign heuristic), so even the first model lands near the cheap end of the search
    // space and the per-level descents start close to the optimum.
    for level in &levels {
        for &(l, _) in &level.lits {
            solver.set_phase(l.var(), !l.is_pos());
        }
    }
    // The request's assumptions, followed by the live bound's guard during a descent.
    let mut assumed = assumptions.to_vec();
    let mut best = match run_stable(&mut solver, &mut stability, &assumed, &mut stats) {
        StableOutcome::Model(m) => m,
        StableOutcome::Interrupted => {
            // The budget expired before even one stable model was found: there is
            // nothing to degrade to.
            stats.sat.absorb(&solver.stats);
            return Ok(OptOutcome::Budget { partial: None, sat: stats.sat });
        }
        StableOutcome::Unsat => {
            // The *unbounded* program is unsatisfiable under the assumptions: the
            // failed-assumption set is a genuine unsat core (later UNSATs merely refute
            // an objective bound and carry only its guard).
            stats.sat.absorb(&solver.stats);
            let core = solver.failed_assumptions().to_vec();
            // Uninstall the budget so an adopter of the retired solver can never
            // observe a stale interrupt.
            solver.set_budget(None);
            *retired = Some(solver);
            return Ok(OptOutcome::Unsat { core, sat: stats.sat });
        }
    };
    let mut best_costs = level_costs(&levels, &best);

    // Optimize level by level, highest priority first.
    for (li, level) in levels.iter().enumerate() {
        // The level's live guarded bound, tightened in place by repeated descents.
        let mut bound: Option<GuardedBound> = None;
        // First attempt per level is an *optimistic zero-probe*: most levels of a
        // lexicographic cascade optimize to zero, and proving "a zero-cost model
        // exists" in one run beats walking the bound down one unit per model. Only
        // when the probe fails does the level fall back to classic one-step descents
        // from the incumbent.
        let mut optimistic_failed = false;
        // The level's optimum is known to be strictly greater than this (a failed
        // probe is a lower-bound proof): reaching `proven_above + 1` is optimal
        // without paying a final UNSAT run.
        let mut proven_above: i64 = -1;
        loop {
            let current = best_costs[li];
            if current == proven_above + 1 {
                break;
            }
            // Probe only when the incumbent is far from zero: at `current <= 2` a
            // classic descent reaches a zero-cost model just as fast when one exists,
            // and a failed probe would waste a full UNSAT proof on levels whose
            // optimum is small but nonzero.
            let optimistic = !optimistic_failed && current > 2 && bound.is_none();
            let upper = if optimistic { 0 } else { current - 1 };
            let guard = bound_level(&mut solver, &mut bound, level, upper);
            assumed.push(guard);
            let outcome = run_stable(&mut solver, &mut stability, &assumed, &mut stats);
            assumed.pop();
            match outcome {
                StableOutcome::Model(m) => {
                    best_costs = level_costs(&levels, &m);
                    best = m;
                }
                StableOutcome::Interrupted => {
                    // Budget expired mid-descent: degrade gracefully to the incumbent
                    // — a genuine stable model satisfying every bound proven so far,
                    // just not necessarily optimal.
                    stats.sat.absorb(&solver.stats);
                    let sat = stats.sat.clone();
                    let partial = incumbent(&levels, &best_costs, best, stats);
                    return Ok(OptOutcome::Budget { partial: Some(Box::new(partial)), sat });
                }
                StableOutcome::Unsat => {
                    // The program has a model under the assumptions (the incumbent),
                    // so the refuted bound's guard is to blame: retire it and keep
                    // the solver. A failed one-step descent proves the level optimal;
                    // a failed zero-probe only proves the optimum is nonzero — fall
                    // back to classic descents.
                    debug_assert!(solver.failed_assumptions().contains(&guard));
                    solver.add_clause(&[guard.negate()]);
                    bound = None;
                    if optimistic {
                        optimistic_failed = true;
                        proven_above = 0;
                        continue;
                    }
                    break;
                }
            }
        }
        // Freeze this level at its optimum for the remaining levels (a pure tightening
        // the incumbent satisfies): a live guarded bound is tightened to the optimum,
        // a no-op when it already sits there, and its guard asserted; otherwise the
        // final bound is added unguarded, or as units when the optimum is zero.
        let optimum = best_costs[li];
        match bound {
            Some(GuardedBound { guard, linear }) => {
                solver.tighten_linear_upper(linear, optimum as u64);
                solver.add_clause(&[guard]);
            }
            None if optimum == 0 => pin_zero(&mut solver, level),
            None => solver.add_linear(level_bound(level, None, optimum)),
        }
    }
    stats.sat.absorb(&solver.stats);
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
}

impl StableProbe {
    /// Build the probe solver once from a grounded translation. `fixed` literals are
    /// asserted as root-level units — per-probe-session truths of `#external` guard
    /// atoms that parameterize the program but are never candidates for blame.
    pub fn new(
        ground: &GroundProgram,
        translation: &Translation,
        config: &SatConfig,
        fixed: &[Lit],
    ) -> Self {
        Self::from_solver(ground, build_solver(translation, config, fixed, None))
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
        }
    }

    /// Install (or clear) a shared solve budget on the probe solver, bounding the
    /// total work of the remaining queries (deletion-based core minimization aborts
    /// gracefully on [`ProbeVerdict::Interrupted`], keeping its current core).
    pub fn set_budget(&mut self, budget: Option<Arc<SolveBudgetState>>) {
        self.solver.set_budget(budget);
    }

    /// Search for one stable model under `assumptions`.
    pub fn check(&mut self, ground: &GroundProgram, assumptions: &[Lit]) -> ProbeVerdict {
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
                    if !self.solver.add_clause(&nogood) {
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
    let mut solver = build_solver(translation, config, &[], None);
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
                    if !solver.add_clause(&nogood) {
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

/// The level's objective as a linear constraint `sum <= bound`, active under `condition`.
fn level_bound(level: &Level, condition: Option<Lit>, bound: i64) -> LinearSpec {
    let (lits, weights): (Vec<Lit>, Vec<u64>) = level.lits.iter().copied().unzip();
    LinearSpec { condition, lits, weights, lower: 0, upper: bound.max(0) as u64 }
}

/// Freeze a level at zero: every literal with a positive weight must be false, asserted
/// as root-level unit clauses, which propagate more cheaply than a watched linear
/// constraint. (A zero-weight literal contributes nothing to the sum and stays free.)
fn pin_zero(solver: &mut Solver, level: &Level) {
    for &(l, w) in &level.lits {
        if w > 0 && !solver.add_clause(&[l.negate()]) {
            break;
        }
    }
}

/// A level's objective bound under a guard literal that the runs assume, so that a
/// refutation retires the guard instead of poisoning the solver.
struct GuardedBound {
    guard: Lit,
    /// The bound's index among the solver's linear constraints.
    linear: usize,
}

/// Impose (or tighten) a level's objective bound and return the guard to assume. The
/// first bound of a level (and the first after a retired one) is added under a fresh
/// guard variable; later descents tighten it in place instead of stacking superseded
/// copies. Every descent also bumps the level's literals and re-biases them
/// towards *false* (clasp's optimization sign heuristic) — otherwise phase saving
/// would keep steering the search back to the just-outlawed incumbent.
fn bound_level(
    solver: &mut Solver,
    bound: &mut Option<GuardedBound>,
    level: &Level,
    upper: i64,
) -> Lit {
    for &(l, _) in &level.lits {
        solver.bump_variable(l.var(), 0.5);
        solver.set_phase(l.var(), !l.is_pos());
    }
    match bound {
        Some(b) => {
            solver.tighten_linear_upper(b.linear, upper.max(0) as u64);
            b.guard
        }
        None => {
            let guard = Lit::pos(solver.new_var());
            let linear = solver.num_linears();
            solver.add_linear(level_bound(level, Some(guard), upper));
            *bound = Some(GuardedBound { guard, linear });
            guard
        }
    }
}

/// Build a solver over the translation and the per-solve `fixed` units, with the
/// shared solve `budget` (when one is set) installed.
fn build_solver(
    translation: &Translation,
    config: &SatConfig,
    fixed: &[Lit],
    budget: Option<&Arc<SolveBudgetState>>,
) -> Solver {
    let mut solver = Solver::new(translation.num_vars, config.clone());
    solver.set_budget(budget.cloned());
    // The translation's clauses are canonicalized once in `translate`, so they take
    // the validation-free bulk path instead of re-sorting and re-checking each clause.
    solver.load_trusted_clauses(translation.clauses.iter());
    // Per-solve truths of `#external` guard atoms, as root-level units.
    for &l in fixed {
        if !solver.add_clause(&[l]) {
            break;
        }
    }
    for lin in &translation.linears {
        solver.add_linear(lin.clone());
    }
    solver
}

/// What every stable-model run of one solve shares: the ground program, its
/// stability checker (an occurrence index plus per-call scratch, built once per
/// solve), and the number of translation variables (a model's length; the guard
/// variables after them are not part of it).
struct Stability<'a> {
    ground: &'a GroundProgram,
    checker: StabilityChecker,
    vars: usize,
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

/// Drive the solver to the next *stable* model (adding loop nogoods for unstable
/// supported models along the way), or [`StableOutcome::Unsat`] when none exists under
/// the solver's current bounds. The solver keeps all state between calls; aggregate
/// statistics are absorbed by the caller when the solve ends.
fn run_stable(
    solver: &mut Solver,
    stability: &mut Stability,
    assumptions: &[Lit],
    stats: &mut RunStats,
) -> StableOutcome {
    stats.runs += 1;
    loop {
        match solver.search_with_assumptions(assumptions) {
            SearchResult::Unsat => return StableOutcome::Unsat,
            SearchResult::Interrupted => return StableOutcome::Interrupted,
            SearchResult::Sat => {
                let mut model = solver.model();
                model.truncate(stability.vars);
                stats.models += 1;
                // Loop nogood: at least one unfounded atom must be false, or one of
                // the set's external supports must come true. It is a consequence of
                // the program (not of the bounds), so it holds for every later run.
                let Some(nogood) = stability.checker.unfounded_nogood(stability.ground, &model)
                else {
                    return StableOutcome::Model(model);
                };
                stats.loop_nogoods += 1;
                if !solver.add_clause(&nogood) {
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

    /// Solve `text` and return its objective vector and the number of models examined.
    fn optimum(text: &str) -> (Vec<(i64, i64)>, u64) {
        let (ground, translation, _symbols) = setup(text);
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        (result.cost, result.models_examined)
    }

    /// Choosing `r(X)` is paid for at one level, leaving it out (`s(X)`) at another.
    const TRADE_OFF: &str = "p(a). p(b). p(c). p(d). { r(X) : p(X) }. s(X) :- p(X), not r(X).";

    #[test]
    fn descent_to_zero_freezes_the_live_guarded_bound() {
        // The first model pays r at the top level. The zero-probe finds r = 0 under its
        // guard, and freezing that guard must keep r at 0 while the level below pays.
        let (cost, models) = optimum(&format!(
            "{TRADE_OFF} #minimize{{ 1@2,X : r(X) }}. #minimize{{ 1@1,X : s(X) }}."
        ));
        assert_eq!(cost, vec![(2, 0), (1, 4)]);
        assert!(models >= 2, "the top level must improve on the first model");
    }

    #[test]
    fn failed_zero_probe_falls_back_to_descents_on_the_same_solver() {
        // r(a) or r(b) must hold, so the top level's zero-probe is refuted; the level
        // then descends to its optimum (reached at the proven floor of 1 with weight 1,
        // proved by a refuted one-step descent with weight 2), and the level below
        // pays for every r left out.
        for (weight, top) in [(1, 1), (2, 2)] {
            let (cost, models) = optimum(&format!(
                "{TRADE_OFF} :- s(a), s(b). #minimize{{ {weight}@2,X : r(X) }}. \
                 #minimize{{ 1@1,X : s(X) }}."
            ));
            assert_eq!(cost, vec![(2, top), (1, 3)], "weight {weight}");
            assert!(models >= 2, "weight {weight}: the top level must improve on the first model");
        }
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
