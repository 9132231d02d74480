//! A CDCL SAT solver with native cardinality / weighted-sum constraints.
//!
//! This is the `clasp` analogue of the reproduction: the search algorithm follows the
//! DPLL lineage with the modern extensions the paper names (Section IV-E) — watched
//! literals, conflict-driven clause learning with 1-UIP learning, activity-based (VSIDS)
//! decision heuristics, phase saving, Luby restarts, and activity-driven deletion of
//! learned clauses. In addition to clauses, the solver propagates *linear constraints*
//! (weighted sums of literals with lower/upper bounds, optionally guarded by a condition
//! literal), which implement choice-rule cardinality bounds and the objective bounds
//! used during optimization.
//!
//! # Propagation invariants (the hot path)
//!
//! Nothing on the propagate/assign/unassign path clones clause bodies or occurrence
//! lists:
//!
//! * Conflicts are reported as `Conflict` — a clause *index* (resolved lazily during
//!   analysis) or the literal list a linear constraint materialises anyway.
//! * Every linear constraint maintains two counters, `sum_true` (weight of counted
//!   literals currently true) and `sum_false` (weight currently false). They are
//!   updated **incrementally**: each variable's occurrence list (`LinOcc`) stores the
//!   constraint index *and the slot* of the counted literal, so `enqueue`/`unassign`
//!   adjust exactly the affected counters in O(occurrences) — no per-assignment rescan
//!   of the constraint's literal list. Guard (condition) occurrences use a sentinel
//!   slot and never touch the counters.
//! * The invariant maintained is: after `propagate` returns without conflict, for every
//!   linear with an active guard, `sum_true ≤ upper` and `total − sum_false ≥ lower`,
//!   and no unassigned counted literal could violate either bound by itself.
//! * Conflict analysis reuses persistent buffers (`analyze_buf`, `seen`) instead of
//!   allocating per resolution step.

//!
//! # Clause provenance ("root-safe" learning)
//!
//! Every clause and linear constraint carries a *safe* bit: safe means "a consequence
//! of the program being solved" (translation clauses, loop nogoods), unsafe means
//! "true only for this particular solve" (per-solve `#external` units, objective
//! bounds, model-blocking clauses). Conflict analysis propagates the bit — a learned
//! clause is safe exactly when every antecedent resolved into it (including the
//! level-0 assignments it absorbed) is safe — so [`Solver::safe_learned_clauses`]
//! yields clauses that hold in *every* solve of the same translation. A
//! [`ClauseCache`] collects them (plus loop nogoods) across the solves of one
//! grounding and replays them into each newly built solver: later solves warm-start
//! from everything the earlier ones learned about the program itself.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::hasher::FxHashSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A propositional variable (0-based).
pub type Var = u32;

/// A literal: a variable with a sign. Internally `2*var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The variable of this literal.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Is this the positive literal?
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "~x{}", self.var())
        }
    }
}

/// A flat clause store: every clause's literals live back to back in one `Vec<Lit>`,
/// and clause `i` is `lits[offsets[i]..offsets[i + 1]]`.
///
/// Building, cloning and dropping a store of `n` clauses costs a few large
/// allocations instead of `n` small ones, which is what makes per-level solver
/// rebuilds, clause-cache replays and solver teardown cheap. Clauses are
/// addressed by their insertion index and read as `&[Lit]` / `&mut [Lit]`.
#[derive(Clone, PartialEq, Eq)]
pub struct ClauseArena {
    lits: Vec<Lit>,
    /// `offsets[i]` is where clause `i` starts; the last entry is where the next
    /// clause will start. Never empty.
    offsets: Vec<u32>,
}

impl Default for ClauseArena {
    fn default() -> Self {
        ClauseArena::new()
    }
}

impl fmt::Debug for ClauseArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl ClauseArena {
    /// An empty arena.
    pub fn new() -> Self {
        ClauseArena { lits: Vec::new(), offsets: vec![0] }
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the arena holds no clause.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of literals over all clauses.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Append a clause as given; returns its index.
    pub(crate) fn push(&mut self, clause: &[Lit]) -> usize {
        self.lits.extend_from_slice(clause);
        self.seal()
    }

    /// Append a clause in canonical form — literals sorted and deduplicated — and
    /// return its index, or store nothing and return `None` when the clause is a
    /// tautology (it holds a literal and its negation). Canonical clauses qualify for
    /// [`Solver::load_trusted_clauses`].
    pub(crate) fn push_canonical(&mut self, lits: impl IntoIterator<Item = Lit>) -> Option<usize> {
        let start = self.lits.len();
        self.lits.extend(lits);
        let tail = &mut self.lits[start..];
        tail.sort_unstable();
        // In-place dedup of the sorted tail.
        let mut kept = 0;
        for i in 0..tail.len() {
            if i == 0 || tail[i] != tail[kept - 1] {
                tail[kept] = tail[i];
                kept += 1;
            }
        }
        // The two literals of a variable sort adjacently.
        if tail[..kept].windows(2).any(|w| w[0] == w[1].negate()) {
            self.lits.truncate(start);
            return None;
        }
        self.lits.truncate(start + kept);
        Some(self.seal())
    }

    /// Append one literal to the open clause: the literals pushed since the last
    /// clause was sealed, invisible to indexing and iteration until [`Self::seal`].
    fn push_open(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// The open clause.
    fn open(&self) -> &[Lit] {
        &self.lits[*self.offsets.last().expect("never empty") as usize..]
    }

    /// Drop the open clause.
    fn discard_open(&mut self) {
        self.lits.truncate(*self.offsets.last().expect("never empty") as usize);
    }

    /// Close the open clause as a new clause; returns its index.
    fn seal(&mut self) -> usize {
        let end = u32::try_from(self.lits.len()).expect("a clause arena holds < 2^32 literals");
        self.offsets.push(end);
        self.len() - 1
    }

    /// Keep only the first `len` clauses.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.offsets.truncate(len + 1);
            self.lits.truncate(self.offsets[len] as usize);
        }
    }

    /// Iterate over the clauses in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        self.offsets.windows(2).map(|w| &self.lits[w[0] as usize..w[1] as usize])
    }

    /// Keep exactly the clauses for which `keep(index, clause)` holds, compacting the
    /// literals in place; kept clauses keep their relative order, so the `k`-th kept
    /// clause gets index `k`.
    pub(crate) fn retain_indexed(&mut self, mut keep: impl FnMut(usize, &[Lit]) -> bool) {
        let n = self.len();
        let mut written = 0;
        let mut write_lit = 0;
        let mut start = 0;
        for i in 0..n {
            // `offsets[i + 1]` is read before any write can reach it: writes go to
            // `offsets[written + 1]` with `written <= i`.
            let end = self.offsets[i + 1] as usize;
            if keep(i, &self.lits[start..end]) {
                self.lits.copy_within(start..end, write_lit);
                write_lit += end - start;
                written += 1;
                self.offsets[written] = write_lit as u32;
            }
            start = end;
        }
        self.offsets.truncate(written + 1);
        self.lits.truncate(write_lit);
    }
}

impl std::ops::Index<usize> for ClauseArena {
    type Output = [Lit];

    fn index(&self, i: usize) -> &[Lit] {
        &self.lits[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl std::ops::IndexMut<usize> for ClauseArena {
    fn index_mut(&mut self, i: usize) -> &mut [Lit] {
        &mut self.lits[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Truth value of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Unassigned,
    True,
    False,
}

/// Why a literal was assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A decision (no reason).
    Decision,
    /// Unit propagation from a clause.
    Clause(usize),
    /// Propagation from a linear constraint; the explicit reason clause is stored.
    Stored(usize),
}

/// Result of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchResult {
    /// A satisfying assignment was found.
    Sat,
    /// The formula (with all added clauses/constraints) is unsatisfiable.
    Unsat,
    /// The solver's [`SolveBudgetState`] expired (wall deadline passed or conflict
    /// limit crossed) before the search reached a verdict. The solver remains
    /// reusable — the partial assignment is undone by the next operation — but every
    /// further search returns `Interrupted` until the budget is cleared.
    Interrupted,
}

/// Shared budget accounting for one logical solve: every solver that one
/// `Control::solve*` call builds (the initial run and each per-level rebuild of the
/// descent) points at the same instance. It is the only source of
/// [`SearchResult::Interrupted`]. The search loop checks it once per
/// propagation/conflict round, so an expired budget is observed within one round —
/// the "one solver check interval" of the deadline contract.
///
/// The wall-deadline half lives outside this type: a monitor thread owned by the
/// caller calls [`SolveBudgetState::arm`] when the deadline passes. The conflict
/// half is counted here, by every solver of the solve, into one shared counter — the
/// limit bounds the *total* conflict work of the solve, not per-solver effort.
#[derive(Debug, Default)]
pub struct SolveBudgetState {
    expired: AtomicBool,
    conflicts: AtomicU64,
    /// Total conflict ceiling; `u64::MAX` means no conflict limit.
    conflict_limit: u64,
}

impl SolveBudgetState {
    /// A budget with an optional total-conflict ceiling (`None` = unlimited).
    pub fn new(conflict_limit: Option<u64>) -> Self {
        SolveBudgetState {
            expired: AtomicBool::new(false),
            conflicts: AtomicU64::new(0),
            conflict_limit: conflict_limit.unwrap_or(u64::MAX),
        }
    }

    /// Mark the budget as spent; every solver sharing it returns
    /// [`SearchResult::Interrupted`] at its next check.
    pub fn arm(&self) {
        self.expired.store(true, Ordering::SeqCst);
    }

    /// Has the budget expired (deadline passed or conflict limit crossed)?
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }

    /// Record one conflict; arms the budget once the shared total crosses the limit.
    fn note_conflict(&self) {
        let seen = self.conflicts.fetch_add(1, Ordering::Relaxed) + 1;
        if seen >= self.conflict_limit {
            self.arm();
        }
    }

    /// Total conflicts recorded against this budget so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }
}

/// A conflict found during propagation. Clause conflicts are passed by *index* so the
/// hot path never clones a clause body; linear-constraint conflicts carry the literal
/// list their explanation materialises anyway.
#[derive(Debug)]
enum Conflict {
    /// The clause at this index is falsified.
    Clause(usize),
    /// An explicit list of (currently false) literals, with the provenance-safety of
    /// the linear constraint that produced it.
    Lits(Vec<Lit>, bool),
}

/// One occurrence of a variable inside a linear constraint: the constraint index plus
/// the slot of the counted literal (or [`GUARD_SLOT`] for the guard/condition literal,
/// which participates in propagation wake-up but not in the counters).
#[derive(Debug, Clone, Copy)]
struct LinOcc {
    idx: u32,
    slot: u32,
}

/// Sentinel slot marking a guard (condition) occurrence.
const GUARD_SLOT: u32 = u32::MAX;

/// A watch-list entry: the watching clause plus a *blocker* literal (some other
/// literal of the clause, usually the second watch). If the blocker is already true
/// the clause is satisfied and the visit costs one probe — the clause body is never
/// touched (MiniSat's blocker optimization).
#[derive(Debug, Clone, Copy)]
struct Watch {
    ci: u32,
    blocker: Lit,
}

/// A linear constraint over literals: `lower <= sum(weight_i * lit_i) <= upper`,
/// active only when `condition` (if any) is true.
#[derive(Debug, Clone)]
pub struct LinearSpec {
    /// Guard literal; the constraint is enforced only when it is true.
    pub condition: Option<Lit>,
    /// The counted literals.
    pub lits: Vec<Lit>,
    /// Per-literal weights (same length as `lits`).
    pub weights: Vec<u64>,
    /// Lower bound on the weighted count of true literals (0 = no bound).
    pub lower: u64,
    /// Upper bound on the weighted count of true literals (`u64::MAX` = no bound).
    pub upper: u64,
}

impl LinearSpec {
    /// A cardinality constraint: `lower <= #true <= upper`.
    pub fn cardinality(condition: Option<Lit>, lits: Vec<Lit>, lower: u64, upper: u64) -> Self {
        let weights = vec![1; lits.len()];
        LinearSpec { condition, lits, weights, lower, upper }
    }
}

#[derive(Debug, Clone)]
struct Linear {
    condition: Option<Lit>,
    lits: Vec<Lit>,
    weights: Vec<u64>,
    lower: u64,
    upper: u64,
    total: u64,
    sum_true: u64,
    sum_false: u64,
    /// Is this constraint a consequence of the program (a translation cardinality
    /// bound) rather than a per-solve artifact (an objective bound)?
    safe: bool,
    /// Largest single weight. No literal can overflow the upper bound unless
    /// `sum_true + wmax > upper`, and none can be forced true unless
    /// `total - sum_false - wmax < lower` (the heaviest literal triggers first on
    /// both bounds), so slack constraints skip the literal scan.
    wmax: u64,
}

/// Heuristic configuration of the solver (the analogue of clingo's configuration
/// presets; see [`crate::control::SolverConfig`]).
#[derive(Debug, Clone)]
pub struct SatConfig {
    /// Variable activity decay factor (0 < decay < 1); smaller decays faster.
    pub var_decay: f64,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Default polarity for unseen variables.
    pub default_phase: bool,
    /// Probability of choosing a random polarity at a decision.
    pub random_polarity: f64,
    /// Seed for the solver's private RNG.
    pub seed: u64,
    /// Soft cap on live learned clauses: when exceeded (checked at restarts), the
    /// lower-activity half of the deletable learned clauses is removed. Grows
    /// geometrically after every reduction.
    pub learned_limit: usize,
    /// Learned-clause activity decay factor (0 < decay < 1); the clause analogue of
    /// `var_decay`.
    pub clause_decay: f64,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            var_decay: 0.95,
            restart_base: 128,
            default_phase: false,
            random_polarity: 0.02,
            seed: 0x5eed,
            learned_limit: 4000,
            clause_decay: 0.999,
        }
    }
}

/// Statistics kept by the solver.
#[derive(Debug, Clone, Default)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses.
    pub learned: u64,
    /// Number of learned clauses deleted again by the reduction policy.
    pub deleted: u64,
}

impl SatStats {
    /// Accumulate another solver run's statistics into this one.
    pub fn absorb(&mut self, other: &SatStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.deleted += other.deleted;
    }
}

/// The CDCL solver.
pub struct Solver {
    num_vars: usize,
    clauses: ClauseArena,
    /// Parallel to `clauses`: learned (deletable) flag.
    clause_learned: Vec<bool>,
    /// Parallel to `clauses`: provenance-safe flag (see the module docs). For learned
    /// clauses this is the AND over every antecedent resolved into the clause.
    clause_safe: Vec<bool>,
    /// Parallel to `stored_reasons`: safety of the linear constraint that stored it.
    stored_safe: Vec<bool>,
    /// Per variable: is its *level-0* assignment a consequence of safe clauses only?
    /// Meaningful only while the variable is assigned at level 0.
    var0_safe: Vec<bool>,
    /// Learned unit clauses that are provenance-safe (units are enqueued rather than
    /// stored in `clauses`, so they are collected separately for export).
    safe_units: Vec<Lit>,
    /// Parallel to `clauses`: conflict-analysis activity (only meaningful for learned).
    clause_activity: Vec<f64>,
    clause_inc: f64,
    /// Live learned-clause cap; grows geometrically after each reduction.
    max_learned: usize,
    /// Watch lists: for each literal index, the watching clauses (with blockers).
    watches: Vec<Vec<Watch>>,
    linears: Vec<Linear>,
    /// For each variable, its occurrences in linear constraints (constraint + slot).
    linear_occ: Vec<Vec<LinOcc>>,
    assignment: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    /// Explicit reasons of literals propagated by linear constraints, in enqueue
    /// order (truncated on backtrack).
    stored_reasons: ClauseArena,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Parallel to `trail_lim`: `stored_reasons.len()` when each level was opened, so
    /// backtracking can reclaim the reasons of unassigned literals.
    stored_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    heap: VarHeap,
    config: SatConfig,
    rng: StdRng,
    /// Statistics.
    pub stats: SatStats,
    /// Set when the problem is already unsatisfiable at level 0.
    root_conflict: bool,
    /// Persistent scratch for conflict analysis (the literals being resolved).
    analyze_buf: Vec<Lit>,
    /// Persistent "seen" marker per variable for conflict analysis.
    seen: Vec<bool>,
    /// The unsat core of the last [`Solver::search_with_assumptions`] call that returned
    /// [`SearchResult::Unsat`]: the subset of the assumption literals whose conjunction
    /// is refuted. Empty when the problem is unsatisfiable without any assumptions.
    conflict_core: Vec<Lit>,
    /// Budget shared by one logical solve (deadline + total conflict limit); checked
    /// at every iteration of the search loop — see [`SolveBudgetState`].
    budget: Option<Arc<SolveBudgetState>>,
}

impl Solver {
    /// Create a solver for `num_vars` variables.
    pub fn new(num_vars: usize, config: SatConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let mut heap = VarHeap::new(num_vars);
        for v in 0..num_vars as Var {
            heap.insert(v, 0.0);
        }
        let max_learned = config.learned_limit.max(16);
        Solver {
            num_vars,
            clauses: ClauseArena::new(),
            clause_learned: Vec::new(),
            clause_safe: Vec::new(),
            stored_safe: Vec::new(),
            var0_safe: vec![false; num_vars],
            safe_units: Vec::new(),
            clause_activity: Vec::new(),
            clause_inc: 1.0,
            max_learned,
            watches: vec![Vec::new(); num_vars * 2],
            linears: Vec::new(),
            linear_occ: vec![Vec::new(); num_vars],
            assignment: vec![Value::Unassigned; num_vars],
            level: vec![0; num_vars],
            reason: vec![Reason::Decision; num_vars],
            stored_reasons: ClauseArena::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            stored_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            phase: vec![config.default_phase; num_vars],
            heap,
            config,
            rng,
            stats: SatStats::default(),
            root_conflict: false,
            analyze_buf: Vec::new(),
            seen: vec![false; num_vars],
            conflict_core: Vec::new(),
            budget: None,
        }
    }

    /// Install (or clear) the shared solve budget. Once it has expired, every search on
    /// this solver returns [`SearchResult::Interrupted`] until the budget is cleared.
    pub fn set_budget(&mut self, budget: Option<Arc<SolveBudgetState>>) {
        self.budget = budget;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The current decision level.
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn value_lit(&self, lit: Lit) -> Value {
        lit_value(&self.assignment, lit)
    }

    /// Is the literal currently true?
    pub fn lit_is_true(&self, lit: Lit) -> bool {
        self.value_lit(lit) == Value::True
    }

    /// Add a clause. Returns `false` when the clause makes the problem unsatisfiable at
    /// the root level. Must be called at decision level 0 (the solver backtracks
    /// automatically when necessary). Takes a slice: the solver copies only the
    /// literals that survive level-0 simplification. The clause is tagged *unsafe*
    /// (per-solve artifact); use [`Solver::add_clause_safe`] for program consequences.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_tagged(lits, false)
    }

    /// [`Solver::add_clause`] for a clause that is a consequence of the program being
    /// solved (a translation clause or a loop nogood): clauses learned from safe
    /// antecedents only are exported by [`Solver::safe_learned_clauses`].
    pub fn add_clause_safe(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_tagged(lits, true)
    }

    fn add_clause_tagged(&mut self, lits: &[Lit], safe: bool) -> bool {
        if self.root_conflict {
            return false;
        }
        self.cancel_until(0);
        // Remove literals already false at level 0; satisfied clauses are dropped.
        // Dropping a false literal makes the clause depend on that assignment, so the
        // simplified clause is safe only if every dropped assignment is, too.
        let mut filtered = Vec::with_capacity(lits.len());
        let mut safe = safe;
        for &l in lits {
            match self.value_lit(l) {
                Value::True => return true,
                Value::False => safe = safe && self.var0_safe[l.var() as usize],
                Value::Unassigned => filtered.push(l),
            }
        }
        filtered.sort_unstable();
        filtered.dedup();
        // Tautology? (positive/negative literals of a variable sort adjacently)
        if filtered.windows(2).any(|w| w[0] == w[1].negate()) {
            return true;
        }
        match filtered.len() {
            0 => {
                self.root_conflict = true;
                false
            }
            1 => {
                self.enqueue(filtered[0], Reason::Decision);
                self.var0_safe[filtered[0].var() as usize] = safe;
                if self.propagate().is_some() {
                    self.root_conflict = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let ci = self.clauses.push(&filtered) as u32;
                self.watches[filtered[0].negate().index()].push(Watch { ci, blocker: filtered[1] });
                self.watches[filtered[1].negate().index()].push(Watch { ci, blocker: filtered[0] });
                self.clause_learned.push(false);
                self.clause_safe.push(safe);
                self.clause_activity.push(0.0);
                true
            }
        }
    }

    /// Bulk-load clauses that are already in *trusted canonical form*: strictly sorted
    /// literals (which implies no duplicates and — since the two literals of a variable
    /// sort adjacently — no complementary pair) over in-range variables. Skips the
    /// per-clause sort/dedup/tautology scan and backtrack that [`Solver::add_clause`]
    /// pays, so per-level solver rebuilds in the optimizer ingest their own clause
    /// streams (translation clauses canonicalized once at translate time, and
    /// [`ClauseCache`] contents, canonical by construction) in one linear pass.
    /// Level-0 simplification and provenance bookkeeping are byte-identical to
    /// [`Solver::add_clause_safe`]; the canonical-form contract is checked by a debug
    /// assertion, so a corrupted clause (e.g. a bit flip in a cached clause) fails
    /// loudly in debug builds.
    ///
    /// Returns `false` when some clause makes the problem unsatisfiable at the root.
    pub fn load_trusted_clauses<'a, I>(&mut self, clauses: I, safe: bool) -> bool
    where
        I: IntoIterator<Item = &'a [Lit]>,
    {
        if self.root_conflict {
            return false;
        }
        self.cancel_until(0);
        for lits in clauses {
            debug_assert!(
                self.is_trusted_canonical(lits),
                "load_trusted_clauses: clause violates the canonical-form contract: {lits:?}"
            );
            // The unassigned literals go straight into the arena's open clause.
            let mut clause_safe = safe;
            let mut satisfied = false;
            for &l in lits {
                match self.value_lit(l) {
                    Value::True => {
                        satisfied = true;
                        break;
                    }
                    Value::False => {
                        clause_safe = clause_safe && self.var0_safe[l.var() as usize];
                    }
                    Value::Unassigned => self.clauses.push_open(l),
                }
            }
            if satisfied {
                self.clauses.discard_open();
                continue;
            }
            match *self.clauses.open() {
                [] => {
                    self.root_conflict = true;
                    return false;
                }
                [unit] => {
                    self.clauses.discard_open();
                    self.enqueue(unit, Reason::Decision);
                    self.var0_safe[unit.var() as usize] = clause_safe;
                    if self.propagate().is_some() {
                        self.root_conflict = true;
                        return false;
                    }
                }
                [w0, w1, ..] => {
                    let ci = self.clauses.seal() as u32;
                    self.watches[w0.negate().index()].push(Watch { ci, blocker: w1 });
                    self.watches[w1.negate().index()].push(Watch { ci, blocker: w0 });
                    self.clause_learned.push(false);
                    self.clause_safe.push(clause_safe);
                    self.clause_activity.push(0.0);
                }
            }
        }
        true
    }

    /// The [`Solver::load_trusted_clauses`] contract check (debug builds only).
    fn is_trusted_canonical(&self, lits: &[Lit]) -> bool {
        lits.iter().all(|l| (l.var() as usize) < self.num_vars)
            && lits.windows(2).all(|w| w[0] < w[1] && w[0] != w[1].negate())
    }

    /// Add a linear constraint (tagged unsafe: a per-solve artifact such as an
    /// objective bound; use [`Solver::add_linear_safe`] for program constraints).
    pub fn add_linear(&mut self, spec: LinearSpec) {
        self.add_linear_tagged(spec, false)
    }

    /// [`Solver::add_linear`] for a constraint that is part of the program itself
    /// (a choice-rule cardinality bound from the translation).
    pub fn add_linear_safe(&mut self, spec: LinearSpec) {
        self.add_linear_tagged(spec, true)
    }

    fn add_linear_tagged(&mut self, spec: LinearSpec, safe: bool) {
        assert_eq!(spec.lits.len(), spec.weights.len());
        self.cancel_until(0);
        let total: u64 = spec.weights.iter().sum();
        let idx = self.linears.len() as u32;
        for (slot, &l) in spec.lits.iter().enumerate() {
            self.linear_occ[l.var() as usize].push(LinOcc { idx, slot: slot as u32 });
        }
        if let Some(c) = spec.condition {
            self.linear_occ[c.var() as usize].push(LinOcc { idx, slot: GUARD_SLOT });
        }
        let wmax = spec.weights.iter().copied().max().unwrap_or(0);
        let mut lin = Linear {
            condition: spec.condition,
            lits: spec.lits,
            weights: spec.weights,
            lower: spec.lower,
            upper: spec.upper,
            total,
            sum_true: 0,
            sum_false: 0,
            wmax,
            safe,
        };
        // Account for assignments already made at level 0.
        for (i, &l) in lin.lits.iter().enumerate() {
            match self.value_lit(l) {
                Value::True => lin.sum_true += lin.weights[i],
                Value::False => lin.sum_false += lin.weights[i],
                Value::Unassigned => {}
            }
        }
        self.linears.push(lin);
        // The constraint may already be violated (or unit) under the level-0 assignment;
        // check it right away — later propagation only triggers on new assignments.
        if self.propagate_linear(idx as usize).is_some() || self.propagate().is_some() {
            self.root_conflict = true;
        }
    }

    /// Number of linear constraints added so far (the next `add_linear` gets this
    /// index); lets callers address a constraint for in-place tightening.
    pub fn num_linears(&self) -> usize {
        self.linears.len()
    }

    /// Tighten an existing linear constraint's upper bound in place. The new bound
    /// must not be looser than the current one — used by the optimizer to descend an
    /// objective without stacking superseded constraints (and their occurrence-list
    /// entries) in the live solver.
    pub fn tighten_linear_upper(&mut self, idx: usize, upper: u64) {
        if self.root_conflict {
            return;
        }
        self.cancel_until(0);
        debug_assert!(upper <= self.linears[idx].upper);
        self.linears[idx].upper = upper;
        if self.propagate_linear(idx).is_some() || self.propagate().is_some() {
            self.root_conflict = true;
        }
    }

    /// Bump a variable's activity so the heuristic prefers it early (used to focus the
    /// search on atoms that matter, e.g. objective atoms).
    pub fn bump_variable(&mut self, v: Var, amount: f64) {
        self.activity[v as usize] += amount;
        self.heap.update(v, self.activity[v as usize]);
    }

    /// Seed the saved phase of a variable. Used to warm-start a solver from an
    /// incumbent model so the search re-enters the neighbourhood of a known-good
    /// assignment first (the optimizer seeds each lexicographic level this way).
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        self.phase[v as usize] = phase;
    }

    /// Run the CDCL search until a model is found or the problem is proved unsatisfiable.
    pub fn search(&mut self) -> SearchResult {
        self.search_with_assumptions(&[])
    }

    /// Run the CDCL search under a set of *assumption literals* (MiniSat-style
    /// incremental interface): every assumption is decided, in order, at its own
    /// decision level before any free decision is taken, so the search explores only
    /// assignments where all assumptions hold. On [`SearchResult::Unsat`] the subset of
    /// assumptions responsible is available from [`Solver::failed_assumptions`] — the
    /// *unsat core* extracted by final-conflict analysis over the assumption prefix.
    ///
    /// The solver is reusable afterwards: assumptions are plain decisions, undone by
    /// backtracking, never added as clauses.
    pub fn search_with_assumptions(&mut self, assumptions: &[Lit]) -> SearchResult {
        self.conflict_core.clear();
        if self.root_conflict {
            return SearchResult::Unsat;
        }
        self.cancel_until(0);
        let mut conflicts_until_restart = self.luby_interval();
        loop {
            if let Some(budget) = &self.budget {
                if budget.expired() {
                    return SearchResult::Interrupted;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if let Some(budget) = &self.budget {
                    budget.note_conflict();
                }
                if self.decision_level() == 0 {
                    self.root_conflict = true;
                    return SearchResult::Unsat;
                }
                let (learned, backtrack_level, safe) = self.analyze(confl);
                self.cancel_until(backtrack_level);
                self.record_learned(learned, safe);
                self.decay_activities();
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                continue;
            }
            if conflicts_until_restart == 0 {
                self.stats.restarts += 1;
                self.cancel_until(0);
                self.reduce_learned();
                conflicts_until_restart = self.luby_interval();
            }
            // Re-establish the assumption prefix: assumption `i` owns decision level
            // `i + 1` (an empty level when it is already implied), so a backtrack below
            // the prefix is repaired here before any free decision is taken.
            let mut propagate_assumption = false;
            while (self.decision_level() as usize) < assumptions.len() {
                let p = assumptions[self.decision_level() as usize];
                match self.value_lit(p) {
                    Value::True => {
                        self.trail_lim.push(self.trail.len());
                        self.stored_lim.push(self.stored_reasons.len());
                    }
                    Value::False => {
                        self.conflict_core = self.analyze_final(p);
                        return SearchResult::Unsat;
                    }
                    Value::Unassigned => {
                        self.trail_lim.push(self.trail.len());
                        self.stored_lim.push(self.stored_reasons.len());
                        self.enqueue(p, Reason::Decision);
                        propagate_assumption = true;
                        break;
                    }
                }
            }
            if propagate_assumption {
                continue;
            }
            // All constraints propagated without conflict: check for completeness.
            match self.pick_branch_variable() {
                None => return SearchResult::Sat,
                Some(var) => {
                    self.stats.decisions += 1;
                    let phase = if self.rng.gen_bool(self.config.random_polarity) {
                        self.rng.gen_bool(0.5)
                    } else {
                        self.phase[var as usize]
                    };
                    let lit = if phase { Lit::pos(var) } else { Lit::neg(var) };
                    self.trail_lim.push(self.trail.len());
                    self.stored_lim.push(self.stored_reasons.len());
                    self.enqueue(lit, Reason::Decision);
                }
            }
        }
    }

    /// The unsat core of the last failed [`Solver::search_with_assumptions`] call: the
    /// subset of its assumption literals whose conjunction is refuted by the formula.
    /// Empty when the formula is unsatisfiable on its own (no assumption needed).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): `failed` is an assumption
    /// found false while re-establishing the prefix. Walk the trail backwards from the
    /// implied `¬failed`, expanding propagation reasons; every *decision* reached below
    /// the assumption prefix is itself an assumption, and together with `failed` they
    /// form an unsat core.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            // ¬failed is forced at the root: the assumption alone is refuted.
            return core;
        }
        let start = self.trail_lim[0];
        self.seen[failed.var() as usize] = true;
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var() as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // Only assumptions are decisions below the assumption prefix.
                Reason::Decision => core.push(x),
                Reason::Clause(ci) => {
                    for &l in &self.clauses[ci] {
                        if l.var() as usize != v && self.level[l.var() as usize] > 0 {
                            self.seen[l.var() as usize] = true;
                        }
                    }
                }
                Reason::Stored(ri) => {
                    for &l in &self.stored_reasons[ri] {
                        if l.var() as usize != v && self.level[l.var() as usize] > 0 {
                            self.seen[l.var() as usize] = true;
                        }
                    }
                }
            }
        }
        self.seen[failed.var() as usize] = false;
        core
    }

    /// The current (total) model; only meaningful after [`Solver::search`] returned
    /// [`SearchResult::Sat`].
    pub fn model(&self) -> Vec<bool> {
        self.assignment.iter().map(|v| matches!(v, Value::True)).collect()
    }

    /// Block the current model (or any other clause) and prepare for continued search.
    /// Returns `false` when the added clause makes the problem unsatisfiable.
    pub fn add_blocking_clause(&mut self, clause: &[Lit]) -> bool {
        self.add_clause(clause)
    }

    /// Every learned clause (including learned root units) whose derivation used only
    /// provenance-safe antecedents: such clauses are consequences of the program's
    /// translation alone — never of per-solve externals, objective bounds, or blocking
    /// clauses — and may be replayed into any solver over the same translation.
    pub fn safe_learned_clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        let units = self.safe_units.iter().map(std::slice::from_ref);
        let clauses = (0..self.clauses.len())
            .filter(|&ci| self.clause_learned[ci] && self.clause_safe[ci])
            .map(|ci| &self.clauses[ci]);
        units.chain(clauses)
    }

    // ---- internal: propagation -------------------------------------------------------

    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(lit), Value::Unassigned);
        let var = lit.var() as usize;
        self.assignment[var] = if lit.is_pos() { Value::True } else { Value::False };
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.phase[var] = lit.is_pos();
        if self.trail_lim.is_empty() {
            // Level-0 assignment: record whether it follows from safe clauses alone
            // (its reason plus the level-0 assignments falsifying the rest of it).
            let safe = match reason {
                Reason::Decision => false, // add_clause_tagged overrides for its units
                Reason::Clause(ci) => {
                    self.clause_safe[ci]
                        && self.clauses[ci]
                            .iter()
                            .all(|&l| l.var() as usize == var || self.var0_safe[l.var() as usize])
                }
                Reason::Stored(ri) => {
                    self.stored_safe[ri]
                        && self.stored_reasons[ri]
                            .iter()
                            .all(|&l| l.var() as usize == var || self.var0_safe[l.var() as usize])
                }
            };
            self.var0_safe[var] = safe;
        }
        self.trail.push(lit);
        self.stats.propagations += 1;
        // Update linear-constraint counters incrementally: each occurrence names the
        // exact slot of this variable's literal, so no literal list is scanned.
        for k in 0..self.linear_occ[var].len() {
            let occ = self.linear_occ[var][k];
            if occ.slot == GUARD_SLOT {
                continue;
            }
            let lin = &mut self.linears[occ.idx as usize];
            let l = lin.lits[occ.slot as usize];
            let w = lin.weights[occ.slot as usize];
            if l.is_pos() == lit.is_pos() {
                lin.sum_true += w;
            } else {
                lin.sum_false += w;
            }
        }
    }

    fn unassign(&mut self, lit: Lit) {
        let var = lit.var() as usize;
        for k in 0..self.linear_occ[var].len() {
            let occ = self.linear_occ[var][k];
            if occ.slot == GUARD_SLOT {
                continue;
            }
            let lin = &mut self.linears[occ.idx as usize];
            let l = lin.lits[occ.slot as usize];
            let w = lin.weights[occ.slot as usize];
            if l.is_pos() == lit.is_pos() {
                lin.sum_true -= w;
            } else {
                lin.sum_false -= w;
            }
        }
        self.assignment[var] = Value::Unassigned;
        if !self.heap.contains(var as Var) {
            self.heap.insert(var as Var, self.activity[var]);
        }
    }

    fn cancel_until(&mut self, level: u32) {
        let mut stored_mark = None;
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().unwrap();
            stored_mark = self.stored_lim.pop();
            while self.trail.len() > lim {
                let lit = self.trail.pop().unwrap();
                self.unassign(lit);
            }
        }
        // Reasons are pushed in enqueue order, so every still-assigned literal's
        // stored reason predates the earliest cancelled level — the tail is garbage.
        if let Some(mark) = stored_mark {
            self.stored_reasons.truncate(mark);
            self.stored_safe.truncate(mark);
        }
        self.prop_head = self.prop_head.min(self.trail.len());
    }

    /// Propagate all pending assignments. Returns the conflict if one is found. The
    /// occurrence lists are iterated in place (indexed, since `propagate_linear` may
    /// enqueue further literals) — never cloned.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            // Clause propagation: clauses watching ¬lit.
            if let Some(ci) = self.propagate_clauses(lit) {
                return Some(Conflict::Clause(ci));
            }
            // Linear constraints containing this variable.
            let var = lit.var() as usize;
            for k in 0..self.linear_occ[var].len() {
                let occ = self.linear_occ[var][k];
                if let Some((confl, safe)) = self.propagate_linear(occ.idx as usize) {
                    return Some(Conflict::Lits(confl, safe));
                }
            }
        }
        None
    }

    fn propagate_clauses(&mut self, lit: Lit) -> Option<usize> {
        let watch_idx = lit.index();
        let mut i = 0;
        while i < self.watches[watch_idx].len() {
            // Blocker probe: a satisfied clause costs one value lookup.
            let blocker = self.watches[watch_idx][i].blocker;
            if self.value_lit(blocker) == Value::True {
                i += 1;
                continue;
            }
            let ci = self.watches[watch_idx][i].ci as usize;
            // The falsified literal is lit.negate(); make sure it is at position 1.
            let false_lit = lit.negate();
            let clause = &mut self.clauses[ci];
            if clause[0] == false_lit {
                clause.swap(0, 1);
            }
            // If the first watch is true, the clause is satisfied: remember it as the
            // blocker for the next visit.
            let first = clause[0];
            if lit_value(&self.assignment, first) == Value::True {
                self.watches[watch_idx][i].blocker = first;
                i += 1;
                continue;
            }
            // Look for a new literal to watch.
            let mut new_watch = None;
            for k in 2..clause.len() {
                if lit_value(&self.assignment, clause[k]) != Value::False {
                    clause.swap(1, k);
                    new_watch = Some(clause[1]);
                    break;
                }
            }
            if let Some(w) = new_watch {
                self.watches[w.negate().index()].push(Watch { ci: ci as u32, blocker: first });
                self.watches[watch_idx].swap_remove(i);
                continue;
            }
            // Clause is unit or conflicting.
            match self.value_lit(first) {
                Value::False => {
                    return Some(ci);
                }
                Value::Unassigned => {
                    self.enqueue(first, Reason::Clause(ci));
                    i += 1;
                }
                Value::True => {
                    i += 1;
                }
            }
        }
        None
    }

    fn propagate_linear(&mut self, idx: usize) -> Option<(Vec<Lit>, bool)> {
        let (upper_violated, lower_violated) = {
            let lin = &self.linears[idx];
            (lin.sum_true > lin.upper, lin.total - lin.sum_false < lin.lower)
        };
        let condition = self.linears[idx].condition;
        let lin_safe = self.linears[idx].safe;
        let cond_value = condition.map(|c| self.value_lit(c));

        // If the guard is false the constraint is inert.
        if cond_value == Some(Value::False) {
            return None;
        }

        if upper_violated || lower_violated {
            match cond_value {
                Some(Value::Unassigned) => {
                    // Force the guard false.
                    let c = condition.unwrap();
                    let rid = self.store_linear_reason(idx, upper_violated, [c.negate()]);
                    self.enqueue(c.negate(), Reason::Stored(rid));
                    return None;
                }
                _ => {
                    // Guard true (or absent): conflict.
                    let mut clause = self.linear_violation_lits(idx, upper_violated);
                    if let Some(c) = condition {
                        clause.push(c.negate());
                    }
                    return Some((clause, lin_safe));
                }
            }
        }

        // Only propagate individual literals when the guard is definitely active.
        if cond_value == Some(Value::Unassigned) {
            return None;
        }

        // Slack check: when even the heaviest literal can neither overflow the upper
        // bound (if set true) nor undershoot the lower bound (if set false), no
        // literal can be forced — skip the O(lits) scan entirely. This keeps the
        // per-assignment cost of slack constraints at O(1).
        {
            let lin = &self.linears[idx];
            let upper_tight = lin.sum_true.saturating_add(lin.wmax) > lin.upper;
            let lower_tight = (lin.total - lin.sum_false).saturating_sub(lin.wmax) < lin.lower;
            if !upper_tight && !lower_tight {
                return None;
            }
        }

        // Upper-bound propagation: literal would overflow the bound -> must be false.
        let lin_len = self.linears[idx].lits.len();
        for i in 0..lin_len {
            let (lit, weight, sum_true, upper, total, sum_false, lower) = {
                let lin = &self.linears[idx];
                (
                    lin.lits[i],
                    lin.weights[i],
                    lin.sum_true,
                    lin.upper,
                    lin.total,
                    lin.sum_false,
                    lin.lower,
                )
            };
            if self.value_lit(lit) != Value::Unassigned || weight == 0 {
                continue;
            }
            if sum_true + weight > upper {
                let guard = condition.map(Lit::negate);
                let rid =
                    self.store_linear_reason(idx, true, guard.into_iter().chain([lit.negate()]));
                self.enqueue(lit.negate(), Reason::Stored(rid));
                if let Some(confl) = self.propagate_linear(idx) {
                    return Some(confl);
                }
            } else if total - sum_false - weight < lower {
                let guard = condition.map(Lit::negate);
                let rid = self.store_linear_reason(idx, false, guard.into_iter().chain([lit]));
                self.enqueue(lit, Reason::Stored(rid));
                if let Some(confl) = self.propagate_linear(idx) {
                    return Some(confl);
                }
            }
        }
        None
    }

    /// Literals explaining a bound violation: negations of true counted literals for an
    /// upper-bound violation, or the false counted literals for a lower-bound violation.
    fn linear_violation_lits(&self, idx: usize, upper: bool) -> Vec<Lit> {
        let lin = &self.linears[idx];
        if upper {
            lin.lits
                .iter()
                .filter(|&&l| self.value_lit(l) == Value::True)
                .map(|&l| l.negate())
                .collect()
        } else {
            lin.lits.iter().filter(|&&l| self.value_lit(l) == Value::False).copied().collect()
        }
    }

    /// Store the explicit reason of a literal propagated by linear constraint `idx`:
    /// the literals of [`Solver::linear_violation_lits`] followed by `tail` (the
    /// negated guard and/or the implied literal). Returns its [`Reason::Stored`]
    /// index.
    fn store_linear_reason(
        &mut self,
        idx: usize,
        upper: bool,
        tail: impl IntoIterator<Item = Lit>,
    ) -> usize {
        let lin = &self.linears[idx];
        for &l in &lin.lits {
            match (upper, lit_value(&self.assignment, l)) {
                (true, Value::True) => self.stored_reasons.push_open(l.negate()),
                (false, Value::False) => self.stored_reasons.push_open(l),
                _ => {}
            }
        }
        for l in tail {
            self.stored_reasons.push_open(l);
        }
        self.stored_safe.push(lin.safe);
        self.stored_reasons.seal()
    }

    // ---- internal: conflict analysis ---------------------------------------------------

    /// First-UIP conflict analysis. Returns the learned clause (with the asserting
    /// literal first), the backtrack level, and whether every antecedent resolved into
    /// the clause was provenance-safe (making the learned clause a program
    /// consequence, exportable across solves).
    ///
    /// Clause-typed conflicts and reasons are resolved by *reference*; the working set
    /// of literals lives in the persistent `analyze_buf`, and the per-variable `seen`
    /// markers are cleared incrementally on exit — no allocation per conflict beyond
    /// the learned clause itself.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32, bool) {
        let current_level = self.decision_level();
        let mut learned: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut trail_index = self.trail.len();
        let mut expand: Vec<Lit> = std::mem::take(&mut self.analyze_buf);
        expand.clear();
        let mut safe;
        match conflict {
            Conflict::Clause(ci) => {
                self.bump_clause(ci);
                expand.extend_from_slice(&self.clauses[ci]);
                safe = self.clause_safe[ci];
            }
            Conflict::Lits(lits, lin_safe) => {
                expand.extend_from_slice(&lits);
                safe = lin_safe;
            }
        }
        let asserting;

        loop {
            #[allow(clippy::needless_range_loop)] // `self.bump` below needs `&mut self`
            for i in 0..expand.len() {
                let lit = expand[i];
                let v = lit.var() as usize;
                if self.level[v] == 0 {
                    // Absorbed level-0 assignment: the learned clause depends on it.
                    safe = safe && self.var0_safe[v];
                    continue;
                }
                if self.seen[v] {
                    continue;
                }
                self.seen[v] = true;
                self.bump(lit.var());
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    learned.push(lit);
                }
            }
            // Find the next literal on the trail (at the current level) that is seen.
            let lit = loop {
                trail_index -= 1;
                let lit = self.trail[trail_index];
                if self.seen[lit.var() as usize] {
                    break lit;
                }
            };
            counter -= 1;
            if counter == 0 {
                asserting = lit.negate();
                break;
            }
            // Expand the reason of `lit`, skipping its own variable.
            expand.clear();
            let var = lit.var();
            match self.reason[var as usize] {
                Reason::Decision => {}
                Reason::Clause(ci) => {
                    self.bump_clause(ci);
                    safe = safe && self.clause_safe[ci];
                    expand.extend(self.clauses[ci].iter().copied().filter(|l| l.var() != var));
                }
                Reason::Stored(ri) => {
                    safe = safe && self.stored_safe[ri];
                    expand
                        .extend(self.stored_reasons[ri].iter().copied().filter(|l| l.var() != var));
                }
            }
        }

        // Clear the seen markers we set (asserting var + learned lits + resolved-away
        // vars are all on the trail suffix we walked, plus the learned literals).
        for k in trail_index..self.trail.len() {
            self.seen[self.trail[k].var() as usize] = false;
        }
        for l in &learned {
            self.seen[l.var() as usize] = false;
        }
        self.analyze_buf = expand;

        let mut clause = vec![asserting];
        clause.extend(learned);

        // Backtrack level: second-highest level in the clause.
        let backtrack_level =
            clause[1..].iter().map(|l| self.level[l.var() as usize]).max().unwrap_or(0);
        (clause, backtrack_level, safe)
    }

    fn record_learned(&mut self, clause: Vec<Lit>, safe: bool) {
        self.stats.learned += 1;
        debug_assert!(!clause.is_empty());
        if clause.len() == 1 {
            // Asserting unit clause: enqueue at the (already backtracked-to) level.
            if self.value_lit(clause[0]) == Value::Unassigned {
                self.enqueue(clause[0], Reason::Decision);
                if self.trail_lim.is_empty() {
                    self.var0_safe[clause[0].var() as usize] = safe;
                }
            }
            if safe {
                self.safe_units.push(clause[0]);
            }
            return;
        }
        // Put a literal of the backtrack level second so the watches are correct.
        let idx = self.clauses.len();
        let mut clause = clause;
        let mut max_level_pos = 1;
        for (i, l) in clause.iter().enumerate().skip(1) {
            if self.level[l.var() as usize] > self.level[clause[max_level_pos].var() as usize] {
                max_level_pos = i;
            }
        }
        clause.swap(1, max_level_pos);
        self.watches[clause[0].negate().index()].push(Watch { ci: idx as u32, blocker: clause[1] });
        self.watches[clause[1].negate().index()].push(Watch { ci: idx as u32, blocker: clause[0] });
        let asserting = clause[0];
        self.clauses.push(&clause);
        self.clause_learned.push(true);
        self.clause_safe.push(safe);
        self.clause_activity.push(self.clause_inc);
        if self.value_lit(asserting) == Value::Unassigned {
            self.enqueue(asserting, Reason::Clause(idx));
        }
    }

    /// Delete low-activity learned clauses once their number exceeds the cap. Runs at
    /// restarts (decision level 0): clauses locked as reasons of level-0 assignments
    /// and binary clauses are kept; of the rest, everything below the median activity
    /// goes. Watches are rebuilt and clause-typed reasons remapped.
    fn reduce_learned(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let live = self.clause_learned.iter().filter(|&&l| l).count();
        if live <= self.max_learned {
            return;
        }
        let mut locked = vec![false; self.clauses.len()];
        for &lit in &self.trail {
            if let Reason::Clause(ci) = self.reason[lit.var() as usize] {
                locked[ci] = true;
            }
        }
        // Median activity of learned clauses as the deletion threshold.
        let mut acts: Vec<f64> = (0..self.clauses.len())
            .filter(|&ci| self.clause_learned[ci])
            .map(|ci| self.clause_activity[ci])
            .collect();
        acts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let threshold = acts[acts.len() / 2];

        // Compact the arena and its parallel vectors in place; `remap` maps every
        // kept clause to its new index.
        let mut remap: Vec<usize> = vec![usize::MAX; self.clauses.len()];
        let mut kept = 0;
        let (learned, activity) = (&self.clause_learned, &self.clause_activity);
        self.clauses.retain_indexed(|ci, lits| {
            let deletable =
                learned[ci] && !locked[ci] && lits.len() > 2 && activity[ci] <= threshold;
            if !deletable {
                remap[ci] = kept;
                kept += 1;
            }
            !deletable
        });
        let removed = (remap.len() - kept) as u64;
        retain_remapped(&mut self.clause_learned, &remap);
        retain_remapped(&mut self.clause_safe, &remap);
        retain_remapped(&mut self.clause_activity, &remap);
        self.stats.deleted += removed;
        // Grow the cap geometrically so reduction stays amortised.
        self.max_learned += self.max_learned / 2;

        // Remap clause-typed reasons: only assigned variables hold live reasons.
        for v in 0..self.num_vars {
            if let Reason::Clause(ci) = self.reason[v] {
                if self.assignment[v] == Value::Unassigned {
                    self.reason[v] = Reason::Decision;
                } else {
                    self.reason[v] = Reason::Clause(remap[ci]);
                }
            }
        }
        // Rebuild the watch lists (positions 0/1 of every clause were watched before,
        // and clause contents did not change, so the watch invariant is preserved).
        for w in &mut self.watches {
            w.clear();
        }
        for ci in 0..self.clauses.len() {
            let (w0, w1) = (self.clauses[ci][0], self.clauses[ci][1]);
            self.watches[w0.negate().index()].push(Watch { ci: ci as u32, blocker: w1 });
            self.watches[w1.negate().index()].push(Watch { ci: ci as u32, blocker: w0 });
        }
    }

    fn bump(&mut self, var: Var) {
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(var, self.activity[var as usize]);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clause_learned[ci] {
            return;
        }
        self.clause_activity[ci] += self.clause_inc;
        if self.clause_activity[ci] > 1e20 {
            for a in &mut self.clause_activity {
                *a *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.clause_inc /= self.config.clause_decay;
    }

    fn pick_branch_variable(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop() {
            if self.assignment[v as usize] == Value::Unassigned {
                return Some(v);
            }
        }
        // Fall back to a linear scan (heap may have dropped re-inserted vars).
        (0..self.num_vars as Var).find(|&v| self.assignment[v as usize] == Value::Unassigned)
    }

    fn luby_interval(&self) -> u64 {
        // Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        fn luby(mut x: u64) -> u64 {
            loop {
                let mut k = 1u32;
                while (1u64 << k) - 1 < x {
                    k += 1;
                }
                if (1u64 << k) - 1 == x {
                    return 1u64 << (k - 1);
                }
                x -= (1u64 << (k - 1)) - 1;
            }
        }
        luby(self.stats.restarts + 1) * self.config.restart_base
    }
}

/// The value of `lit` under `assignment` (indexed by variable).
fn lit_value(assignment: &[Value], lit: Lit) -> Value {
    match (assignment[lit.var() as usize], lit.is_pos()) {
        (Value::Unassigned, _) => Value::Unassigned,
        (Value::True, true) | (Value::False, false) => Value::True,
        (Value::True, false) | (Value::False, true) => Value::False,
    }
}

/// Keep the entries of a clause-parallel vector whose clause survived a compaction
/// (`remap[i] != usize::MAX`), in order.
fn retain_remapped<T>(values: &mut Vec<T>, remap: &[usize]) {
    let mut i = 0;
    values.retain(|_| {
        i += 1;
        remap[i - 1] != usize::MAX
    });
}

/// A session-scoped cache of clauses that are *consequences of one ground program* —
/// loop nogoods from the stability check and provenance-safe learned clauses — shared
/// by every solve on that grounding. Each newly built solver replays the cache, so the
/// relaxed diagnostics re-solve, core-minimization probes, and later optimization
/// levels warm-start from everything earlier solves proved about the program instead
/// of re-deriving it. Invalidated (by the owner) whenever the grounding changes.
#[derive(Debug, Default)]
pub struct ClauseCache {
    clauses: ClauseArena,
    seen: FxHashSet<u64>,
}

impl ClauseCache {
    /// Cap on cached clauses: beyond this the marginal clause is unlikely to pay for
    /// its replay cost, and the cache must not grow without bound over a long session.
    pub const MAX_CLAUSES: usize = 8192;

    /// Add one program-consequence clause (deduplicated; ignored once full or empty).
    pub fn add(&mut self, clause: &[Lit]) {
        if clause.is_empty() || self.clauses.len() >= Self::MAX_CLAUSES {
            return;
        }
        // Store in canonical form, dropping tautologies, so every cached clause
        // satisfies the trusted contract of `Solver::load_trusted_clauses` (replay
        // skips re-validation); then undo the push if the clause is a duplicate.
        let Some(ci) = self.clauses.push_canonical(clause.iter().copied()) else {
            return;
        };
        use std::hash::{Hash, Hasher};
        let mut hasher = crate::hasher::FxHasher::default();
        self.clauses[ci].hash(&mut hasher);
        if !self.seen.insert(hasher.finish()) {
            self.clauses.truncate(ci);
        }
    }

    /// Collect a retiring solver's provenance-safe learned clauses.
    pub fn harvest(&mut self, solver: &Solver) {
        // Pre-check fullness so a large retired solver costs one branch, not a scan.
        if self.clauses.len() >= Self::MAX_CLAUSES {
            return;
        }
        for c in solver.safe_learned_clauses() {
            self.add(c);
        }
    }

    /// The cached clauses, for replay into a new solver (all provenance-safe).
    pub fn clauses(&self) -> &ClauseArena {
        &self.clauses
    }

    /// Number of cached clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

/// A max-heap of variables ordered by activity, with lazy updates.
struct VarHeap {
    heap: Vec<Var>,
    position: Vec<Option<usize>>,
    key: Vec<f64>,
}

impl VarHeap {
    fn new(n: usize) -> Self {
        VarHeap { heap: Vec::with_capacity(n), position: vec![None; n], key: vec![0.0; n] }
    }

    fn contains(&self, v: Var) -> bool {
        self.position[v as usize].is_some()
    }

    fn insert(&mut self, v: Var, key: f64) {
        if self.contains(v) {
            self.update(v, key);
            return;
        }
        self.key[v as usize] = key;
        let pos = self.heap.len();
        self.heap.push(v);
        self.position[v as usize] = Some(pos);
        self.sift_up(pos);
    }

    fn update(&mut self, v: Var, key: f64) {
        self.key[v as usize] = key;
        if let Some(pos) = self.position[v as usize] {
            self.sift_up(pos);
        }
    }

    fn pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.position[top as usize] = None;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = Some(0);
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key[self.heap[pos] as usize] > self.key[self.heap[parent] as usize] {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut largest = pos;
            if left < self.heap.len()
                && self.key[self.heap[left] as usize] > self.key[self.heap[largest] as usize]
            {
                largest = left;
            }
            if right < self.heap.len()
                && self.key[self.heap[right] as usize] > self.key[self.heap[largest] as usize]
            {
                largest = right;
            }
            if largest == pos {
                break;
            }
            self.swap(pos, largest);
            pos = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a] as usize] = Some(a);
        self.position[self.heap[b] as usize] = Some(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        if v > 0 {
            Lit::pos((v - 1) as Var)
        } else {
            Lit::neg((-v - 1) as Var)
        }
    }

    #[test]
    fn simple_sat_and_unsat() {
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert!(s.add_clause(&[lit(-1), lit(2)]));
        assert_eq!(s.search(), SearchResult::Sat);
        let m = s.model();
        assert!(m[1], "x2 must be true");

        let mut s = Solver::new(1, SatConfig::default());
        assert!(s.add_clause(&[lit(1)]));
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.search(), SearchResult::Unsat);
    }

    #[test]
    fn pigeonhole_unsat() {
        // 4 pigeons, 3 holes: classic small UNSAT instance exercising conflict analysis.
        let pigeons = 4;
        let holes = 3;
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut s = Solver::new(pigeons * holes, SatConfig::default());
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            assert!(s.add_clause(&clause));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]));
                }
            }
        }
        assert_eq!(s.search(), SearchResult::Unsat);
        assert!(s.stats.conflicts > 0);
    }

    #[test]
    fn learned_clause_deletion_preserves_answers() {
        // A tight learned-clause cap plus a small restart interval forces the
        // reduction policy to run mid-search; the UNSAT proof must survive it.
        let config = SatConfig { restart_base: 4, learned_limit: 1, ..SatConfig::default() };
        let pigeons = 6;
        let holes = 5;
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut s = Solver::new(pigeons * holes, config.clone());
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            assert!(s.add_clause(&clause));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]));
                }
            }
        }
        assert_eq!(s.search(), SearchResult::Unsat);
        assert!(s.stats.deleted > 0, "the reduction policy must have fired");

        // And a satisfiable instance under the same aggressive policy.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40;
        let mut s = Solver::new(n, config);
        let mut cls = Vec::new();
        for _ in 0..120 {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    let v = rng.gen_range(0..n) as Var;
                    if rng.gen_bool(0.5) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cls.push(c.clone());
            s.add_clause(&c);
        }
        if s.search() == SearchResult::Sat {
            let m = s.model();
            for c in &cls {
                assert!(c.iter().any(|l| m[l.var() as usize] == l.is_pos()));
            }
        }
    }

    #[test]
    fn random_3sat_instances_solved() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for instance in 0..20 {
            let n = 30;
            let clauses = 90 + instance; // below the phase transition: usually SAT
            let mut s = Solver::new(n, SatConfig::default());
            let mut cls = Vec::new();
            for _ in 0..clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = rng.gen_range(0..n) as Var;
                    let l = if rng.gen_bool(0.5) { Lit::pos(v) } else { Lit::neg(v) };
                    c.push(l);
                }
                cls.push(c.clone());
                s.add_clause(&c);
            }
            if s.search() == SearchResult::Sat {
                let m = s.model();
                for c in &cls {
                    assert!(
                        c.iter().any(|l| m[l.var() as usize] == l.is_pos()),
                        "model does not satisfy a clause"
                    );
                }
            }
        }
    }

    #[test]
    fn cardinality_exactly_one() {
        let mut s = Solver::new(4, SatConfig::default());
        s.add_linear(LinearSpec::cardinality(None, vec![lit(1), lit(2), lit(3), lit(4)], 1, 1));
        assert_eq!(s.search(), SearchResult::Sat);
        let m = s.model();
        assert_eq!(m.iter().filter(|&&b| b).count(), 1);

        // Forcing two of them true must be unsatisfiable.
        let mut s = Solver::new(4, SatConfig::default());
        s.add_linear(LinearSpec::cardinality(None, vec![lit(1), lit(2), lit(3), lit(4)], 1, 1));
        assert!(s.add_clause(&[lit(1)]));
        let ok = s.add_clause(&[lit(2)]);
        assert!(!ok || s.search() == SearchResult::Unsat);
    }

    #[test]
    fn cardinality_lower_bound_propagates() {
        // x1..x4, at least 3 true, x1 and x2 false -> unsat.
        let mut s = Solver::new(4, SatConfig::default());
        s.add_linear(LinearSpec::cardinality(
            None,
            vec![lit(1), lit(2), lit(3), lit(4)],
            3,
            u64::MAX,
        ));
        assert!(s.add_clause(&[lit(-1)]));
        let ok = s.add_clause(&[lit(-2)]);
        assert!(!ok || s.search() == SearchResult::Unsat);
    }

    #[test]
    fn conditional_cardinality_inert_when_guard_false() {
        // guard -> exactly one of x2,x3; guard is false, so both may be true.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(LinearSpec::cardinality(Some(lit(1)), vec![lit(2), lit(3)], 1, 1));
        assert!(s.add_clause(&[lit(-1)]));
        assert!(s.add_clause(&[lit(2)]));
        assert!(s.add_clause(&[lit(3)]));
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn conditional_cardinality_forces_guard_false() {
        // guard -> at most one of x2,x3; x2 and x3 forced true -> guard must be false.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(LinearSpec::cardinality(Some(lit(1)), vec![lit(2), lit(3)], 0, 1));
        assert!(s.add_clause(&[lit(2)]));
        assert!(s.add_clause(&[lit(3)]));
        assert_eq!(s.search(), SearchResult::Sat);
        assert!(!s.model()[0], "guard must be false");
    }

    #[test]
    fn weighted_lower_bound_forces_heavy_literal() {
        // total=10, lower=5: losing the weight-9 literal would undershoot, so it must
        // be forced true by propagation alone (the slack check must use wmax on the
        // lower side too, not the lightest weight).
        let mut s = Solver::new(2, SatConfig::default());
        s.add_linear(LinearSpec {
            condition: None,
            lits: vec![lit(1), lit(2)],
            weights: vec![9, 1],
            lower: 5,
            upper: u64::MAX,
        });
        assert!(s.lit_is_true(lit(1)), "weight-9 literal must be propagated, not searched");
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn weighted_upper_bound() {
        // weights 5,3,2 over x1,x2,x3 with sum <= 5: at most x1 alone, or x2+x3.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(LinearSpec {
            condition: None,
            lits: vec![lit(1), lit(2), lit(3)],
            weights: vec![5, 3, 2],
            lower: 0,
            upper: 5,
        });
        assert!(s.add_clause(&[lit(1)]));
        assert_eq!(s.search(), SearchResult::Sat);
        let m = s.model();
        assert!(m[0] && !m[1] && !m[2]);
    }

    #[test]
    fn blocking_clauses_enumerate_models() {
        // x1 xor-ish: (x1 | x2), enumerate all models of 2 vars.
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        let mut count = 0;
        loop {
            match s.search() {
                SearchResult::Unsat => break,
                SearchResult::Interrupted => unreachable!("no budget installed"),
                SearchResult::Sat => {
                    count += 1;
                    assert!(count <= 3, "only 3 models exist");
                    let m = s.model();
                    let blocking: Vec<Lit> = (0..2)
                        .map(|v| if m[v] { Lit::neg(v as Var) } else { Lit::pos(v as Var) })
                        .collect();
                    if !s.add_blocking_clause(&blocking) {
                        break;
                    }
                }
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn assumptions_restrict_the_search() {
        // (x1 | x2) with assumption ~x1 forces x2; the solver stays reusable.
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert_eq!(s.search_with_assumptions(&[lit(-1)]), SearchResult::Sat);
        let m = s.model();
        assert!(!m[0] && m[1]);
        // Same solver, opposite assumption.
        assert_eq!(s.search_with_assumptions(&[lit(1), lit(-2)]), SearchResult::Sat);
        let m = s.model();
        assert!(m[0] && !m[1]);
    }

    #[test]
    fn failed_assumptions_form_a_core() {
        // x1 -> x2, x2 -> x3: assuming x1 and ~x3 is unsat; x2-related assumptions are
        // irrelevant and must not appear in the core.
        let mut s = Solver::new(4, SatConfig::default());
        assert!(s.add_clause(&[lit(-1), lit(2)]));
        assert!(s.add_clause(&[lit(-2), lit(3)]));
        assert_eq!(s.search_with_assumptions(&[lit(4), lit(1), lit(-3)]), SearchResult::Unsat);
        let core: Vec<Lit> = s.failed_assumptions().to_vec();
        assert!(core.contains(&lit(1)), "{core:?}");
        assert!(core.contains(&lit(-3)), "{core:?}");
        assert!(!core.contains(&lit(4)), "irrelevant assumption in core: {core:?}");
        // Without the contradictory assumptions the formula is satisfiable again.
        assert_eq!(s.search_with_assumptions(&[lit(4)]), SearchResult::Sat);
    }

    #[test]
    fn contradictory_assumption_pair_is_its_own_core() {
        let mut s = Solver::new(3, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2), lit(3)]));
        assert_eq!(s.search_with_assumptions(&[lit(2), lit(-2)]), SearchResult::Unsat);
        let core = s.failed_assumptions();
        assert!(core.contains(&lit(2)) && core.contains(&lit(-2)), "{core:?}");
    }

    #[test]
    fn root_unsat_yields_an_empty_core() {
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1)]));
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.search_with_assumptions(&[lit(2)]), SearchResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn assumptions_with_linear_constraints() {
        // exactly-one over x1..x3; assuming x1 and x2 must fail with both in the core.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(LinearSpec::cardinality(None, vec![lit(1), lit(2), lit(3)], 1, 1));
        assert_eq!(s.search_with_assumptions(&[lit(1), lit(2)]), SearchResult::Unsat);
        let core = s.failed_assumptions();
        assert!(core.contains(&lit(1)) && core.contains(&lit(2)), "{core:?}");
        assert_eq!(s.search_with_assumptions(&[lit(2)]), SearchResult::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn learned_clauses_from_safe_antecedents_are_exported() {
        // x1 -> x2 -> x3 -> ~x1, all program clauses: refuting the assumption x1
        // learns the program consequence ~x1, which must be exported.
        let mut s = Solver::new(3, SatConfig::default());
        assert!(s.add_clause_safe(&[lit(-1), lit(2)]));
        assert!(s.add_clause_safe(&[lit(-2), lit(3)]));
        assert!(s.add_clause_safe(&[lit(-3), lit(-1)]));
        assert_eq!(s.search_with_assumptions(&[lit(1)]), SearchResult::Unsat);
        let exported: Vec<Vec<Lit>> = s.safe_learned_clauses().map(|c| c.to_vec()).collect();
        assert!(
            exported.iter().any(|c| c.as_slice() == [lit(-1)]),
            "the program consequence ~x1 must be exported: {exported:?}"
        );
    }

    #[test]
    fn learned_clauses_tainted_by_unsafe_units_are_not_exported() {
        // x2 is a per-solve root unit (e.g. an #external guard). The conflict that
        // refutes the assumption x1 resolves through it, so the learned clause is
        // only valid for solves where x2 holds — it must NOT be exported.
        let mut s = Solver::new(3, SatConfig::default());
        assert!(s.add_clause(&[lit(2)])); // unsafe per-solve unit
        assert!(s.add_clause_safe(&[lit(-1), lit(3)]));
        assert!(s.add_clause_safe(&[lit(-3), lit(-2), lit(-1)]));
        assert_eq!(s.search_with_assumptions(&[lit(1)]), SearchResult::Unsat);
        assert_eq!(
            s.safe_learned_clauses().count(),
            0,
            "clauses depending on the unsafe unit must not be exported"
        );
    }

    #[test]
    fn clause_cache_deduplicates() {
        let mut cache = ClauseCache::default();
        cache.add(&[lit(1), lit(2)]);
        cache.add(&[lit(2), lit(1)]); // same clause, different order
        cache.add(&[lit(1)]);
        cache.add(&[]); // ignored
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn trusted_load_matches_add_clause_safe() {
        // The same canonical clause stream, loaded both ways, must produce solvers
        // with identical stored clauses, identical level-0 assignments, and identical
        // provenance bits.
        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(1), lit(2)],
            vec![lit(-1), lit(3)],
            vec![lit(-2), lit(-3), lit(4)],
            vec![lit(5)],
            vec![lit(-5), lit(2)],
        ];
        let canonical: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        let mut a = Solver::new(5, SatConfig::default());
        for c in &canonical {
            assert!(a.add_clause_safe(c));
        }
        let mut b = Solver::new(5, SatConfig::default());
        assert!(b.load_trusted_clauses(canonical.iter().map(|c| c.as_slice()), true));
        assert_eq!(a.clauses, b.clauses);
        assert_eq!(a.clause_safe, b.clause_safe);
        assert_eq!(a.var0_safe, b.var0_safe);
        assert_eq!(a.assignment.len(), b.assignment.len());
        for v in 0..5 {
            assert_eq!(a.assignment[v], b.assignment[v], "level-0 assignment of x{v}");
        }
        assert_eq!(a.search(), SearchResult::Sat);
        assert_eq!(b.search(), SearchResult::Sat);
        assert_eq!(a.model(), b.model());
    }

    #[test]
    fn trusted_load_detects_root_conflict() {
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.load_trusted_clauses([&[lit(1)][..]], true));
        assert!(!s.load_trusted_clauses([&[lit(-1)][..]], true));
        assert_eq!(s.search(), SearchResult::Unsat);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical-form contract")]
    fn trusted_load_catches_corrupted_clause_in_debug() {
        // An unsorted (corrupted) clause must trip the debug validation assert —
        // the backstop for bit flips in cached clauses replayed into a rebuild.
        let mut s = Solver::new(3, SatConfig::default());
        s.load_trusted_clauses([&[lit(3), lit(1)][..]], true);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical-form contract")]
    fn trusted_load_catches_out_of_range_variable_in_debug() {
        let mut s = Solver::new(2, SatConfig::default());
        s.load_trusted_clauses([&[lit(1), lit(7)][..]], true);
    }

    #[test]
    fn expired_budget_interrupts_the_search() {
        use std::sync::Arc;
        // An armed budget interrupts before any verdict; clearing it restores the
        // solver.
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        let budget = Arc::new(SolveBudgetState::new(None));
        budget.arm();
        s.set_budget(Some(budget));
        assert_eq!(s.search(), SearchResult::Interrupted);
        s.set_budget(None);
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn conflict_limit_arms_the_budget() {
        use std::sync::Arc;
        // An unsatisfiable pigeonhole-style core needs conflicts to refute; a
        // one-conflict ceiling interrupts the proof instead.
        let mut s = Solver::new(4, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert!(s.add_clause(&[lit(1), lit(-2)]));
        assert!(s.add_clause(&[lit(-1), lit(3)]));
        assert!(s.add_clause(&[lit(-1), lit(-3)]));
        let budget = Arc::new(SolveBudgetState::new(Some(1)));
        s.set_budget(Some(budget.clone()));
        assert_eq!(s.search(), SearchResult::Interrupted);
        assert!(budget.expired());
        assert!(budget.conflicts() >= 1);
    }

    #[test]
    fn clause_cache_drops_tautologies() {
        let mut cache = ClauseCache::default();
        cache.add(&[lit(1), lit(-1)]); // tautology: not canonical, must not be shelved
        cache.add(&[lit(1), lit(2)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn arena_push_index_iter() {
        let mut arena = ClauseArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.push(&[lit(1), lit(-2)]), 0);
        assert_eq!(arena.push(&[]), 1);
        assert_eq!(arena.push(&[lit(3), lit(2), lit(-1)]), 2);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.num_lits(), 5);
        assert_eq!(&arena[0], &[lit(1), lit(-2)]);
        assert!(arena[1].is_empty());
        assert_eq!(&arena[2], &[lit(3), lit(2), lit(-1)]);
        // Clauses are mutable in place (the watch swaps of propagation).
        arena[2].swap(0, 2);
        assert_eq!(&arena[2], &[lit(-1), lit(2), lit(3)]);
        let all: Vec<&[Lit]> = arena.iter().collect();
        assert_eq!(all, vec![&[lit(1), lit(-2)][..], &[][..], &[lit(-1), lit(2), lit(3)][..]]);
        assert_eq!(arena.iter().len(), 3);
        arena.truncate(2);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.num_lits(), 2);
        arena.truncate(0);
        assert!(arena.is_empty() && arena.num_lits() == 0);
        assert_eq!(arena, ClauseArena::default());
    }

    #[test]
    fn arena_canonical_push_sorts_dedups_and_drops_tautologies() {
        let mut arena = ClauseArena::new();
        assert_eq!(arena.push_canonical([lit(3), lit(1), lit(3), lit(-2), lit(1)]), Some(0));
        assert_eq!(&arena[0], &[lit(1), lit(-2), lit(3)]);
        assert_eq!(arena.push_canonical([lit(2), lit(4), lit(-2)]), None);
        assert_eq!(arena.len(), 1, "a tautology leaves nothing behind");
        assert_eq!(arena.num_lits(), 3);
        assert_eq!(arena.push_canonical([lit(-4)]), Some(1));
        assert_eq!(&arena[1], &[lit(-4)]);
    }

    #[test]
    fn arena_clone_is_equal_and_independent() {
        let mut arena = ClauseArena::new();
        arena.push(&[lit(1), lit(2)]);
        arena.push(&[lit(-1), lit(3), lit(4)]);
        let mut copy = arena.clone();
        assert_eq!(copy, arena);
        assert_eq!(format!("{copy:?}"), format!("{arena:?}"));
        copy[0][0] = lit(5);
        assert_ne!(copy, arena);
        assert_eq!(&arena[0], &[lit(1), lit(2)]);
    }

    #[test]
    fn arena_retain_indexed_compacts_in_order() {
        let mut arena = ClauseArena::new();
        for i in 1..=6 {
            arena.push(&vec![lit(i); i as usize]);
        }
        arena.retain_indexed(|i, clause| {
            assert_eq!(clause.len(), i + 1, "the predicate sees the original clause");
            i % 2 == 1
        });
        let kept: Vec<Vec<Lit>> = arena.iter().map(<[Lit]>::to_vec).collect();
        assert_eq!(kept, vec![vec![lit(2); 2], vec![lit(4); 4], vec![lit(6); 6]]);
        assert_eq!(arena.num_lits(), 12);
        arena.retain_indexed(|_, _| false);
        assert!(arena.is_empty() && arena.num_lits() == 0);
    }

    #[test]
    fn reduce_learned_compacts_and_remaps_locked_reasons() {
        let mut s = Solver::new(6, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2), lit(3)])); // 0: problem clause
        s.record_learned(vec![lit(4), lit(5), lit(6)], true); // 1: reason of x4 (locked)
        s.record_learned(vec![lit(4), lit(2), lit(3)], true); // 2: unlocked, inactive
        s.record_learned(vec![lit(4), lit(-2), lit(-3)], true); // 3: unlocked, active
        s.record_learned(vec![lit(-1), lit(2), lit(3)], false); // 4: reason of ~x1 (locked)
        s.clause_activity[3] = 10.0;
        assert_eq!(s.reason[0], Reason::Clause(4));
        assert_eq!(s.reason[3], Reason::Clause(1));
        s.max_learned = 1;
        s.reduce_learned();

        assert_eq!(s.stats.deleted, 1, "only the inactive unlocked clause goes");
        let kept: Vec<Vec<Lit>> = s.clauses.iter().map(<[Lit]>::to_vec).collect();
        assert_eq!(
            kept,
            vec![
                vec![lit(1), lit(2), lit(3)],
                vec![lit(4), lit(5), lit(6)],
                vec![lit(4), lit(-2), lit(-3)],
                vec![lit(-1), lit(2), lit(3)],
            ]
        );
        assert_eq!(s.clause_learned, vec![false, true, true, true]);
        assert_eq!(s.clause_safe, vec![false, true, true, false]);
        assert_eq!(s.clause_activity[2], 10.0);
        // The locked reasons follow their clauses to the new indices.
        assert_eq!(s.reason[0], Reason::Clause(3));
        assert_eq!(s.reason[3], Reason::Clause(1));
        // Every kept clause is watched on its first two literals, and nothing else is.
        let mut watched: Vec<(u32, Lit)> = Vec::new();
        for (l, list) in s.watches.iter().enumerate() {
            for w in list {
                watched.push((w.ci, Lit(l as u32).negate()));
            }
        }
        watched.sort();
        let mut expected: Vec<(u32, Lit)> = (0..s.clauses.len())
            .flat_map(|ci| [(ci as u32, s.clauses[ci][0]), (ci as u32, s.clauses[ci][1])])
            .collect();
        expected.sort();
        assert_eq!(watched, expected);
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn search_path_with_reductions_is_pinned() {
        // Pigeonhole with one hole as a cardinality constraint (stored linear reasons),
        // restarting every few conflicts with a tiny learned-clause cap, so restarts
        // compact the clause arena again and again. The counters pin the exact search:
        // how clauses are stored and compacted must not move them.
        let config = SatConfig { restart_base: 4, learned_limit: 1, ..SatConfig::default() };
        let (pigeons, holes) = (7, 6);
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut s = Solver::new(pigeons * holes, config);
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            assert!(s.add_clause(&clause));
        }
        let first_hole = (0..pigeons).map(|p| Lit::pos(var(p, 0))).collect();
        s.add_linear(LinearSpec::cardinality(None, first_hole, 0, 1));
        for h in 1..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]));
                }
            }
        }
        assert_eq!(s.search(), SearchResult::Unsat);
        let st = &s.stats;
        assert_eq!(
            (st.conflicts, st.decisions, st.propagations, st.restarts, st.learned, st.deleted),
            (1560, 3160, 28643, 125, 1559, 974)
        );
    }

    #[test]
    fn phase_saving_respects_config() {
        let mut s = Solver::new(
            5,
            SatConfig { default_phase: true, random_polarity: 0.0, ..SatConfig::default() },
        );
        assert_eq!(s.search(), SearchResult::Sat);
        assert!(s.model().iter().all(|&b| b), "default phase true => all-true model");
        let mut s = Solver::new(
            5,
            SatConfig { default_phase: false, random_polarity: 0.0, ..SatConfig::default() },
        );
        assert_eq!(s.search(), SearchResult::Sat);
        assert!(s.model().iter().all(|&b| !b));
    }
}
