//! Pins the solver's exact search path on a fixed set of requests.
//!
//! The other tests pin *answers*; these pin the *trajectory*: every solver counter
//! (conflicts, decisions, propagations, restarts, learned and deleted clauses), the
//! number of solver runs, candidate models and loop nogoods, and a digest of the true
//! atoms of the returned model. A change to how clauses are stored, loaded, cloned or
//! compacted must leave all of these bit-identical — if one moves, the solver no longer
//! takes the same path, even when the answers still agree.
//!
//! The expected values change only when the search itself is changed on purpose
//! (heuristics, the logic program, the fact generator, the builtin repo).

use asp::{AssumeOutcome, Assumption, Control, Stats, Value};
use spack_concretizer::{setup_problem, ConcretizeError, Concretizer, SiteConfig, SolveOptions};
use spack_concretizer::{CONCRETIZE_LP, ERROR_GUARD_LP};
use spack_repo::builtin_repo;
use spack_spec::parse_spec;
use spack_store::{synthesize_buildcache, BuildcacheConfig, Database};

/// The counters one solve must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Path {
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    learned: u64,
    deleted: u64,
    solver_runs: u64,
    models_examined: u64,
    loop_nogoods: u64,
}

impl Path {
    fn of(stats: &Stats) -> Self {
        Path {
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
            restarts: stats.restarts,
            learned: stats.learned,
            deleted: stats.deleted,
            solver_runs: stats.solver_runs,
            models_examined: stats.models_examined,
            loop_nogoods: stats.loop_nogoods,
        }
    }
}

/// 64-bit FNV-1a: a hash whose value is fixed by its definition, unlike std's
/// `DefaultHasher`, so a recorded digest stays valid across toolchains.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Number of true atoms and a digest of their sorted text form.
fn model_digest(model: &asp::Model) -> (usize, u64) {
    let mut atoms: Vec<String> = model
        .atoms()
        .iter()
        .map(|(pred, args)| {
            let args: Vec<String> = args.iter().map(|a| a.as_str()).collect();
            format!("{pred}({})", args.join(","))
        })
        .collect();
    atoms.sort();
    (atoms.len(), fnv1a(atoms.join("\n").into_bytes()))
}

/// What one pinned request ended in.
#[derive(Debug, PartialEq, Eq)]
enum End {
    /// Optimal: true-atom count, atom digest, and the nonzero objective levels.
    Model(usize, u64, Vec<(i64, i64)>),
    /// Unsatisfiable, with the unsat core (indices into the assumptions).
    Unsat(Vec<usize>),
}

/// The hard-mode solve of a one-shot concretization, driven through the public
/// `Control` API so the raw model is visible: the same setup, program and assumption
/// order as `Concretizer::concretize`.
fn solve(spec: &str, database: Option<&Database>) -> (Path, End) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let roots = [parse_spec(spec).unwrap()];
    let (mut ctl, info): (Control, _) =
        setup_problem(&repo, &site, database, &roots, asp::SolverConfig::default()).unwrap();
    ctl.add_program(CONCRETIZE_LP).unwrap();
    ctl.add_program(ERROR_GUARD_LP).unwrap();
    ctl.ground().unwrap();
    let mut assumptions =
        vec![Assumption::fails("relax_mode", &[]), Assumption::fails("node_seed", &[])];
    assumptions.extend(
        info.root_conditions.iter().map(|(id, _)| Assumption::holds("assumed", &[Value::Int(*id)])),
    );
    let end = match ctl.solve_with_assumptions(&assumptions).unwrap() {
        AssumeOutcome::Optimal { model, cost } => {
            let (n, digest) = model_digest(&model);
            End::Model(n, digest, cost.into_iter().filter(|&(_, v)| v != 0).collect())
        }
        AssumeOutcome::Unsatisfiable { core } => End::Unsat(core),
        AssumeOutcome::Budget { .. } => panic!("no budget was set"),
    };
    (Path::of(ctl.stats()), end)
}

/// A search path that neither restarts, deletes a learned clause nor finds an
/// unfounded set: none of the pinned requests does (the solver's own unit tests
/// cover those paths).
const fn path(
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    learned: u64,
    solver_runs: u64,
    models_examined: u64,
) -> Path {
    Path {
        conflicts,
        decisions,
        propagations,
        restarts: 0,
        learned,
        deleted: 0,
        solver_runs,
        models_examined,
        loop_nogoods: 0,
    }
}

fn check(spec: &str, database: Option<&Database>, path: Path, end: End) {
    let (got_path, got_end) = solve(spec, database);
    assert_eq!(got_path, path, "search path of `{spec}`");
    assert_eq!(got_end, end, "outcome of `{spec}`");
}

#[test]
fn paper_example_search_path() {
    let end = End::Model(585, 9354937506538270961, vec![(100, 11)]);
    check("example", None, path(4, 765, 33170, 4, 12, 10), end);
}

#[test]
fn hdf5_search_path() {
    let end = End::Model(724, 16581126924713461641, vec![(100, 16)]);
    check("hdf5", None, path(5, 769, 34420, 5, 10, 8), end);
}

#[test]
fn mpileaks_with_reuse_search_path() {
    let cache = synthesize_buildcache(&builtin_repo(), &BuildcacheConfig::default());
    let end = End::Model(3227, 13774801703720370102, vec![(1, 52)]);
    check("mpileaks", Some(&cache), path(17, 704, 92380, 17, 10, 8), end);
}

#[test]
fn unsat_search_path() {
    // Refuted by propagation under the root assumption (index 2, after the two
    // guards) before any optimization run starts.
    check("zlib@9.9", None, path(1, 0, 192, 1, 0, 0), End::Unsat(vec![2]));
}

#[test]
fn unsat_diagnostics_search_path() {
    // The full diagnostics pipeline: core minimization probes (on the hard solve's
    // retired solver) and the relaxed re-solve.
    let repo = builtin_repo();
    let err = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()))
        .concretize_str("zlib@9.9")
        .unwrap_err();
    let ConcretizeError::Unsatisfiable { diagnostics, stats } = err else {
        panic!("`zlib@9.9` must be unsatisfiable");
    };
    let got =
        (stats.core_size, stats.minimized_core_size, stats.minimization_rounds, diagnostics.len());
    assert_eq!(got, (1, 1, 1, 2));
}

#[test]
fn session_repeat_search_path() {
    // Two identical requests on one session: each solves on a solver of its own and
    // nothing crosses from one request to the next, so both take the same search
    // path, bit for bit.
    let repo = builtin_repo();
    let concretizer =
        Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
    let session = concretizer.session().unwrap();
    let roots = [parse_spec("berkeleygw").unwrap()];
    let first = session.concretize(&roots).unwrap();
    let second = session.concretize(&roots).unwrap();
    assert_eq!(first.spec, second.spec);
    assert_eq!(Path::of(&first.stats), path(10, 856, 53249, 10, 13, 8));
    assert_eq!(Path::of(&second.stats), Path::of(&first.stats));
}
