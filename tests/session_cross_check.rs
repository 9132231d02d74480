//! Cross-checks of multi-shot sessions against one-shot solves.
//!
//! A [`spack_concretizer::ConcretizerSession`] answers requests from a frozen,
//! whole-repository base through relevance-restricted delta grounding — an entirely
//! different code path from a one-shot [`spack_concretizer::Concretizer::concretize`]
//! call, which grounds the request's closure from scratch. These tests pin the
//! contract that the two are *observationally identical*: same DAG (rendered), same
//! reuse/build partition, same objective vector, and — for unsatisfiable requests —
//! the same diagnostics, over randomized synthetic repositories shaped like the
//! bench's `Medium` and `Wide` tiers and across solver seeds, with SAT and UNSAT
//! requests interleaved on one session and batch mode cross-checked against both.
//! A threaded stress test hammers one session from several OS threads against a
//! one-shot oracle under a watchdog timeout.

use proptest::prelude::*;

use spack_concretizer::{Concretization, ConcretizeError, Concretizer, SiteConfig, SolveOptions};
use spack_repo::{builtin_repo, synth_repo, SynthConfig};
use spack_spec::parse_spec;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// Render everything a caller can observe about a result, for equality comparison.
fn render(result: &Result<Concretization, ConcretizeError>) -> String {
    match result {
        Ok(c) => {
            let mut reused = c.reused.clone();
            reused.sort();
            let mut built = c.built.clone();
            built.sort();
            format!("OK\n{}\ncost={:?}\nreused={reused:?}\nbuilt={built:?}", c.spec, c.cost)
        }
        Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
            let lines: Vec<String> = diagnostics
                .iter()
                .map(|d| {
                    format!(
                        "{:?}|{}|{}|{}|{:?}",
                        d.severity, d.priority, d.code, d.message, d.provenance
                    )
                })
                .collect();
            format!("UNSAT\n{}", lines.join("\n"))
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// The request list for a synthetic repository: a mix of plain roots, a pinned
/// version that usually exists, and a pinned version that never does (UNSAT).
fn requests_for(repo: &spack_repo::Repository, picks: &[usize]) -> Vec<String> {
    let names: Vec<String> = repo.names().map(str::to_string).collect();
    let mut specs = Vec::new();
    for (i, pick) in picks.iter().enumerate() {
        let name = &names[pick % names.len()];
        match i % 3 {
            0 => specs.push(name.clone()),
            1 => specs.push(format!("{name}@9999.0")), // never declared: UNSAT
            _ => specs.push(format!("{name}@0:")),     // satisfied by every version
        }
    }
    specs
}

/// Session-mode, batch-mode, and one-shot solves with solver seed `seed` must be
/// observationally identical, including interleaved SAT and UNSAT requests on one
/// long-lived session.
fn assert_session_matches_one_shot(repo: &spack_repo::Repository, seed: u64, specs: &[String]) {
    let concretizer = Concretizer::new(repo)
        .with_options(SolveOptions::new().site(SiteConfig::minimal()).seed(seed));
    let session = concretizer.session().expect("session build");
    // Interleaved sequential requests on ONE session.
    for spec in specs {
        let one = render(&concretizer.concretize_str(spec));
        let ses = render(&session.concretize_str(spec));
        assert_eq!(one, ses, "spec `{spec}` (seed {seed}): session result differs from one-shot");
    }
    // Batch mode on the same session, cross-checked against the one-shot renderings.
    let parsed: Vec<Vec<spack_spec::Spec>> =
        specs.iter().filter_map(|s| parse_spec(s).ok().map(|p| vec![p])).collect();
    let batch = session.concretize_batch(&parsed);
    assert_eq!(batch.len(), parsed.len());
    for (request, result) in parsed.iter().zip(&batch) {
        let text = request[0].to_string();
        let one = render(&concretizer.concretize(request));
        assert_eq!(one, render(result), "spec `{text}`: batch result differs from one-shot");
    }
    let stats = session.stats();
    assert_eq!(stats.base_grounds, 1, "the base must be ground exactly once");
    assert_eq!(stats.requests, (specs.len() + parsed.len()) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Medium-shaped synthetic repositories (dependency chain + extra virtuals, the
    /// bench `Scale::Medium` structure at test-friendly size).
    #[test]
    fn session_matches_one_shot_on_medium_shaped_repos(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..50, 4..7),
    ) {
        let repo = synth_repo(&SynthConfig {
            packages: 48,
            chain_depth: 10,
            extra_virtuals: 2,
            seed,
            ..Default::default()
        });
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, 0, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Wide-shaped synthetic repositories (high fan-out, virtual-heavy — the bench
    /// `Scale::Wide` structure at test-friendly size).
    #[test]
    fn session_matches_one_shot_on_wide_shaped_repos(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..50, 4..7),
    ) {
        let repo = synth_repo(&SynthConfig {
            packages: 40,
            max_deps: 8,
            mpi_fraction: 0.6,
            seed,
            ..Default::default()
        });
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, 0, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Medium-shaped synthetic repositories across solver seeds: the seed steers the
    /// search, and session results must still be byte-identical to one-shot.
    #[test]
    fn session_matches_oneshot_across_seeds_on_medium_shaped_repos(
        repo_seed in 0u64..200,
        solver_seed in 0u64..8,
        picks in proptest::collection::vec(0usize..50, 3..6),
    ) {
        let repo = synth_repo(&SynthConfig {
            packages: 48,
            chain_depth: 10,
            extra_virtuals: 2,
            seed: repo_seed,
            ..Default::default()
        });
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, solver_seed, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Wide-shaped synthetic repositories across solver seeds: session results are
    /// byte-identical to one-shot.
    #[test]
    fn session_matches_oneshot_across_seeds_on_wide_shaped_repos(
        repo_seed in 0u64..200,
        solver_seed in 0u64..8,
        picks in proptest::collection::vec(0usize..50, 3..6),
    ) {
        let repo = synth_repo(&SynthConfig {
            packages: 40,
            max_deps: 8,
            mpi_fraction: 0.6,
            seed: repo_seed,
            ..Default::default()
        });
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, solver_seed, &specs);
    }
}

/// Reuse coverage: with an installed database behind the session, results (including
/// the reused/built partition and the reuse criteria in the objective vector) stay
/// identical to one-shot solves.
#[test]
fn session_matches_one_shot_with_buildcache() {
    let repo = builtin_repo();
    let cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
    let concretizer = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()).database(&cache));
    let session = concretizer.session().expect("session build");
    for spec in ["zlib", "hdf5", "mpileaks", "zlib@9.9", "example~bzip", "netcdf-c ^hdf5~mpi"] {
        let one = render(&concretizer.concretize_str(spec));
        let ses = render(&session.concretize_str(spec));
        assert_eq!(one, ses, "spec `{spec}` (with reuse): session differs from one-shot");
    }
}

/// A session answering many requests (>= 8, SAT and UNSAT interleaved) grounds the
/// base exactly once; every request grounding is an incremental delta that reuses
/// frozen base instances and pays no program-parsing time.
#[test]
fn session_grounds_base_once_across_many_requests() {
    let repo = builtin_repo();
    let concretizer =
        Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
    let session = concretizer.session().expect("session build");
    let specs = [
        "zlib",
        "zlib@9.9",
        "bzip2",
        "hdf5",
        "example",
        "netcdf-c ^hdf5~mpi",
        "mpileaks",
        "example~bzip",
        "hdf5@1.10:",
    ];
    assert!(specs.len() >= 8);
    for spec in specs {
        match session.concretize_str(spec) {
            Ok(result) => {
                assert!(result.stats.ground.delta, "{spec}: must ground incrementally");
                assert!(result.stats.ground.reused_rules > 0, "{spec}: must reuse the base");
                assert_eq!(
                    result.timings.load,
                    std::time::Duration::ZERO,
                    "{spec}: program parsing is amortized into the session"
                );
            }
            Err(ConcretizeError::Unsatisfiable { stats, .. }) => {
                assert_eq!(
                    stats.second_phase_ground,
                    std::time::Duration::ZERO,
                    "{spec}: diagnostics must not reground"
                );
            }
            Err(other) => panic!("{spec}: unexpected error {other}"),
        }
    }
    let stats = session.stats();
    assert_eq!(stats.base_grounds, 1);
    assert_eq!(stats.requests, specs.len() as u64);
}

/// Threaded stress: several OS threads hammer one session with a mixed SAT/UNSAT
/// request stream; every result must equal the one-shot oracle, with no panic or
/// deadlock. A watchdog thread bounds the test — a deadlock fails loudly instead of
/// hanging the suite.
#[test]
fn threaded_stress_matches_serial_oracle() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let repo = builtin_repo();
        let oneshot =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let specs = ["zlib", "hdf5", "zlib@9.9", "mpileaks", "example", "netcdf-c ^hdf5~mpi"];
        let oracle: Vec<String> =
            specs.iter().map(|s| render(&oneshot.concretize_str(s))).collect();
        let session = oneshot.session().expect("session build");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (session, specs, oracle) = (&session, &specs, &oracle);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        for (i, spec) in specs.iter().enumerate() {
                            let got = render(&session.concretize_str(spec));
                            assert_eq!(
                                got, oracle[i],
                                "thread {t} round {round} spec `{spec}`: differs from oracle"
                            );
                        }
                    }
                });
            }
        });
        tx.send(()).ok();
    });
    // Generous: the stress solves THREADS * ROUNDS * 6 full requests on one core in
    // the worst scheduling; well under a minute in practice.
    match rx.recv_timeout(std::time::Duration::from_secs(600)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("threaded stress timed out — possible deadlock in the session path")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("a stress thread panicked; see the assertion output above")
        }
    }
}
