//! Multi-shot concretizer sessions: ground the base problem once, answer many
//! requests.
//!
//! A one-shot [`Concretizer::concretize`](crate::Concretizer::concretize) call pays
//! setup, program parsing, and grounding from scratch for every request, even though
//! the repository / site / buildcache facts — the overwhelming majority of the ground
//! program — are identical across requests. A [`ConcretizerSession`] amortizes all of
//! that (clingo's multi-shot `ground`/`solve` workflow):
//!
//! 1. **Base, once** — [`Concretizer::session`](crate::Concretizer::session) emits the
//!    base facts for the *whole* repository ([`crate::FactBuilder::base`],
//!    digest-keyed), parses `concretize.lp` + `error_guard.lp`, and grounds everything
//!    into a frozen base ([`asp::Control::freeze_base`]).
//! 2. **Requests, many** — each [`ConcretizerSession::concretize`] forks a cheap
//!    per-request control from the frozen base, adds only the request's spec facts,
//!    and grounds them *incrementally* (semi-naive continuation + touched-rule
//!    re-instantiation). Results are identical to one-shot solves — the cross-check
//!    proptests assert DAG, objective vector, and diagnostics equality.
//! 3. **Batches, parallel** — [`ConcretizerSession::concretize_batch`] solves
//!    independent requests concurrently (rayon); the session is `Sync`, every request
//!    works on its own fork of the shared frozen base.
//!
//! This is the enabling layer for serving concretization as a long-lived service
//! (sharding and an async front end ride on top of it — see the ROADMAP).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use spack_repo::{Repository, VersionDecl};
use spack_spec::{parse_spec, Spec, Version};
use spack_store::{synthesize_install, BuildcacheConfig, Database};

use crate::facts::BaseFacts;
use crate::{
    solve_prepared, Concretization, ConcretizeError, Concretizer, CONCRETIZE_LP, ERROR_GUARD_LP,
};

/// A description of base-universe churn — versions published or yanked from the
/// repository, binaries pushed to or removed from the buildcache — to be applied to a
/// live session via [`ConcretizerSession::apply_base_delta`] without tearing the
/// session down.
///
/// The delta itself is pure data: [`BaseDelta::apply`] derives the post-delta
/// repository and database from the current ones, and `apply_base_delta` re-emits the
/// base fact stream and patches the frozen base in place (see
/// [`asp::FrozenControl::patch_base`]). Pure additions (a new version, a new cached
/// binary) take the cheap semi-naive continuation path; removals trigger an id-exact
/// closure rebuild that still reuses every unaffected frozen instance. Either way,
/// subsequent solves are byte-identical to a fresh session of the post-delta universe
/// — the `base_delta_cross_check` proptests pin that contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaseDelta {
    /// Versions to declare, as `(package, version)`. Inserted into the package's
    /// newest-first declaration order (which determines version preference weights),
    /// so publishing a newer version shifts existing weights — such deltas take the
    /// rebuild path. Unknown packages and already-declared versions are ignored.
    pub add_versions: Vec<(String, String)>,
    /// Versions to yank, as `(package, version)`. Unknown entries are ignored.
    pub remove_versions: Vec<(String, String)>,
    /// Packages whose default configuration (plus dependency closure) is pushed to
    /// the buildcache, synthesized via [`spack_store::synthesize_install`] with the
    /// default [`BuildcacheConfig`]. A pure addition: takes the in-place patch path.
    pub install: Vec<String>,
    /// Packages whose installed records are removed from the buildcache (all
    /// replicas, by name).
    pub uninstall: Vec<String>,
}

impl BaseDelta {
    /// Is there nothing to apply?
    pub fn is_empty(&self) -> bool {
        self.add_versions.is_empty()
            && self.remove_versions.is_empty()
            && self.install.is_empty()
            && self.uninstall.is_empty()
    }

    /// Derive the post-delta universe: a repository with the version changes applied
    /// and a database with the install/uninstall changes applied. The inputs are
    /// untouched; the caller owns the results (and must keep them alive as long as a
    /// session patched onto them answers requests).
    pub fn apply(
        &self,
        repo: &Repository,
        database: Option<&Database>,
    ) -> (Repository, Option<Database>) {
        let mut new_repo = repo.clone();
        for (pkg, ver) in &self.remove_versions {
            if let Some(def) = new_repo.get(pkg) {
                let mut def = def.clone();
                let ver = Version::new(ver);
                def.versions.retain(|v| v.version != ver);
                new_repo.add(def);
            }
        }
        for (pkg, ver) in &self.add_versions {
            if let Some(def) = new_repo.get(pkg) {
                let mut def = def.clone();
                let ver = Version::new(ver);
                if !def.versions.iter().any(|v| v.version == ver) {
                    // Keep the newest-first declaration order real recipes use: the
                    // declaration index is the version's preference weight.
                    let at = def
                        .versions
                        .iter()
                        .position(|v| v.version < ver)
                        .unwrap_or(def.versions.len());
                    def.versions.insert(at, VersionDecl { version: ver, deprecated: false });
                }
                new_repo.add(def);
            }
        }
        let mut database = database.cloned();
        if !self.uninstall.is_empty() {
            if let Some(db) = database {
                let gone: std::collections::BTreeSet<&str> =
                    self.uninstall.iter().map(String::as_str).collect();
                database = Some(db.filter(|r| !gone.contains(r.name.as_str())));
            }
        }
        if !self.install.is_empty() {
            let pushed = synthesize_install(&new_repo, &self.install, &BuildcacheConfig::default());
            let mut db = database.unwrap_or_default();
            db.merge(&pushed);
            database = Some(db);
        }
        (new_repo, database)
    }
}

/// Aggregate accounting of a session: how often the base was ground (always exactly
/// once — asserted by tests), how many requests it served, and the amortized costs.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Number of base groundings performed: the one at session construction plus any
    /// full (non-delta) re-ground a request was observed to perform. Always exactly 1
    /// unless the multi-shot path regresses — tests assert this.
    pub base_grounds: u64,
    /// Requests answered so far (single requests and batch members alike).
    pub requests: u64,
    /// In-place base patches applied so far ([`ConcretizerSession::apply_base_delta`]):
    /// live updates the session absorbed without re-grounding the base from scratch.
    pub base_patches: u64,
    /// Order-stable digest of the base fact stream — the session's cache key.
    pub base_digest: u64,
    /// Base facts emitted (repository + site + database).
    pub base_facts: usize,
    /// Packages covered by the base problem (the whole repository).
    pub possible_packages: usize,
    /// Installed records encoded for reuse.
    pub installed: usize,
    /// Wall-clock time of base fact generation (paid once).
    pub base_setup: Duration,
    /// Wall-clock time of parsing the logic programs (paid once).
    pub base_load: Duration,
    /// Wall-clock time of the base grounding (paid once).
    pub base_ground: Duration,
    /// Possible atoms in the frozen base.
    pub base_atoms: usize,
    /// Frozen ground instances available for verbatim reuse by every request.
    pub frozen_instances: usize,
    /// Always zero: sessions share no clauses across requests. Kept, with
    /// `store_misses` and `store_transferred`, only because the repository benchmark
    /// (`perfbench/src/main.rs`) still reads them.
    pub store_hits: u64,
    /// Always zero; see `store_hits`.
    pub store_misses: u64,
    /// Always zero; see `store_hits`.
    pub store_transferred: u64,
}

/// A long-lived concretizer session: built once from a [`Concretizer`], answering many
/// [`ConcretizerSession::concretize`] calls. `&self` everywhere — the session is
/// shareable across threads, and [`ConcretizerSession::concretize_batch`] exploits
/// that for parallel batch concretization.
pub struct ConcretizerSession<'a> {
    repo: &'a Repository,
    frozen: asp::FrozenControl,
    base: BaseFacts,
    base_setup: Duration,
    requests: AtomicU64,
    /// In-place base patches applied ([`ConcretizerSession::apply_base_delta`]).
    base_patches: u64,
    /// Requests whose grounding was NOT an incremental delta on the frozen base.
    /// Structurally this cannot happen (every fork grounds through the base), so any
    /// nonzero value is a regression — it feeds [`SessionStats::base_grounds`], which
    /// tests assert equals exactly 1.
    full_regrounds: AtomicU64,
}

impl<'a> ConcretizerSession<'a> {
    /// Patch the session's frozen base **in place** so it answers subsequent requests
    /// against the post-delta universe — a new version published, a binary pushed to
    /// the buildcache — without re-parsing the programs or re-grounding the base from
    /// scratch. `repo` and `database` are the post-delta inputs (typically from
    /// [`BaseDelta::apply`]); the caller keeps them alive for the session's lifetime.
    ///
    /// The base fact stream is re-emitted for the new universe and diffed against the
    /// frozen one by [`asp::FrozenControl::patch_base`]: pure additions continue the
    /// semi-naive phase-1 fixpoint from the new facts only, removals rebuild the
    /// closure id-exactly while reusing every unaffected frozen instance. The base
    /// digest is recomputed from the new stream, so digest-keyed caches miss
    /// naturally instead of serving stale entries. Results after a patch are
    /// byte-identical to a fresh session of the post-delta universe (proptest-pinned).
    ///
    /// Requires `&mut self`: a patch never races in-flight requests. On error the
    /// session may hold a partially patched base and must be discarded and re-frozen
    /// — the server's shard map does exactly that (evict-and-refreeze).
    pub fn apply_base_delta(
        &mut self,
        repo: &'a Repository,
        database: Option<&'a Database>,
    ) -> Result<asp::PatchStats, ConcretizeError> {
        let site = self.base.site().clone();
        let mut staged = self.frozen.request();
        let new_base = crate::FactBuilder::new(repo, &site, database).base(&mut staged)?;
        let stats = self
            .frozen
            .patch_base(staged, &new_base.partition_symbols())
            .map_err(|e| ConcretizeError::Setup(format!("base patch failed: {e}")))?;
        self.repo = repo;
        self.base = new_base;
        self.base_patches += 1;
        Ok(stats)
    }
}

/// Render a `catch_unwind` payload into the human-readable panic message (the
/// standard `&str` / `String` payloads; anything else gets a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".to_string()
    }
}

impl<'a> Concretizer<'a> {
    /// Build a multi-shot session: base facts for the whole repository are generated
    /// and ground exactly once; the returned session answers any number of requests
    /// (each grounding only its own spec facts) and solves batches in parallel.
    pub fn session(&self) -> Result<ConcretizerSession<'a>, ConcretizeError> {
        let setup_start = Instant::now();
        let mut ctl = asp::Control::new(self.solver.clone());
        let base = crate::FactBuilder::new(self.repo, &self.site, self.database).base(&mut ctl)?;
        let base_setup = setup_start.elapsed();
        ctl.add_program(CONCRETIZE_LP)?;
        ctl.add_program(ERROR_GUARD_LP)?;
        let frozen = ctl.freeze_base_partitioned(&base.partition_symbols())?;
        Ok(ConcretizerSession {
            repo: self.repo,
            frozen,
            base,
            base_setup,
            requests: AtomicU64::new(0),
            base_patches: 0,
            full_regrounds: AtomicU64::new(0),
        })
    }
}

impl ConcretizerSession<'_> {
    /// Concretize a single spec given as text.
    pub fn concretize_str(&self, text: &str) -> Result<Concretization, ConcretizeError> {
        let spec = parse_spec(text).map_err(|e| ConcretizeError::Setup(e.to_string()))?;
        self.concretize(std::slice::from_ref(&spec))
    }

    /// Concretize one request (one or more root specs) on the session: fork a control
    /// from the frozen base, add the request's spec facts, ground incrementally, and
    /// solve. Identical in outcome to
    /// [`Concretizer::concretize`](crate::Concretizer::concretize) — only the
    /// amortization differs (a request's reported `load` time is zero and its `ground`
    /// time covers the delta grounding only).
    pub fn concretize(&self, roots: &[Spec]) -> Result<Concretization, ConcretizeError> {
        self.concretize_tuned(roots, |_| {})
    }

    /// [`ConcretizerSession::concretize`] with a per-request tweak of the forked
    /// control's solver configuration — the frozen base's configuration stays
    /// untouched. This is how the durable batch runner retries a dead-lettered
    /// timeout with a diversified seed and an escalated budget without rebuilding
    /// the session.
    pub fn concretize_tuned<F>(
        &self,
        roots: &[Spec],
        tune: F,
    ) -> Result<Concretization, ConcretizeError>
    where
        F: FnOnce(&mut asp::SolverConfig),
    {
        if roots.is_empty() {
            return Err(ConcretizeError::Setup("at least one root spec is required".into()));
        }
        // Test hook for the batch panic-isolation harness: a request whose first
        // root matches $SPACK_CONCRETIZE_PANIC_ON panics from deep inside the
        // per-request work, exactly where a real solver bug would.
        if let Ok(poison) = std::env::var("SPACK_CONCRETIZE_PANIC_ON") {
            if roots.iter().any(|r| r.name.as_deref() == Some(poison.as_str())) {
                panic!("injected panic: request for '{poison}' poisoned by test hook");
            }
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let setup_start = Instant::now();
        let mut ctl = self.frozen.request();
        tune(ctl.solver_config_mut());
        let setup_info = self.base.request(self.repo, &mut ctl, roots)?;
        // Relevance restriction: this request's view of the frozen base drops every
        // package outside its dependency closure (and those packages' condition-id
        // ranges), so the delta grounding (and the solve after it) is closure-sized —
        // the same scope a one-shot solve of these roots would ground — instead of
        // universe-sized.
        let (symbols, id_ranges) = self.base.request_exclusions(self.repo, roots);
        ctl.restrict_symbols(symbols);
        ctl.restrict_int_ranges(id_ranges);
        let setup_time = setup_start.elapsed();
        let result = solve_prepared(self.repo, roots, ctl, setup_info, setup_time);
        // The "base ground exactly once" accounting is derived from what actually
        // happened: a request whose grounding was not an incremental delta would be
        // a silent re-ground of the universe, and must show up in the stats —
        // on the unsatisfiable path too (DiagnosticsStats mirrors the delta flag).
        let was_delta = match &result {
            Ok(c) => c.stats.ground.delta,
            Err(ConcretizeError::Unsatisfiable { stats, .. }) => stats.ground_delta,
            Err(ConcretizeError::Budget { stats, .. }) => stats.ground.delta,
            Err(_) => true, // failed before grounding: nothing was re-ground
        };
        if !was_delta {
            self.full_regrounds.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Concretize a batch of independent requests in parallel, one result per request
    /// (in input order). Each request solves on its own fork of the shared frozen
    /// base, so failures (including unsatisfiable requests, which carry their full
    /// diagnostics) are per-request and never poison the batch. Panics are isolated
    /// too: a request that panics becomes [`ConcretizeError::Internal`] for that item
    /// instead of killing the batch thread pool.
    pub fn concretize_batch(
        &self,
        requests: &[Vec<Spec>],
    ) -> Vec<Result<Concretization, ConcretizeError>> {
        requests
            .par_iter()
            .map(|roots| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.concretize(roots)))
                    .unwrap_or_else(|payload| {
                        Err(ConcretizeError::Internal(panic_message(payload)))
                    })
            })
            .collect()
    }

    /// The digest of the base fact stream — the session's cache key.
    pub fn base_digest(&self) -> u64 {
        self.base.digest()
    }

    /// Session accounting: base ground exactly once, requests served, amortized costs.
    pub fn stats(&self) -> SessionStats {
        let ground = self.frozen.base_stats();
        SessionStats {
            // One base grounding at construction, plus any full re-ground a request
            // was observed to perform (always 0 unless the multi-shot path regresses).
            base_grounds: 1 + self.full_regrounds.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            base_patches: self.base_patches,
            base_digest: self.base.digest(),
            base_facts: self.base.fact_count(),
            possible_packages: self.base.possible_packages(),
            installed: self.base.installed(),
            base_setup: self.base_setup,
            base_load: self.frozen.load_time(),
            base_ground: ground.duration,
            base_atoms: ground.atoms,
            frozen_instances: self.frozen.frozen_instances(),
            store_hits: 0,
            store_misses: 0,
            store_transferred: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcretizeError, SiteConfig, SolveOptions};
    use spack_repo::builtin_repo;

    fn render(result: &Result<Concretization, ConcretizeError>) -> String {
        match result {
            Ok(c) => format!("{}|cost={:?}", c.spec, c.cost),
            Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
                format!("UNSAT|{:?}", diagnostics)
            }
            Err(e) => format!("ERR|{e}"),
        }
    }

    #[test]
    fn session_matches_one_shot_solves() {
        let repo = builtin_repo();
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let session = concretizer.session().unwrap();
        for spec in ["zlib", "zlib@1.2.8", "hdf5", "example~bzip", "zlib@9.9"] {
            let one = render(&concretizer.concretize_str(spec));
            let multi = render(&session.concretize_str(spec));
            assert_eq!(one, multi, "spec {spec}: session must match one-shot");
        }
        let stats = session.stats();
        assert_eq!(stats.base_grounds, 1);
        assert_eq!(stats.requests, 5);
        assert!(stats.frozen_instances > 0);
    }

    #[test]
    fn batch_solves_in_parallel_and_preserves_order() {
        let repo = builtin_repo();
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let session = concretizer.session().unwrap();
        let requests: Vec<Vec<spack_spec::Spec>> =
            ["zlib", "zlib@9.9", "hdf5"].iter().map(|s| vec![parse_spec(s).unwrap()]).collect();
        let results = session.concretize_batch(&requests);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ConcretizeError::Unsatisfiable { .. })));
        assert!(results[2].is_ok());
        assert_eq!(session.stats().requests, 3);
    }

    #[test]
    fn colliding_package_names_are_never_excluded() {
        // Package "tcl" shares its name with a variant of "app". A request for
        // "app" has tcl outside its closure — but excluding the symbol "tcl" would
        // also delete app's variant("app","tcl") facts. The collision guard must
        // keep it: session and one-shot results stay identical, variant included.
        use spack_repo::{PackageBuilder, Repository};
        let mut repo = Repository::new();
        repo.add(PackageBuilder::new("tcl").version("8.6").build());
        repo.add(
            PackageBuilder::new("app")
                .version("1.0")
                .variant_bool("tcl", true, "tcl bindings (name collides with a package)")
                .build(),
        );
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::minimal()));
        let session = concretizer.session().unwrap();
        for spec in ["app", "app+tcl", "app~tcl"] {
            let one = render(&concretizer.concretize_str(spec));
            let ses = render(&session.concretize_str(spec));
            assert_eq!(one, ses, "spec {spec}: collision guard must keep variant facts");
            assert!(ses.contains("tcl"), "spec {spec}: the variant must be in the DAG: {ses}");
        }
    }

    #[test]
    fn base_delta_version_publish_patches_in_place() {
        // Publish zlib@2.0 into a live session: post-patch solves must be identical
        // to a fresh session of the post-delta repository, without a second base
        // ground. A newer version shifts preference weights, so this takes the
        // rebuild path — still a patch, not a new session.
        let repo = builtin_repo();
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let mut session = concretizer.session().unwrap();
        let before = render(&session.concretize_str("zlib"));
        assert!(matches!(
            session.concretize_str("zlib@2.0"),
            Err(ConcretizeError::Unsatisfiable { .. })
        ));

        let delta = BaseDelta {
            add_versions: vec![("zlib".to_string(), "2.0".to_string())],
            ..Default::default()
        };
        let (new_repo, _) = delta.apply(&repo, None);
        let stats = session.apply_base_delta(&new_repo, None).unwrap();
        assert!(stats.added_facts > 0);

        let fresh_concretizer = Concretizer::new(&new_repo)
            .with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let fresh = fresh_concretizer.session().unwrap();
        for spec in ["zlib", "zlib@2.0", "zlib@1.2.8", "hdf5", "example~bzip"] {
            let patched = render(&session.concretize_str(spec));
            let scratch = render(&fresh.concretize_str(spec));
            assert_eq!(patched, scratch, "spec {spec}: patched session must match fresh");
        }
        assert_ne!(before, render(&session.concretize_str("zlib")), "zlib must pick 2.0 now");
        assert_eq!(session.base_digest(), fresh.base_digest(), "digests must converge");
        let stats = session.stats();
        assert_eq!(stats.base_grounds, 1, "a patch must not re-ground the base");
        assert_eq!(stats.base_patches, 1);
    }

    #[test]
    fn base_delta_install_takes_the_addition_path() {
        // Pushing binaries into an empty buildcache only adds facts: the patch must
        // take the cheap in-place continuation path (no rebuild), and post-patch
        // solves must reuse the new records exactly like a fresh session would.
        let repo = builtin_repo();
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let mut session = concretizer.session().unwrap();
        assert_eq!(session.stats().installed, 0);

        let delta = BaseDelta { install: vec!["zlib".to_string()], ..Default::default() };
        let (new_repo, new_db) = delta.apply(&repo, None);
        let db = new_db.expect("install must create a database");
        let stats = session.apply_base_delta(&new_repo, Some(&db)).unwrap();
        assert!(!stats.rebuilt, "a pure install must patch in place: {stats:?}");
        assert!(session.stats().installed > 0);

        let fresh_concretizer = Concretizer::new(&new_repo)
            .with_options(SolveOptions::new().site(SiteConfig::quartz()).database(&db));
        let fresh = fresh_concretizer.session().unwrap();
        for spec in ["zlib", "hdf5", "zlib@9.9"] {
            let patched = render(&session.concretize_str(spec));
            let scratch = render(&fresh.concretize_str(spec));
            assert_eq!(patched, scratch, "spec {spec}: patched session must match fresh");
        }
        assert_eq!(session.base_digest(), fresh.base_digest());
        assert_eq!(session.stats().base_grounds, 1);
    }

    #[test]
    fn base_delta_remove_then_re_add_round_trips() {
        let repo = builtin_repo();
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let mut session = concretizer.session().unwrap();
        let original_digest = session.base_digest();
        let original = render(&session.concretize_str("zlib"));

        // Yank the version zlib would have picked; solves must fall back.
        let solved = session.concretize_str("zlib").unwrap();
        let picked = solved
            .spec
            .nodes
            .iter()
            .find(|n| n.name == "zlib")
            .expect("zlib must be in its own DAG")
            .version
            .to_string();
        let yank = BaseDelta {
            remove_versions: vec![("zlib".to_string(), picked.clone())],
            ..Default::default()
        };
        let (yanked_repo, _) = yank.apply(&repo, None);
        let stats = session.apply_base_delta(&yanked_repo, None).unwrap();
        assert!(stats.rebuilt, "a removal must rebuild: {stats:?}");
        let after = render(&session.concretize_str("zlib"));
        assert_ne!(original, after, "the yanked version must no longer be picked");

        // Re-publish it: digest and answers must round-trip back exactly.
        let readd =
            BaseDelta { add_versions: vec![("zlib".to_string(), picked)], ..Default::default() };
        let (restored_repo, _) = readd.apply(&yanked_repo, None);
        session.apply_base_delta(&restored_repo, None).unwrap();
        assert_eq!(session.base_digest(), original_digest, "digest must round-trip");
        assert_eq!(render(&session.concretize_str("zlib")), original);
        assert_eq!(session.stats().base_patches, 2);
        assert_eq!(session.stats().base_grounds, 1);
    }

    #[test]
    fn session_grounds_base_exactly_once_for_many_requests() {
        // Acceptance criterion: a session answering N >= 8 requests grounds the base
        // program exactly once, asserted via stats counters — every request grounding
        // is a delta that reuses frozen base instances.
        let repo = builtin_repo();
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let session = concretizer.session().unwrap();
        let specs =
            ["zlib", "bzip2", "hdf5", "example", "mpileaks", "zlib@1.2.8", "example~bzip", "hdf5"];
        assert!(specs.len() >= 8);
        for spec in specs {
            let result = session.concretize_str(spec).unwrap();
            assert!(result.stats.ground.delta, "{spec}: request must ground incrementally");
            assert!(result.stats.ground.reused_rules > 0, "{spec}: must reuse base instances");
            assert_eq!(result.timings.load, Duration::ZERO, "{spec}: parsing is amortized");
        }
        let stats = session.stats();
        assert_eq!(stats.base_grounds, 1, "the base must have been ground exactly once");
        assert_eq!(stats.requests, specs.len() as u64);
    }
}
