//! Seeded request inputs and their expected outcomes.
//!
//! Every request a workload sends is drawn from a fixed, seed-independent catalog
//! built from the recipes of the universe. The seed only decides which entries are
//! drawn and in what order, so the committed golden table (`perfbench/golden.tsv`)
//! covers every seed. An entry missing from the table (the universe changed) has its
//! expected outcome derived once, untimed, from a one-shot solve.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use spack_concretizer::{Concretization, ConcretizeError, Concretizer, SiteConfig, SolveOptions};
use spack_repo::Repository;
use spack_spec::{parse_spec, Spec};
use spack_store::Database;

/// SplitMix64: a few-line seeded PRNG, so inputs need no new dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a request is designed to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare package name.
    Plain,
    /// A package with one `@version`, `+/~variant` or `^dep` constraint from its recipe.
    Constrained,
    /// Two roots solved into one DAG.
    TwoRoot,
    /// `pkg@99.9`: no such version, so the request must come back unsat.
    Infeasible,
}

/// One request: the spec strings the program sees.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub specs: Vec<String>,
}

impl Request {
    /// The request as one line of text (the golden-table key).
    pub fn key(&self) -> String {
        self.specs.join(" ")
    }

    pub fn roots(&self) -> Vec<Spec> {
        self.specs.iter().map(|s| parse_spec(s).expect("catalog specs parse")).collect()
    }
}

/// Is `version` a prefix-match of the ancient `0.0.1` the served workload publishes
/// and yanks? Constraints on such versions would make those updates change answers.
fn matches_ancient(version: &str) -> bool {
    "0.0.1".starts_with(version)
        && (version.len() == 5 || "0.0.1".as_bytes()[version.len()] == b'.')
}

/// The seed-independent catalog of requests for one universe.
pub struct Catalog {
    pub plain: Vec<Request>,
    pub constrained: Vec<Request>,
    pub two_root: Vec<Request>,
    pub infeasible: Vec<Request>,
    /// Packages whose `0.0.1` may be published and yanked without changing any answer.
    pub churnable: Vec<String>,
    /// The entries the stream draws from, by [`Pool`].
    pools: Vec<Vec<Request>>,
}

/// Packages with at most this many possible dependencies form the small-closure
/// cluster of the paper's Fig. 7c; the others (those reaching the MPI stack) form the
/// large one. The universe has none between 26 and 35.
const SMALL_CLOSURE: usize = 30;

/// The stream's draw pools: each request category split by closure cluster (a request
/// is small when every root is). Infeasible requests are drawn from all packages.
#[derive(Debug, Clone, Copy)]
enum Pool {
    PlainSmall,
    PlainLarge,
    ConstrainedSmall,
    ConstrainedLarge,
    TwoRootSmall,
    Infeasible,
}

impl Catalog {
    pub fn new(repo: &Repository) -> Self {
        let mut names: Vec<&str> = repo.names().collect();
        names.sort_unstable();
        let one = |kind, spec: String| Request { kind, specs: vec![spec] };
        let plain = names.iter().map(|n| one(Kind::Plain, n.to_string())).collect();
        let infeasible = names.iter().map(|n| one(Kind::Infeasible, format!("{n}@99.9"))).collect();
        let mut constrained = Vec::new();
        let mut churnable = Vec::new();
        for name in &names {
            let def = repo.get(name).expect("listed package exists");
            let versions: Vec<String> =
                def.versions.iter().map(|v| v.version.to_string()).collect();
            if let Some(v) = versions.get(1).filter(|v| !matches_ancient(v)) {
                constrained.push(one(Kind::Constrained, format!("{name}@{v}")));
            }
            if let Some(var) = def.variants.iter().find(|v| v.values.is_empty()) {
                let on = matches!(var.default, spack_spec::VariantValue::Bool(true));
                let sigil = if on { '~' } else { '+' };
                constrained.push(one(Kind::Constrained, format!("{name}{sigil}{}", var.name)));
            }
            let dep = def
                .dependencies
                .iter()
                .find(|d| d.when.is_empty())
                .and_then(|d| d.spec.name.clone());
            if let Some(dep) = dep {
                let constraint = if repo.is_virtual(&dep) {
                    repo.providers(&dep).get(1).cloned()
                } else {
                    repo.get(&dep).map(|d| match d.versions.get(1) {
                        Some(v) if !matches_ancient(&v.version.to_string()) => {
                            format!("{dep}@{}", v.version)
                        }
                        _ => dep.clone(),
                    })
                };
                if let Some(c) = constraint {
                    constrained.push(one(Kind::Constrained, format!("{name} ^{c}")));
                }
            }
            if !versions.iter().any(|v| v.starts_with('0')) {
                churnable.push(name.to_string());
            }
        }
        let n = names.len();
        let two_root = (0..n)
            .map(|i| (i, (i * 37 + 11) % n))
            .filter(|(i, j)| i != j)
            .map(|(i, j)| Request {
                kind: Kind::TwoRoot,
                specs: vec![names[i].to_string(), names[j].to_string()],
            })
            .collect();
        let mut catalog =
            Catalog { plain, constrained, two_root, infeasible, churnable, pools: Vec::new() };
        let small = |r: &Request| {
            r.specs.iter().all(|s| {
                let name = parse_spec(s).ok().and_then(|s| s.name).unwrap_or_default();
                repo.possible_dependency_count(&name) <= SMALL_CLOSURE
            })
        };
        let split = |items: &[Request], want: bool| -> Vec<Request> {
            items.iter().filter(|r| small(r) == want).cloned().collect()
        };
        catalog.pools = vec![
            split(&catalog.plain, true),
            split(&catalog.plain, false),
            split(&catalog.constrained, true),
            split(&catalog.constrained, false),
            split(&catalog.two_root, true),
            catalog.infeasible.clone(),
        ];
        catalog
    }

    /// Every entry, in catalog order.
    pub fn all(&self) -> impl Iterator<Item = &Request> {
        self.plain.iter().chain(&self.constrained).chain(&self.two_root).chain(&self.infeasible)
    }
}

/// Draws one category's entries as seeded shuffled cycles: every entry once per cycle.
struct Cycle<'c> {
    items: &'c [Request],
    order: Vec<usize>,
    at: usize,
}

impl<'c> Cycle<'c> {
    fn new(items: &'c [Request]) -> Self {
        Cycle { items, order: Vec::new(), at: 0 }
    }

    fn draw(&mut self, rng: &mut Rng) -> Request {
        if self.at == self.order.len() {
            self.order = (0..self.items.len()).collect();
            rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.items[self.order[self.at - 1]].clone()
    }
}

/// The request mix of one block of the stream, shuffled within the block: 14 plain
/// (10 small-closure, 4 large), 4 constrained (3 small, 1 large), one two-root and one
/// infeasible request. Drawing whole blocks keeps every prefix of the stream close to
/// the designed mix. About 70% of the requests have small closures, so the median
/// latency lies inside the small-closure cluster instead of in the gap between the two
/// clusters, where it would swing with every shift of either.
const BLOCK: [Pool; 20] = {
    use Pool::*;
    [
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainSmall,
        PlainLarge,
        PlainLarge,
        PlainLarge,
        PlainLarge,
        ConstrainedSmall,
        ConstrainedSmall,
        ConstrainedSmall,
        ConstrainedLarge,
        TwoRootSmall,
        Infeasible,
    ]
};

/// Seed of the request population every run draws its order from.
const POPULATION_SEED: u64 = 0x00C0_FFEE;

/// `n` requests in the stream mix, in seeded order.
///
/// The requests themselves are one fixed population, drawn block by block with
/// `POPULATION_SEED`; `seed` shuffles the blocks and the requests within each block.
/// So every seed answers the same requests (its costs do not depend on the seed)
/// while every prefix still follows the designed mix.
pub fn stream(catalog: &Catalog, seed: u64, n: usize) -> Vec<Request> {
    let mut draw = Rng::new(POPULATION_SEED);
    let mut cycles: Vec<Cycle> = catalog.pools.iter().map(|p| Cycle::new(p)).collect();
    let mut blocks: Vec<Vec<Request>> = (0..n.div_ceil(BLOCK.len()))
        .map(|_| BLOCK.iter().map(|&pool| cycles[pool as usize].draw(&mut draw)).collect())
        .collect();
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut blocks);
    for block in &mut blocks {
        rng.shuffle(block);
    }
    let mut requests = blocks.concat();
    requests.truncate(n);
    requests
}

/// Which buildcache a request was solved against: the golden outcome depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cache {
    /// `bench::workload_buildcache` (the one-shot sweep).
    Workload,
    /// `bench::service_buildcache` (the session stream and the served reuse shard).
    Service,
    /// No reuse (the served no-reuse shard).
    None,
}

impl Cache {
    fn as_str(self) -> &'static str {
        match self {
            Cache::Workload => "workload",
            Cache::Service => "service",
            Cache::None => "none",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Cache::Workload, Cache::Service, Cache::None].into_iter().find(|c| c.as_str() == s)
    }
}

/// The expected outcome of one request: its status class and, when it solves, its
/// optimal cost vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub status: String,
    pub cost: Vec<(i64, i64)>,
}

impl Expected {
    pub fn of(result: &Result<Concretization, ConcretizeError>) -> Self {
        let status = spack_concretizer::ResultClass::of(result).as_str().to_string();
        let cost = result.as_ref().map(|c| c.cost.clone()).unwrap_or_default();
        Expected { status, cost }
    }
}

fn render_cost(cost: &[(i64, i64)]) -> String {
    let parts: Vec<String> = cost.iter().map(|(p, v)| format!("{p}={v}")).collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(",")
    }
}

fn parse_cost(text: &str) -> Option<Vec<(i64, i64)>> {
    if text == "-" {
        return Some(Vec::new());
    }
    text.split(',')
        .map(|pair| {
            let (p, v) = pair.split_once('=')?;
            Some((p.parse().ok()?, v.parse().ok()?))
        })
        .collect()
}

/// The golden table: expected outcome per (buildcache, request).
#[derive(Default)]
pub struct Golden {
    table: HashMap<(Cache, String), Expected>,
    /// Entries derived at run time because the committed table lacked them.
    pub derived: usize,
}

impl Golden {
    /// Load the committed table; a missing file is an empty table.
    pub fn load(path: &Path) -> Result<Self, String> {
        let Ok(text) = std::fs::read_to_string(path) else { return Ok(Golden::default()) };
        let mut table = HashMap::new();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{}:{}: malformed golden line", path.display(), i + 1);
            let [cache, key, status, cost] = fields[..] else { return Err(bad()) };
            let cache = Cache::parse(cache).ok_or_else(bad)?;
            let cost = parse_cost(cost).ok_or_else(bad)?;
            table.insert((cache, key.to_string()), Expected { status: status.to_string(), cost });
        }
        Ok(Golden { table, derived: 0 })
    }

    pub fn get(&self, cache: Cache, request: &Request) -> Option<&Expected> {
        self.table.get(&(cache, request.key()))
    }

    /// Make sure every request has an expected outcome, deriving missing ones from
    /// one-shot solves (untimed: callers do this during input synthesis).
    pub fn ensure(&mut self, universe: &Universe, cache: Cache, requests: &[Request]) {
        for request in requests {
            if let Entry::Vacant(slot) = self.table.entry((cache, request.key())) {
                let result = universe.concretizer(cache).concretize(&request.roots());
                slot.insert(Expected::of(&result));
                self.derived += 1;
            }
        }
    }

    /// Render the table for committing, sorted for stable diffs.
    pub fn render(&self) -> String {
        let mut rows: Vec<_> = self.table.iter().collect();
        rows.sort_by(|a, b| (a.0 .0.as_str(), &a.0 .1).cmp(&(b.0 .0.as_str(), &b.0 .1)));
        let mut out =
            String::from("# cache\trequest\tstatus\tcost (priority=value, nonzero levels)\n");
        for ((cache, key), e) in rows {
            let _ =
                writeln!(out, "{}\t{key}\t{}\t{}", cache.as_str(), e.status, render_cost(&e.cost));
        }
        out
    }

    pub fn insert(&mut self, cache: Cache, request: &Request, expected: Expected) {
        self.table.insert((cache, request.key()), expected);
    }
}

/// The universe every workload runs on: `workload_repo(Medium)` and its buildcaches.
pub struct Universe {
    pub repo: Repository,
    pub workload_cache: Database,
    pub service_cache: Database,
}

impl Universe {
    pub fn new() -> Self {
        let repo = bench::workload_repo(bench::Scale::Medium);
        let workload_cache = bench::workload_buildcache(&repo, bench::Scale::Medium);
        let service_cache = bench::service_buildcache(&repo, bench::Scale::Medium);
        Universe { repo, workload_cache, service_cache }
    }

    pub fn database(&self, cache: Cache) -> Option<&Database> {
        match cache {
            Cache::Workload => Some(&self.workload_cache),
            Cache::Service => Some(&self.service_cache),
            Cache::None => None,
        }
    }

    pub fn concretizer(&self, cache: Cache) -> Concretizer<'_> {
        let mut options = SolveOptions::new().site(SiteConfig::quartz());
        if let Some(db) = self.database(cache) {
            options = options.database(db);
        }
        Concretizer::new(&self.repo).with_options(options)
    }
}

/// Compare an outcome with the golden one. `known` is the recorded session answer of
/// a request whose session answer diverges from its one-shot answer at the recorded
/// commit (see `divergent.tsv`): matching it is a known divergence (`Ok(true)`),
/// reported but not failed. Anything else that differs from the golden outcome fails.
pub fn compare(
    request: &Request,
    expected: &Expected,
    known: Option<&Expected>,
    got: &Expected,
) -> Result<bool, String> {
    if got == expected {
        Ok(false)
    } else if known == Some(got) {
        eprintln!("KNOWN DIVERGENCE: '{}': one-shot {expected:?}, here {got:?}", request.key());
        Ok(true)
    } else {
        Err(format!("'{}': expected {expected:?}, got {got:?}", request.key()))
    }
}

/// Check one in-process result against its request and expected outcome: the
/// solver-independent checks first, then [`compare`]. Returns whether the outcome is
/// a known divergence, or a description of the first mismatch.
pub fn check(
    request: &Request,
    expected: &Expected,
    known: Option<&Expected>,
    result: &Result<Concretization, ConcretizeError>,
) -> Result<bool, String> {
    let got = Expected::of(result);
    if request.kind == Kind::Infeasible && got.status != "unsat" {
        return Err(format!("designed-infeasible '{}' came back {}", request.key(), got.status));
    }
    match result {
        Ok(c) => {
            for root in request.roots() {
                if !c.spec.satisfies(&root) {
                    return Err(format!("no root of the DAG satisfies '{}'", request.key()));
                }
            }
            if !c.optimal {
                return Err(format!("'{}' was not proven optimal", request.key()));
            }
        }
        Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) if diagnostics.is_empty() => {
            return Err(format!("unsat '{}' carried no diagnostic", request.key()));
        }
        Err(_) => {}
    }
    compare(request, expected, known, &got)
}
