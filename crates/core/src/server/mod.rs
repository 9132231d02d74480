//! The serving layer behind `spack-solved`: an async sharded concretization
//! service over newline-delimited JSON (see [`wire`]).
//!
//! The paper's concretizer answers one `spack install` at a time; the ROADMAP's
//! north star is a service answering millions of requests. Everything needed
//! already existed below this module — [`ConcretizerSession`] is `&self` and
//! thread-safe, solving is budget-bounded with graceful degradation, and the
//! worst-class taxonomy ([`crate::ResultClass`]) gives every outcome a stable
//! status — so this module is deliberately thin plumbing:
//!
//! * **Shard map** — each request routes to a shard keyed by its `(site, reuse)`
//!   combination, i.e. by the [`BaseFacts`](crate::BaseFacts) digest that pair
//!   produces: one lazily-built [`ConcretizerSession`] per distinct base problem,
//!   frozen once and shared by every request that hits it. The `stats` request
//!   reports per-shard session stats (base grounds, ground reuse, base patches)
//!   so the "base ground exactly once per digest" invariant is observable over
//!   the wire.
//! * **Admission queue + worker pool** — requests are parsed on the transport
//!   thread and pushed into a bounded queue (backpressure: admission blocks when
//!   the queue is full, which on a socket leaves bytes unread and pushes back on
//!   the client); a fixed pool of workers executes them on the shard sessions.
//!   A line over [`MAX_LINE_BYTES`] or not valid UTF-8 gets a `parse` response,
//!   and reading goes on with the next line.
//! * **Out-of-order streaming** — each worker writes its response line as soon as
//!   its job resolves, tagged by the request's id; a slow solve never blocks a
//!   fast one behind it.
//! * **Live base updates** — an `update` request carries a
//!   [`crate::BaseDelta`] (repository or buildcache churn) and patches
//!   every built shard session **in place** between in-flight requests
//!   ([`ConcretizerSession::apply_base_delta`]): updates wait for running solves
//!   (they hold the shard's read lock), no in-flight response is lost, and any
//!   solve sent after the update's response sees the post-delta universe. A
//!   shard that cannot absorb the delta incrementally
//!   is evicted and re-frozen from the new universe — the reason lands in the
//!   `stats` response (`last_refreeze`), never in a failed update.
//! * **Graceful shutdown** — a `shutdown` request (or EOF on the pipe) stops
//!   admission; queued and in-flight jobs all complete and their responses are
//!   written before the server exits.
//!
//! Two transports share all of that machinery: [`serve_pipe`] (stdin/stdout —
//! testable, and what CI race-checks against `spack-solve batch --json`) and
//! [`serve_socket`] (a Unix listener, one reader thread per connection, responses
//! multiplexed back on the connection that asked).

pub mod wire;

use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use spack_repo::Repository;
use spack_spec::parse_spec;
use spack_store::Database;

use crate::durable::solve_with_retries;
use crate::session::panic_message;
use crate::{BaseDelta, Concretizer, ConcretizerSession, ResultClass, SiteConfig, SolveOptions};

/// Configuration of a server instance (both transports).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing solves (at least 1).
    pub workers: usize,
    /// Admission-queue depth; a full queue blocks admission (backpressure).
    pub queue_depth: usize,
    /// Site preset used when a request does not name one.
    pub default_site: String,
    /// Reuse default used when a request does not set the `reuse` flag.
    pub default_reuse: bool,
    /// Budget-retry default used when a request does not set `retries`
    /// (mirrors `spack-solve batch --retries`, default 1).
    pub retries: u32,
    /// Deterministic test hook: stall any solve whose roots include this package
    /// name for the given duration before solving. This is how the integration
    /// tests pin down out-of-order completion without racing wall clocks.
    pub stall: Option<(String, Duration)>,
    /// Deterministic test hook: treat every `update` request as un-patchable,
    /// forcing the evict-and-refreeze fallback on all built shards. This is how
    /// tests pin the fallback path without manufacturing a failing delta.
    pub force_refreeze: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            default_site: "quartz".to_string(),
            default_reuse: false,
            retries: 1,
            stall: None,
            force_refreeze: false,
        }
    }
}

/// Resolve a wire site preset name to its [`SiteConfig`].
pub fn site_by_name(name: &str) -> Option<SiteConfig> {
    match name {
        "quartz" => Some(SiteConfig::quartz()),
        "lassen" => Some(SiteConfig::lassen()),
        "minimal" => Some(SiteConfig::minimal()),
        _ => None,
    }
}

/// Per-shard statistics reported by the `stats` request: the shard key, its
/// [`BaseFacts`](crate::BaseFacts) digest, and the session counters that make
/// ground reuse observable (`base_grounds` stays 1 however many requests hit
/// the shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Site preset name of the shard key.
    pub site: String,
    /// Reuse flag of the shard key.
    pub reuse: bool,
    /// The shard session's base-fact digest (distinct per shard by construction).
    pub digest: u64,
    /// Requests answered by this shard's session.
    pub requests: u64,
    /// Base groundings performed (1 unless the multi-shot path regresses).
    pub base_grounds: u64,
    /// Frozen ground instances shared by every request on this shard.
    pub frozen_instances: usize,
    /// Base deltas this shard absorbed in place (across session generations).
    pub patches: u64,
    /// Times this shard's session was rebuilt from scratch by an update.
    pub refreezes: u64,
    /// Times this shard's session was evicted (every refreeze evicts first).
    pub evictions: u64,
    /// Why the most recent eviction happened, if any ever did.
    pub last_refreeze: Option<String>,
}

/// A server-wide statistics snapshot: queue/worker counters plus one
/// [`ShardStats`] per built shard, in deterministic `(site, reuse)` order.
/// Returned by [`serve_pipe`] / [`serve_socket`] at exit and rendered over the
/// wire for `stats` requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs currently admitted but not yet completed.
    pub queue_depth: usize,
    /// Solve requests admitted so far.
    pub jobs_received: u64,
    /// Solve responses written so far.
    pub jobs_completed: u64,
    /// One entry per shard whose session has been built.
    pub shards: Vec<ShardStats>,
}

/// How an `update` request landed across the shard map: every **built** shard is
/// either patched in place or evicted and re-frozen from the post-delta
/// universe; unbuilt shards lazily freeze against it on first use and appear in
/// neither count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Shards whose session absorbed the delta in place.
    pub patched: u64,
    /// Shards whose session was evicted and re-frozen from scratch.
    pub refrozen: u64,
}

/// An append-only arena handing out references that live as long as the arena.
/// Box addresses are stable and entries are never dropped before the arena is,
/// so `alloc` can tie its result to `&self`.
struct Arena<T> {
    items: Mutex<Vec<Box<T>>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena { items: Mutex::new(Vec::new()) }
    }
}

impl<T> Arena<T> {
    fn alloc(&self, value: T) -> &T {
        let mut items = self.items.lock().expect("arena poisoned");
        items.push(Box::new(value));
        let ptr: *const T = &**items.last().expect("just pushed");
        // SAFETY: the value sits behind a Box whose heap address never moves;
        // the vector only grows and drops nothing until the arena itself drops,
        // and the returned borrow of `self` cannot outlive the arena.
        unsafe { &*ptr }
    }
}

/// Owned storage for the universes live updates derive: sessions borrow their
/// repository and buildcache for `'a`, so every post-delta universe must live at
/// least that long. Declared before [`Shards`] in the serve functions so the
/// borrows check out.
#[derive(Default)]
struct Arenas {
    repos: Arena<Repository>,
    caches: Arena<Database>,
}

/// The lazily-built shard map: one [`ConcretizerSession`] per `(site, reuse)`
/// key. The map lock is held only to look up or insert the slot; session
/// construction (base grounding) happens under the slot's write lock — two
/// concurrent first requests for one shard build it once, and a slow grounding
/// on one shard never blocks routing on another.
///
/// Lock order: `update_lock` → `universe` (briefly) → slot write locks, one
/// shard at a time; `get` takes the slot write lock first and `universe` briefly
/// inside it. `universe` is never held while a slot lock is taken, so the two
/// orders cannot deadlock.
struct Shards<'a> {
    /// The current base universe; updates swap it, lazy builds read it under
    /// their slot's write lock (so a build never races an update unseen).
    universe: Mutex<(&'a Repository, Option<&'a Database>)>,
    arenas: &'a Arenas,
    /// Serializes `update` requests; solves are only serialized per shard (by
    /// the slot's write lock) while their shard is being patched.
    update_lock: Mutex<()>,
    map: Mutex<HashMap<(String, bool), Arc<Shard<'a>>>>,
}

#[derive(Default)]
struct Shard<'a> {
    session: RwLock<Option<Result<ConcretizerSession<'a>, String>>>,
    patches: AtomicU64,
    refreezes: AtomicU64,
    evictions: AtomicU64,
    last_refreeze: Mutex<Option<String>>,
}

/// Freeze a session for one shard key against the given universe.
fn build_session<'a>(
    repo: &'a Repository,
    database: Option<&'a Database>,
    site: &str,
    site_config: SiteConfig,
    reuse: bool,
) -> Result<ConcretizerSession<'a>, String> {
    let mut options = SolveOptions::new().site(site_config);
    if let Some(db) = database {
        options = options.database(db);
    }
    Concretizer::new(repo)
        .with_options(options)
        .session()
        .map_err(|e| format!("building the {site}/reuse={reuse} session failed: {e}"))
}

impl<'a> Shards<'a> {
    fn new(repo: &'a Repository, cache: Option<&'a Database>, arenas: &'a Arenas) -> Self {
        Shards {
            universe: Mutex::new((repo, cache)),
            arenas,
            update_lock: Mutex::new(()),
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The shard for `(site, reuse)`, building its session on first use.
    fn get(&self, site: &str, reuse: bool) -> Result<Arc<Shard<'a>>, String> {
        let site_config = site_by_name(site).ok_or_else(|| {
            format!("unknown site '{site}' (expected quartz, lassen, or minimal)")
        })?;
        if reuse && self.universe.lock().expect("universe poisoned").1.is_none() {
            return Err("reuse requested but the server has no buildcache".to_string());
        }
        let shard = {
            let mut map = self.map.lock().expect("shard map poisoned");
            Arc::clone(map.entry((site.to_string(), reuse)).or_default())
        };
        // Fast path: an already-built (or already-failed) slot needs no lock
        // stronger than a read.
        if shard.session.read().unwrap_or_else(|e| e.into_inner()).is_some() {
            return Ok(shard);
        }
        let mut slot = shard.session.write().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            // Read the universe *under the slot's write lock*: an update that
            // swapped it either already finished (we build from the new
            // universe) or will wait on this write lock and patch what we
            // build — identical facts, a no-op diff. Either way no stale
            // session survives.
            let (repo, cache) = *self.universe.lock().expect("universe poisoned");
            let database = if reuse { cache } else { None };
            if reuse && database.is_none() {
                return Err("reuse requested but the server has no buildcache".to_string());
            }
            *slot = Some(build_session(repo, database, site, site_config, reuse));
        }
        drop(slot);
        Ok(shard)
    }

    /// Apply a base delta across the shard map: derive the post-delta universe
    /// (pinned in the arenas), swap it in for future lazy builds, then patch
    /// every built session in place — falling back to evict-and-refreeze when a
    /// shard cannot absorb the delta incrementally (or when the
    /// `force_refreeze` test hook demands it). Never fails: per-shard fallback
    /// reasons land in `stats` (`last_refreeze`), not in the update response.
    fn apply_update(&self, config: &ServerConfig, delta: &BaseDelta) -> UpdateOutcome {
        let _serialize = self.update_lock.lock().expect("update lock poisoned");
        let (new_repo, new_cache) = {
            let mut universe = self.universe.lock().expect("universe poisoned");
            let (repo, cache) = *universe;
            let (new_repo, new_cache) = delta.apply(repo, cache);
            let new_repo: &'a Repository = self.arenas.repos.alloc(new_repo);
            let new_cache: Option<&'a Database> = new_cache.map(|db| self.arenas.caches.alloc(db));
            *universe = (new_repo, new_cache);
            (new_repo, new_cache)
        };
        let built: Vec<((String, bool), Arc<Shard<'a>>)> = {
            let map = self.map.lock().expect("shard map poisoned");
            map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        };
        let mut outcome = UpdateOutcome::default();
        for ((site, reuse), shard) in built {
            let Some(site_config) = site_by_name(&site) else { continue };
            let database = if reuse { new_cache } else { None };
            // Taking the write lock waits for in-flight solves on this shard
            // (they hold read locks); solves on other shards keep running.
            let mut slot = shard.session.write().unwrap_or_else(|e| e.into_inner());
            let refreeze_reason = match slot.as_mut() {
                None => continue, // never built: it will lazily freeze post-delta
                Some(Ok(session)) if !config.force_refreeze => {
                    match catch_unwind(AssertUnwindSafe(|| {
                        session.apply_base_delta(new_repo, database)
                    })) {
                        Ok(Ok(_)) => {
                            shard.patches.fetch_add(1, Ordering::SeqCst);
                            outcome.patched += 1;
                            continue;
                        }
                        Ok(Err(e)) => format!("incremental patch failed: {e}"),
                        Err(payload) => {
                            format!("incremental patch panicked: {}", panic_message(payload))
                        }
                    }
                }
                Some(Ok(_)) => "refreeze forced by configuration (test hook)".to_string(),
                Some(Err(e)) => format!("session was never usable: {e}"),
            };
            // Evict-and-refreeze fallback: a partially-patched (or failed)
            // session must not answer another request.
            shard.evictions.fetch_add(1, Ordering::SeqCst);
            *slot = Some(build_session(new_repo, database, &site, site_config, reuse));
            shard.refreezes.fetch_add(1, Ordering::SeqCst);
            *shard.last_refreeze.lock().expect("refreeze reason poisoned") = Some(refreeze_reason);
            outcome.refrozen += 1;
        }
        outcome
    }

    /// Stats of every shard whose session has been built, `(site, reuse)`-sorted.
    fn stats(&self) -> Vec<ShardStats> {
        let map = self.map.lock().expect("shard map poisoned");
        let mut shards: Vec<ShardStats> = map
            .iter()
            .filter_map(|((site, reuse), shard)| {
                let slot = shard.session.read().unwrap_or_else(|e| e.into_inner());
                let s = slot.as_ref()?.as_ref().ok()?.stats();
                Some(ShardStats {
                    site: site.clone(),
                    reuse: *reuse,
                    digest: s.base_digest,
                    requests: s.requests,
                    base_grounds: s.base_grounds,
                    frozen_instances: s.frozen_instances,
                    patches: shard.patches.load(Ordering::SeqCst),
                    refreezes: shard.refreezes.load(Ordering::SeqCst),
                    evictions: shard.evictions.load(Ordering::SeqCst),
                    last_refreeze: shard
                        .last_refreeze
                        .lock()
                        .expect("refreeze reason poisoned")
                        .clone(),
                })
            })
            .collect();
        shards.sort_by(|a, b| (&a.site, a.reuse).cmp(&(&b.site, b.reuse)));
        shards
    }
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    queued: AtomicU64,
}

enum JobKind {
    Solve(wire::SolveRequest),
    Update(wire::UpdateRequest),
    Stats { id: String },
}

/// One queued job, carrying the reply sink of the connection that asked (on the
/// pipe transport every job shares the single output sink).
struct Job<W> {
    kind: JobKind,
    sink: Arc<Mutex<W>>,
}

/// Write one response line and flush, so a reader on the other side of a pipe or
/// socket sees each response as soon as its job resolves.
fn emit<W: Write>(sink: &Mutex<W>, line: &str) {
    let mut out = sink.lock().expect("response sink poisoned");
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Execute one solve request on its shard: parse the specs, route by
/// `(site, reuse)`, apply the per-request wire options (budget, seed) on the
/// session's forked control, and classify the result.
fn execute(
    shards: &Shards<'_>,
    config: &ServerConfig,
    req: &wire::SolveRequest,
) -> wire::SolveResponse {
    let spec_text = req.specs.join(" ");
    let mut roots = Vec::with_capacity(req.specs.len());
    for text in &req.specs {
        match parse_spec(text) {
            Ok(spec) => roots.push(spec),
            Err(e) => {
                return wire::SolveResponse::failure(
                    &req.id,
                    &spec_text,
                    ResultClass::Parse,
                    &e.to_string(),
                )
            }
        }
    }
    let site = req.options.site.as_deref().unwrap_or(&config.default_site);
    let reuse = req.options.reuse.unwrap_or(config.default_reuse);
    let shard = match shards.get(site, reuse) {
        Ok(shard) => shard,
        Err(message) => {
            return wire::SolveResponse::failure(&req.id, &spec_text, ResultClass::Parse, &message)
        }
    };
    // The read guard is held for the whole solve: an update patching this shard
    // (write lock) waits for in-flight requests and never mutates under them.
    let slot = shard.session.read().unwrap_or_else(|e| e.into_inner());
    let session = match slot.as_ref() {
        Some(Ok(session)) => session,
        Some(Err(message)) => {
            return wire::SolveResponse::failure(
                &req.id,
                &spec_text,
                ResultClass::Internal,
                message,
            )
        }
        None => {
            return wire::SolveResponse::failure(
                &req.id,
                &spec_text,
                ResultClass::Internal,
                "shard session unavailable",
            )
        }
    };
    if let Some((name, pause)) = &config.stall {
        if roots.iter().any(|r| r.name.as_deref() == Some(name.as_str())) {
            std::thread::sleep(*pause);
        }
    }
    let retries = req.options.retries.unwrap_or(config.retries);
    let options = &req.options;
    let (result, attempts) =
        solve_with_retries(session, &roots, &|cfg| options.apply(cfg), retries);
    wire::SolveResponse::from_result(&req.id, &spec_text, &result, attempts)
}

fn worker_loop<W: Write + Send>(
    rx: &Mutex<mpsc::Receiver<Job<W>>>,
    shards: &Shards<'_>,
    config: &ServerConfig,
    counters: &Counters,
) {
    loop {
        // Holding the receiver lock only for the recv: the holder blocks here
        // while the queue is empty, takes the next job, and releases before
        // executing it — so all other workers run concurrently.
        let job = match rx.lock().expect("job queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // all senders dropped: admission ended, queue drained
        };
        counters.queued.fetch_sub(1, Ordering::SeqCst);
        match job.kind {
            JobKind::Solve(req) => {
                let response = execute(shards, config, &req);
                emit(&job.sink, &response.render());
                counters.completed.fetch_add(1, Ordering::SeqCst);
            }
            JobKind::Update(req) => {
                let outcome = shards.apply_update(config, &req.delta);
                emit(&job.sink, &wire::render_update_response(&req.id, &outcome));
            }
            JobKind::Stats { id } => {
                let stats = snapshot(shards, config, counters);
                emit(&job.sink, &wire::render_stats_response(&id, &stats));
            }
        }
    }
}

fn snapshot(shards: &Shards<'_>, config: &ServerConfig, counters: &Counters) -> ServerStats {
    ServerStats {
        workers: config.workers.max(1),
        queue_depth: counters.queued.load(Ordering::SeqCst) as usize,
        jobs_received: counters.received.load(Ordering::SeqCst),
        jobs_completed: counters.completed.load(Ordering::SeqCst),
        shards: shards.stats(),
    }
}

/// Longest request line the server reads, in bytes without its newline. A longer
/// line is answered with a `parse` response and skipped up to its newline, so no
/// client can make the server buffer an unbounded line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read the next line of `input` into `buf` and return it trimmed, or the message
/// of its `parse` response when it is longer than [`MAX_LINE_BYTES`] or not UTF-8.
/// `None` at end of input or on a read error.
fn read_request_line<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> Option<Result<&'b str, String>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', buf).ok()? == 0 {
        return None;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        // Discard the rest of the line without buffering it. A read error here
        // surfaces again, as `None`, on the next call.
        while let Ok(chunk) = input.fill_buf() {
            let (n, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (chunk.len(), chunk.is_empty()),
            };
            input.consume(n);
            if done {
                break;
            }
        }
        return Some(Err(format!("request line is longer than {MAX_LINE_BYTES} bytes")));
    }
    Some(
        std::str::from_utf8(buf)
            .map(str::trim)
            .map_err(|_| "request line is not valid UTF-8".to_string()),
    )
}

/// Parse one request line (as [`read_request_line`] returns it) and either enqueue
/// it or answer it directly. Returns `Some(id)` when the line was a `shutdown`
/// request.
fn admit_line<W: Write + Send>(
    line: Result<&str, String>,
    tx: &mpsc::SyncSender<Job<W>>,
    sink: &Arc<Mutex<W>>,
    counters: &Counters,
) -> Option<String> {
    let request = match line {
        Ok("") => return None, // blank lines get no answer
        Ok(line) => wire::parse_request(line),
        Err(message) => Err(message),
    };
    match request {
        // A malformed line is answered immediately with a parse-status response;
        // the connection stays up and later lines are processed normally.
        Err(message) => {
            emit(
                sink,
                &wire::SolveResponse::failure("", "", ResultClass::Parse, &message).render(),
            );
            None
        }
        Ok(wire::Request::Shutdown { id }) => Some(id),
        Ok(wire::Request::Update(req)) => {
            counters.queued.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(Job { kind: JobKind::Update(req), sink: Arc::clone(sink) });
            None
        }
        Ok(wire::Request::Stats { id }) => {
            counters.queued.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(Job { kind: JobKind::Stats { id }, sink: Arc::clone(sink) });
            None
        }
        Ok(wire::Request::Solve(req)) => {
            counters.received.fetch_add(1, Ordering::SeqCst);
            counters.queued.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(Job { kind: JobKind::Solve(req), sink: Arc::clone(sink) });
            None
        }
    }
}

/// Serve newline-delimited JSON requests from `input`, streaming responses to
/// `output` as they resolve (out of order, tagged by id). Returns the final
/// statistics snapshot once the input is exhausted (or a `shutdown` request
/// arrives) **and** every admitted job has completed — drain-on-shutdown is
/// structural: the worker pool is joined before this function returns, and the
/// `shutdown` acknowledgement is the last line written.
pub fn serve_pipe<R, W>(
    repo: &Repository,
    cache: Option<&Database>,
    config: &ServerConfig,
    mut input: R,
    output: W,
) -> ServerStats
where
    R: BufRead,
    W: Write + Send,
{
    // Declared before `shards` so update-derived universes outlive the sessions
    // borrowing them.
    let arenas = Arenas::default();
    let shards = Shards::new(repo, cache, &arenas);
    let counters = Counters::default();
    let sink = Arc::new(Mutex::new(output));
    let mut shutdown_id: Option<String> = None;
    // The receiver outlives the scope so worker borrows of it are valid for the
    // scope's lifetime; the sender is moved in and dropped there to end the pool.
    let (tx, rx) = mpsc::sync_channel::<Job<W>>(config.queue_depth.max(1));
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            let rx = &rx;
            let shards = &shards;
            let counters = &counters;
            scope.spawn(move || worker_loop(rx, shards, config, counters));
        }
        let mut buf = Vec::new();
        while let Some(line) = read_request_line(&mut input, &mut buf) {
            if let Some(id) = admit_line(line, &tx, &sink, &counters) {
                shutdown_id = Some(id);
                break;
            }
        }
        // Dropping the sender ends the worker loops once the queue is drained;
        // the scope then joins them — every admitted job completes before exit.
        drop(tx);
    });
    if let Some(id) = shutdown_id {
        let mut ack = wire::SolveResponse::failure(&id, "", ResultClass::Ok, "shutdown complete");
        ack.message = Some("shutdown complete".to_string());
        emit(&sink, &ack.render());
    }
    snapshot(&shards, config, &counters)
}

/// Serve requests on a Unix socket listener: one reader thread per connection,
/// responses multiplexed back on the connection that sent the request. A
/// `shutdown` request from any connection stops the accept loop and admission on
/// every connection; queued and in-flight jobs complete before the function
/// returns (their responses still reach their connections).
#[cfg(unix)]
pub fn serve_socket(
    repo: &Repository,
    cache: Option<&Database>,
    config: &ServerConfig,
    listener: std::os::unix::net::UnixListener,
) -> std::io::Result<ServerStats> {
    use std::io::BufReader;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicBool;

    // Declared before `shards` so update-derived universes outlive the sessions
    // borrowing them.
    let arenas = Arenas::default();
    let shards = Shards::new(repo, cache, &arenas);
    let counters = Counters::default();
    let shutdown = AtomicBool::new(false);
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::sync_channel::<Job<UnixStream>>(config.queue_depth.max(1));
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            let rx = &rx;
            let shards = &shards;
            let counters = &counters;
            scope.spawn(move || worker_loop(rx, shards, config, counters));
        }
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let tx = tx.clone();
                    let counters = &counters;
                    let shutdown = &shutdown;
                    scope.spawn(move || {
                        let Ok(read_half) = stream.try_clone() else { return };
                        let sink = Arc::new(Mutex::new(stream));
                        let mut input = BufReader::new(read_half);
                        let mut buf = Vec::new();
                        while let Some(line) = read_request_line(&mut input, &mut buf) {
                            if shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            if let Some(id) = admit_line(line, &tx, &sink, counters) {
                                // Socket mode acknowledges before the drain (the
                                // pool is joined below); the ack only confirms
                                // that no further work will be admitted.
                                let mut ack = wire::SolveResponse::failure(
                                    &id,
                                    "",
                                    ResultClass::Ok,
                                    "shutdown accepted; draining in-flight jobs",
                                );
                                ack.message =
                                    Some("shutdown accepted; draining in-flight jobs".to_string());
                                emit(&sink, &ack.render());
                                shutdown.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        }
        drop(tx);
    });
    Ok(snapshot(&shards, config, &counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_resolve_and_unknown_is_rejected() {
        assert_eq!(site_by_name("quartz").unwrap().target_family, "x86_64");
        assert_eq!(site_by_name("lassen").unwrap().target_family, "ppc64le");
        assert!(site_by_name("minimal").is_some());
        assert!(site_by_name("frontier").is_none());
    }

    fn shard_digest(shard: &Shard<'_>) -> u64 {
        shard.session.read().unwrap().as_ref().unwrap().as_ref().unwrap().base_digest()
    }

    #[test]
    fn shard_map_reuses_one_session_per_key() {
        let repo = spack_repo::builtin_repo();
        let arenas = Arenas::default();
        let shards = Shards::new(&repo, None, &arenas);
        let a = shards.get("minimal", false).unwrap();
        let b = shards.get("minimal", false).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must reuse one shard");
        let c = shards.get("quartz", false).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys must get distinct shards");
        assert_ne!(
            shard_digest(&a),
            shard_digest(&c),
            "distinct sites must produce distinct base digests"
        );
        assert!(shards.get("nowhere", false).is_err());
        assert!(shards.get("minimal", true).is_err(), "no buildcache, reuse must be rejected");
        let stats = shards.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].site, "minimal");
        assert_eq!(stats[1].site, "quartz");
        assert!(stats.iter().all(|s| s.base_grounds == 1));
    }

    #[test]
    fn update_patches_built_shards_in_place() {
        let repo = spack_repo::builtin_repo();
        let arenas = Arenas::default();
        let shards = Shards::new(&repo, None, &arenas);
        let config = ServerConfig::default();
        let shard = shards.get("minimal", false).unwrap();
        let before = shard_digest(&shard);
        let delta = BaseDelta {
            add_versions: vec![("zlib".to_string(), "2.0".to_string())],
            ..BaseDelta::default()
        };
        let outcome = shards.apply_update(&config, &delta);
        assert_eq!(outcome, UpdateOutcome { patched: 1, refrozen: 0 });
        assert_ne!(shard_digest(&shard), before, "the delta must change the base digest");

        // The patched session must be observationally identical to a session
        // frozen fresh against the post-delta universe.
        let (fresh_repo, _) = delta.apply(&repo, None);
        let fresh = Concretizer::new(&fresh_repo)
            .with_options(SolveOptions::new().site(SiteConfig::minimal()))
            .session()
            .unwrap();
        assert_eq!(shard_digest(&shard), fresh.base_digest());
        let slot = shard.session.read().unwrap();
        let patched = slot.as_ref().unwrap().as_ref().unwrap();
        let a = patched.concretize_str("zlib@2.0").unwrap();
        let b = fresh.concretize_str("zlib@2.0").unwrap();
        assert_eq!(a.spec.to_string(), b.spec.to_string());
        drop(slot);

        // A shard built only after the update freezes straight onto the
        // post-delta universe.
        let late = shards.get("quartz", false).unwrap();
        let late_slot = late.session.read().unwrap();
        assert!(late_slot.as_ref().unwrap().as_ref().unwrap().concretize_str("zlib@2.0").is_ok());
        drop(late_slot);

        let stats = shards.stats();
        let minimal = stats.iter().find(|s| s.site == "minimal").unwrap();
        assert_eq!((minimal.patches, minimal.refreezes, minimal.evictions), (1, 0, 0));
        assert_eq!(minimal.base_grounds, 1, "patching must not re-ground the base");
        assert!(minimal.last_refreeze.is_none());
    }

    #[test]
    fn forced_refreeze_takes_the_eviction_path_and_logs_why() {
        let repo = spack_repo::builtin_repo();
        let arenas = Arenas::default();
        let shards = Shards::new(&repo, None, &arenas);
        let config = ServerConfig { force_refreeze: true, ..ServerConfig::default() };
        let shard = shards.get("minimal", false).unwrap();
        let delta = BaseDelta {
            add_versions: vec![("zlib".to_string(), "2.0".to_string())],
            ..BaseDelta::default()
        };
        let outcome = shards.apply_update(&config, &delta);
        assert_eq!(outcome, UpdateOutcome { patched: 0, refrozen: 1 });

        // The re-frozen session answers from the post-delta universe.
        let slot = shard.session.read().unwrap();
        let session = slot.as_ref().unwrap().as_ref().unwrap();
        assert!(session.concretize_str("zlib@2.0").is_ok());
        drop(slot);
        let stats = shards.stats();
        let minimal = stats.iter().find(|s| s.site == "minimal").unwrap();
        assert_eq!((minimal.patches, minimal.refreezes, minimal.evictions), (0, 1, 1));
        assert!(minimal.last_refreeze.as_ref().unwrap().contains("forced"));
    }
}
