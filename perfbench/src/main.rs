//! The repository benchmark. Runs one seeded workload on the `workload_repo(Medium)`
//! universe through the concretizer's public entry points, checks every answer, and
//! prints one JSON result line. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <oneshot_sweep|session_stream|serve_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --record-golden [--out <dir>]
//! ```

mod catalog;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spack_concretizer::server::wire::{parse_request, SolveResponse};
use spack_concretizer::{BaseDelta, Concretization, ConcretizeError, ConcretizerSession};
use spack_repo::Repository;
use spack_spec::parse_spec;
use spack_store::Database;

use catalog::{
    check, compare, stream, Cache, Catalog, Expected, Golden, Kind, Request, Rng, Universe,
};
use serve::{Plan, Served};
use trace::{mean, median, quantile, Source, Tracer};

/// Every run answers at least this many timed solve requests.
const MIN_REQUESTS: usize = 200;
/// About how many requests per second one session answers in the stream mix on one
/// core: sizes `session_stream` runs to take about `--seconds`.
const SESSION_RATE: f64 = 16.0;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests the traced run's layer replay solves both one-shot and on a session.
const REPLAY_REQUESTS: usize = 24;
/// Solve requests of the traced run's short served replay.
const REPLAY_SERVED: usize = 40;
/// Repetitions of the wire codec replay, for timer resolution.
const WIRE_REPS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        record_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            args.record_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Everything a workload needs.
struct Ctx<'u> {
    universe: &'u Universe,
    catalog: Catalog,
    golden: Golden,
    /// Session answers known to diverge from the one-shot golden ones.
    divergent: Golden,
    seed: u64,
    seconds: f64,
    tracer: Tracer,
    /// Post-publish universes for the patch replay: `0.0.1` of a package published.
    published: &'u [(Repository, Option<Database>)],
}

impl Ctx<'_> {
    /// The golden outcome of a request and, for session answers, its known divergence.
    fn expect(
        &self,
        cache: Cache,
        request: &Request,
        session: bool,
    ) -> (Expected, Option<Expected>) {
        let golden = self.golden.get(cache, request).expect("golden ensured before timing").clone();
        (golden, self.divergent.get(cache, request).filter(|_| session).cloned())
    }
}

/// A workload's outcome.
#[derive(Default)]
struct Run {
    attempted: u64,
    failures: Vec<String>,
    /// Timed solve requests answered.
    answered: usize,
    /// The latencies `p50_ms`/`p95_ms` are taken over, in ms: one per timed request,
    /// or for `oneshot_sweep` one per package (its mean over the run's sweeps).
    latencies: Vec<f64>,
    /// The request behind each latency (for the summary file).
    labels: Vec<String>,
    /// Set-up time of every repetition, in s.
    setup: Vec<f64>,
    /// Wall time of the timed part.
    measured: Duration,
    /// Answers that matched a recorded known divergence instead of the golden one.
    known_divergences: u64,
    /// Observations reported beside the metrics (stderr and the summary file).
    notes: Vec<(String, f64)>,
}

impl Run {
    fn fail(&mut self, message: String) {
        eprintln!("FAILED: {message}");
        self.failures.push(message);
    }

    fn verdict(&mut self, outcome: Result<bool, String>) {
        match outcome {
            Ok(known) => self.known_divergences += u64::from(known),
            Err(e) => self.fail(e),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Solve through `solve`, timing it and, when tracing, recording a request span named
/// `name` with the returned phase timings as children and the counters as attributes.
fn solve_timed(
    tracer: &mut Tracer,
    name: &'static str,
    request_id: u32,
    solve: impl FnOnce() -> Result<Concretization, ConcretizeError>,
) -> (Result<Concretization, ConcretizeError>, f64) {
    let start = Instant::now();
    let result = solve();
    let end = Instant::now();
    if tracer.enabled() {
        let id = tracer.record(name, start, end, None, Some(request_id));
        match &result {
            Ok(c) => {
                let (t, s) = (&c.timings, &c.stats);
                tracer.phases(
                    id,
                    &[
                        ("facts", t.setup),
                        ("load", t.load),
                        ("ground", t.ground),
                        ("solve", t.solve),
                    ],
                );
                tracer.attrs(
                    id,
                    &[
                        ("facts", c.setup.facts as f64),
                        ("atoms", s.ground.atoms as f64),
                        ("rules", s.ground.rules as f64),
                        ("conflicts", s.conflicts as f64),
                        ("propagations", s.propagations as f64),
                        ("decisions", s.decisions as f64),
                        ("solver_runs", s.solver_runs as f64),
                        ("models_examined", s.models_examined as f64),
                        ("loop_nogoods", s.loop_nogoods as f64),
                    ],
                );
            }
            Err(ConcretizeError::Unsatisfiable { stats, .. }) => {
                // The reported phases cover both diagnostic phases; the second phase
                // is split out as its own child so no time is counted twice.
                let p = &stats.phases;
                let second_solve = stats.second_phase.saturating_sub(stats.second_phase_ground);
                tracer.phases(
                    id,
                    &[
                        ("facts", p.setup),
                        ("load", p.load),
                        ("ground", p.ground.saturating_sub(stats.second_phase_ground)),
                        ("solve", p.solve.saturating_sub(second_solve)),
                        ("diagnose", stats.second_phase),
                    ],
                );
                tracer.attrs(
                    id,
                    &[
                        ("unsat", 1.0),
                        ("core_size", stats.core_size as f64),
                        ("minimize_rounds", stats.minimization_rounds as f64),
                        ("second_phase_ms", ms(stats.second_phase)),
                    ],
                );
            }
            Err(_) => {}
        }
    }
    (result, ms(end - start))
}

/// Solve one catalog request in process and check it against its golden outcome.
fn solve_checked(
    ctx: &mut Ctx<'_>,
    run: &mut Run,
    name: &'static str,
    request_id: u32,
    request: &Request,
    cache: Cache,
    solve: impl FnOnce(&[spack_spec::Spec]) -> Result<Concretization, ConcretizeError>,
) -> f64 {
    let roots = request.roots();
    let (result, wall) = solve_timed(&mut ctx.tracer, name, request_id, || solve(&roots));
    let (expected, known) = ctx.expect(cache, request, name == "session");
    run.verdict(check(request, &expected, known.as_ref(), &result));
    wall
}

/// `oneshot_sweep`: every package once per sweep, seed-shuffled, as fresh one-shot
/// solves with `workload_buildcache` reuse. Measures whole sweeps: another sweep
/// starts only while it is expected to end within `--seconds`.
fn oneshot_sweep(ctx: &mut Ctx<'_>) -> Run {
    let mut run = Run::default();
    let u = ctx.universe;
    let warm = Request { kind: Kind::Plain, specs: vec!["zlib".to_string()] };
    ctx.golden.ensure(u, Cache::Workload, std::slice::from_ref(&warm));
    ctx.golden.ensure(u, Cache::Workload, &ctx.catalog.plain);
    // Set-up: a fresh concretizer answering its first request.
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let result = u.concretizer(Cache::Workload).concretize(&warm.roots());
        run.setup.push(start.elapsed().as_secs_f64());
        let (expected, _) = ctx.expect(Cache::Workload, &warm, false);
        run.verdict(check(&warm, &expected, None, &result));
    }
    let mut order: Vec<usize> = (0..ctx.catalog.plain.len()).collect();
    let mut total_ms = vec![0.0; order.len()];
    let mut sweeps = 0;
    let mut rng = Rng::new(ctx.seed);
    let begin = Instant::now();
    loop {
        rng.shuffle(&mut order);
        let sweep = Instant::now();
        for &package in &order {
            let request = ctx.catalog.plain[package].clone();
            let id = run.attempted as u32;
            run.attempted += 1;
            let concretizer = u.concretizer(Cache::Workload);
            total_ms[package] +=
                solve_checked(ctx, &mut run, "oneshot", id, &request, Cache::Workload, |r| {
                    concretizer.concretize(r)
                });
        }
        sweeps += 1;
        if (begin.elapsed() + sweep.elapsed()).as_secs_f64() > ctx.seconds {
            break;
        }
    }
    run.measured = begin.elapsed();
    // Fig. 7 plots one time per package: the percentiles are taken over packages, of
    // each package's mean over the sweeps, which also damps per-solve noise.
    run.answered = sweeps * order.len();
    run.latencies = total_ms.iter().map(|t| t / sweeps as f64).collect();
    run.labels = ctx.catalog.plain.iter().map(Request::key).collect();
    if ctx.tracer.enabled() {
        replay(ctx, &mut run, "oneshot_sweep", None);
    }
    run
}

/// Freeze a session over the service buildcache, recording a `freeze` span.
fn freeze<'u>(ctx: &mut Ctx<'u>, run: &mut Run) -> Option<ConcretizerSession<'u>> {
    let start = Instant::now();
    let session = ctx.universe.concretizer(Cache::Service).session();
    let end = Instant::now();
    run.setup.push((end - start).as_secs_f64());
    match session {
        Ok(session) => {
            let s = session.stats();
            let id = ctx.tracer.record("freeze", start, end, None, None);
            ctx.tracer.phases(
                id,
                &[
                    ("facts.base", s.base_setup),
                    ("load.base", s.base_load),
                    ("ground.base", s.base_ground),
                ],
            );
            ctx.tracer.attrs(
                id,
                &[
                    ("frozen_instances", s.frozen_instances as f64),
                    ("base_atoms", s.base_atoms as f64),
                ],
            );
            Some(session)
        }
        Err(e) => {
            run.fail(format!("session freeze failed: {e}"));
            None
        }
    }
}

/// Record the session's nogood-store counters as a zero-length span.
fn record_store(tracer: &mut Tracer, session: &ConcretizerSession<'_>) {
    let s = session.stats();
    let now = Instant::now();
    let id = tracer.record("session.store", now, now, None, None);
    tracer.attrs(
        id,
        &[
            ("hits", s.store_hits as f64),
            ("misses", s.store_misses as f64),
            ("transferred", s.store_transferred as f64),
            ("requests", s.requests as f64),
        ],
    );
}

/// Requests per run of a stream workload answering about `rate` requests per second:
/// `--seconds` worth, and at least `MIN_REQUESTS`.
fn stream_len(seconds: f64, rate: f64) -> usize {
    MIN_REQUESTS.max((rate * seconds).ceil() as usize)
}

/// `session_stream`: seeded requests in the stream mix on one session over the
/// service buildcache. The base freeze is set-up.
fn session_stream(ctx: &mut Ctx<'_>) -> Run {
    let mut run = Run::default();
    let u = ctx.universe;
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        session = freeze(ctx, &mut run);
    }
    let Some(mut session) = session else { return run };
    let requests = stream(&ctx.catalog, ctx.seed, stream_len(ctx.seconds, SESSION_RATE));
    ctx.golden.ensure(u, Cache::Service, &requests);
    let begin = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        run.attempted += 1;
        let wall =
            solve_checked(ctx, &mut run, "session", i as u32, request, Cache::Service, |r| {
                session.concretize(r)
            });
        run.latencies.push(wall);
        run.labels.push(request.key());
        run.answered += 1;
    }
    run.measured = begin.elapsed();
    if ctx.tracer.enabled() {
        record_store(&mut ctx.tracer, &session);
        replay(ctx, &mut run, "session_stream", Some(&mut session));
    }
    run
}

/// Check one served solve response against its request and golden outcome.
fn check_served(
    request: &Request,
    expected: &Expected,
    known: Option<&Expected>,
    response: &SolveResponse,
) -> Result<bool, String> {
    let key = request.key();
    let status = response.status.as_str();
    if request.kind == Kind::Infeasible && status != "unsat" {
        return Err(format!("served designed-infeasible '{key}' came back {status}"));
    }
    if status == "unsat" && response.diagnostics.is_empty() {
        return Err(format!("served unsat '{key}' carried no diagnostic"));
    }
    if let Some(result) = &response.result {
        if !result.optimal {
            return Err(format!("served '{key}' was not proven optimal"));
        }
        for spec in &request.specs {
            let name = parse_spec(spec).ok().and_then(|s| s.name).unwrap_or_default();
            if !result.dag.contains(&name) {
                return Err(format!("served '{key}': root {name} missing from the DAG"));
            }
        }
    }
    let cost = response.result.as_ref().map(|r| r.cost.clone()).unwrap_or_default();
    compare(request, expected, known, &Expected { status: status.to_string(), cost })
}

/// Check a served run: every response, every update ack, and the final server
/// statistics (requests landed on the intended shards, nothing was re-frozen).
/// Records the served spans when tracing. Returns the solve latencies in ms.
fn check_and_record_served(
    ctx: &mut Ctx<'_>,
    run: &mut Run,
    plan: &Plan,
    served: &Served,
) -> Vec<f64> {
    for e in &served.errors {
        run.fail(e.clone());
    }
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    for (i, (timing, response)) in served.solves.iter().enumerate() {
        let (request, cache) = &plan.solves[i];
        let (expected, known) = ctx.expect(*cache, request, true);
        run.verdict(check_served(request, &expected, known.as_ref(), response));
        latencies.push(ms(timing.responded - timing.due));
        late.push(ms(timing.handed.saturating_duration_since(timing.due.max(timing.called))));
        let id = ctx.tracer.record("served", timing.due, timing.responded, None, Some(i as u32));
        ctx.tracer.record("admit_wait", timing.due, timing.handed, Some(id), Some(i as u32));
        ctx.tracer.record("inflight", timing.handed, timing.responded, Some(id), Some(i as u32));
    }
    for (j, (timing, line)) in served.updates.iter().enumerate() {
        if !line.contains("\"shards_refrozen\": 0") || !line.contains("\"shards_patched\": 2") {
            run.fail(format!("update u{j} was not patched in place on both shards: {line}"));
        }
        late.push(ms(timing.handed.saturating_duration_since(timing.due.max(timing.called))));
        let id = ctx.tracer.record("update", timing.due, timing.responded, None, Some(j as u32));
        ctx.tracer.record("admit_wait", timing.due, timing.handed, Some(id), Some(j as u32));
        ctx.tracer.record(
            "update_inflight",
            timing.handed,
            timing.responded,
            Some(id),
            Some(j as u32),
        );
    }
    let stats = &served.stats;
    let routed = |cache| plan.solves.iter().filter(|(_, c)| *c == cache).count() as u64;
    for (reuse, cache) in [(true, Cache::Service), (false, Cache::None)] {
        match stats.shards.iter().find(|s| s.site == "quartz" && s.reuse == reuse) {
            Some(s) => {
                // +1: the shard's warm-up request.
                if s.requests != routed(cache) + 1 || s.refreezes != 0 || s.base_grounds != 1 {
                    run.fail(format!("shard reuse={reuse}: unexpected stats {s:?}"));
                }
                if s.patches != plan.updates as u64 {
                    run.fail(format!(
                        "shard reuse={reuse}: {} patches for {} updates",
                        s.patches, plan.updates
                    ));
                }
            }
            None => run.fail(format!("shard reuse={reuse} was never built")),
        }
    }
    if stats.shards.len() != 2 {
        run.fail(format!("expected 2 shards, the server built {}", stats.shards.len()));
    }
    let refreezes: u64 = stats.shards.iter().map(|s| s.refreezes).sum();
    let late_max = late.iter().cloned().fold(0.0, f64::max);
    // The generator fell behind when it handed a line out well after both its due
    // time and the server's request for it.
    if late_max > 20.0 {
        eprintln!("FLAG: the request generator fell behind its schedule by up to {late_max:.1} ms");
    }
    run.notes.push(("generator_late_max_ms".to_string(), late_max));
    if ctx.tracer.enabled() {
        let now = Instant::now();
        let id = ctx.tracer.record("server.stats", now, now, None, None);
        ctx.tracer.attrs(id, &[("refreezes", refreezes as f64), ("late_max_ms", late_max)]);
        wire_replay(&mut ctx.tracer, plan, served);
    }
    latencies
}

/// Time the wire codec on a served run's own lines: request parsing and response
/// rendering, each over all lines `WIRE_REPS` times.
fn wire_replay(tracer: &mut Tracer, plan: &Plan, served: &Served) {
    let start = Instant::now();
    for _ in 0..WIRE_REPS {
        for line in &plan.lines {
            std::hint::black_box(parse_request(&line.text).is_ok());
        }
    }
    let id = tracer.record("wire.parse", start, Instant::now(), None, None);
    tracer.attrs(id, &[("n", (WIRE_REPS * plan.lines.len()) as f64)]);
    let responses: Vec<&SolveResponse> = served.solves.iter().map(|(_, r)| r).collect();
    let start = Instant::now();
    for _ in 0..WIRE_REPS {
        for r in &responses {
            std::hint::black_box(r.render().len());
        }
    }
    let id = tracer.record("wire.render", start, Instant::now(), None, None);
    tracer.attrs(id, &[("n", (WIRE_REPS * responses.len()) as f64)]);
}

/// Make sure the golden table covers every request of a served plan.
fn ensure_plan(ctx: &mut Ctx<'_>, plan: &Plan) {
    for cache in [Cache::Service, Cache::None] {
        let requests: Vec<Request> =
            plan.solves.iter().filter(|(_, c)| *c == cache).map(|(r, _)| r.clone()).collect();
        ctx.golden.ensure(ctx.universe, cache, &requests);
    }
}

/// `serve_churn`: an open-loop schedule into `server::serve_pipe` with 2 workers,
/// 90% of solves on the reuse shard, and an answer-neutral update every 20 solves.
/// Set-up is the warm-up of both shards, repeated on fresh servers.
fn serve_churn(ctx: &mut Ctx<'_>) -> Run {
    let mut run = Run::default();
    let requests = stream(&ctx.catalog, ctx.seed, stream_len(ctx.seconds, serve::RATE));
    let plan = Plan::churn(&requests, &ctx.catalog, ctx.seed);
    ensure_plan(ctx, &plan);
    for _ in 1..SETUP_REPS {
        let warm = serve::serve(ctx.universe, &Plan::warm_only());
        run.setup.push(warm.setup.as_secs_f64());
        for e in warm.errors {
            run.fail(e);
        }
    }
    let served = serve::serve(ctx.universe, &plan);
    run.setup.push(served.setup.as_secs_f64());
    run.attempted = (plan.solves.len() + plan.updates) as u64;
    run.latencies = check_and_record_served(ctx, &mut run, &plan, &served);
    run.answered = run.latencies.len();
    run.labels = plan.solves.iter().map(|(r, c)| format!("{} ({c:?})", r.key())).collect();
    let last = served.solves.iter().map(|(t, _)| t.responded).max().unwrap_or(served.t0);
    run.measured = last - served.t0;
    let updates: Vec<f64> = served.updates.iter().map(|(t, _)| ms(t.responded - t.due)).collect();
    run.notes.push(("update_p50_ms".to_string(), median(&updates)));
    if ctx.tracer.enabled() {
        replay(ctx, &mut run, "serve_churn", None);
    }
    run
}

/// The traced run's layer replay: the same sample of stream requests solved one-shot
/// and on a session (the fork-versus-one-shot atom ratio, and every in-process layer
/// the workload's traffic does not reach), the patch path replayed directly on the
/// session, and a short served run when the workload is not the served one.
fn replay<'u>(
    ctx: &mut Ctx<'u>,
    run: &mut Run,
    workload: &str,
    session: Option<&mut ConcretizerSession<'u>>,
) {
    ctx.tracer.set_source(Source::Replay);
    let mut own;
    let session = match session {
        Some(s) => s,
        None => {
            let mut scratch = Run::default();
            let Some(s) = freeze(ctx, &mut scratch) else {
                return run.fail("replay freeze failed".into());
            };
            own = s;
            &mut own
        }
    };
    let sample = stream(&ctx.catalog, ctx.seed ^ 0xE7, REPLAY_REQUESTS);
    ctx.golden.ensure(ctx.universe, Cache::Service, &sample);
    let mut scratch = Run::default();
    for (k, request) in sample.iter().enumerate() {
        let concretizer = ctx.universe.concretizer(Cache::Service);
        solve_checked(ctx, &mut scratch, "oneshot", k as u32, request, Cache::Service, |r| {
            concretizer.concretize(r)
        });
        solve_checked(ctx, &mut scratch, "session", k as u32, request, Cache::Service, |r| {
            session.concretize(r)
        });
    }
    record_store(&mut ctx.tracer, session);
    // Publish, then yank, an ancient version: a pure addition and a removal.
    let u = ctx.universe;
    for (repo, db) in ctx.published {
        for (name, target) in [
            ("patch.publish", (repo, db.as_ref())),
            ("patch.yank", (&u.repo, Some(&u.service_cache))),
        ] {
            let start = Instant::now();
            match session.apply_base_delta(target.0, target.1) {
                Ok(p) => {
                    let id = ctx.tracer.record(name, start, Instant::now(), None, None);
                    ctx.tracer.attrs(
                        id,
                        &[
                            ("rules_reinstantiated", p.rules_reinstantiated as f64),
                            ("rules_reused", p.rules_reused as f64),
                            ("rebuilt", f64::from(u8::from(p.rebuilt))),
                        ],
                    );
                }
                Err(e) => scratch.fail(format!("{name} failed: {e}")),
            }
        }
    }
    // The patched-back session still gives the golden answers.
    for request in sample.iter().take(4) {
        let result = session.concretize(&request.roots());
        let (expected, known) = ctx.expect(Cache::Service, request, true);
        scratch.verdict(check(request, &expected, known.as_ref(), &result));
    }
    if workload != "serve_churn" {
        let requests = stream(&ctx.catalog, ctx.seed ^ 0x5E, REPLAY_SERVED);
        let plan = Plan::churn(&requests, &ctx.catalog, ctx.seed);
        ensure_plan(ctx, &plan);
        let served = serve::serve(ctx.universe, &plan);
        check_and_record_served(ctx, &mut scratch, &plan, &served);
    }
    ctx.tracer.set_source(Source::Traffic);
    run.failures.extend(scratch.failures);
    run.known_divergences += scratch.known_divergences;
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        ("specs_per_s", run.answered as f64 / run.measured.as_secs_f64().max(1e-9), "1/s"),
        ("p50_ms", quantile(&run.latencies, 0.5), "ms"),
        ("p95_ms", quantile(&run.latencies, 0.95), "ms"),
        ("setup_s", median(&run.setup), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics from the recorded spans.
fn per_layer(tr: &Tracer) -> Vec<Metric> {
    let spans = &tr.spans;
    let ms_of = |ids: &[usize]| -> Vec<f64> { ids.iter().map(|&i| spans[i].ms()).collect() };
    let attr = |ids: &[usize], key: &str| -> Vec<f64> {
        ids.iter().filter_map(|&i| spans[i].attr(key)).collect()
    };
    let child_ms = |parents: &[usize], name: &str| mean(&ms_of(&tr.children(parents, name)));
    let by_source = |name: &str, src| -> Vec<usize> {
        (0..spans.len()).filter(|&i| spans[i].name == name && spans[i].source == src).collect()
    };
    let oneshot = tr.select("oneshot");
    let session = tr.select("session");
    // The requests of the workload's own traffic (one-shot or session); the served
    // workload's solves run inside the server, so its replayed session requests stand in.
    let mut primary: Vec<usize> =
        [by_source("oneshot", Source::Traffic), by_source("session", Source::Traffic)].concat();
    if primary.is_empty() {
        primary = session.clone();
    }
    let unsat = |ids: &[usize]| -> Vec<usize> {
        ids.iter().copied().filter(|&i| spans[i].attr("unsat").is_some()).collect()
    };
    let mut diag = unsat(&primary);
    if diag.is_empty() {
        diag = unsat(&session);
    }
    let feasible: Vec<usize> =
        primary.iter().copied().filter(|&i| spans[i].attr("unsat").is_none()).collect();
    let freeze = tr.select("freeze");
    let publish = tr.select("patch.publish");
    let yank = tr.select("patch.yank");
    let store = tr.select("session.store");
    let served = tr.select("served");
    let updates = tr.select("update");
    let server = tr.select("server.stats");
    let ratio_atoms = |name| mean(&attr(&by_source(name, Source::Replay), "atoms"));
    let per_item_us = |name: &str| {
        let ids = tr.select(name);
        1e3 * ms_of(&ids).iter().sum::<f64>() / attr(&ids, "n").iter().sum::<f64>().max(1.0)
    };
    let hits = attr(&store, "hits").iter().sum::<f64>();
    let lookups = hits + attr(&store, "misses").iter().sum::<f64>();
    let own = tr.self_ms();
    let ground_base = child_ms(&freeze, "ground.base");
    vec![
        ("facts.oneshot_ms", child_ms(&oneshot, "facts"), "ms"),
        ("facts.request_ms", child_ms(&session, "facts"), "ms"),
        ("facts.base_ms", child_ms(&freeze, "facts.base"), "ms"),
        ("facts.count", mean(&attr(&oneshot, "facts")), "count"),
        ("load.ms", child_ms(&oneshot, "load"), "ms"),
        ("ground.oneshot_ms", child_ms(&oneshot, "ground"), "ms"),
        ("ground.request_ms", child_ms(&session, "ground"), "ms"),
        ("ground.base_ms", ground_base, "ms"),
        ("ground.atoms", mean(&attr(&session, "atoms")), "count"),
        ("ground.rules", mean(&attr(&session, "rules")), "count"),
        ("ground.frozen_instances", mean(&attr(&freeze, "frozen_instances")), "count"),
        (
            "ground.fork_atom_ratio",
            ratio_atoms("session") / ratio_atoms("oneshot").max(1.0),
            "ratio",
        ),
        ("patch.publish_ms", mean(&ms_of(&publish)), "ms"),
        ("patch.yank_ms", mean(&ms_of(&yank)), "ms"),
        ("patch.refreeze_ratio", mean(&ms_of(&yank)) / ground_base.max(1e-9), "ratio"),
        (
            "patch.rules_reinstantiated",
            mean(&attr(&[publish.clone(), yank.clone()].concat(), "rules_reinstantiated")),
            "count",
        ),
        ("patch.rules_reused", mean(&attr(&[publish, yank].concat(), "rules_reused")), "count"),
        ("solve.ms", child_ms(&feasible, "solve"), "ms"),
        ("solve.conflicts", mean(&attr(&feasible, "conflicts")), "count"),
        ("solve.propagations", mean(&attr(&feasible, "propagations")), "count"),
        ("solve.decisions", mean(&attr(&feasible, "decisions")), "count"),
        ("solve.solver_runs", mean(&attr(&feasible, "solver_runs")), "count"),
        ("solve.models_examined", mean(&attr(&feasible, "models_examined")), "count"),
        ("solve.loop_nogoods", mean(&attr(&feasible, "loop_nogoods")), "count"),
        ("session.store_hit_ratio", hits / lookups.max(1.0), "ratio"),
        ("session.store_transferred", attr(&store, "transferred").iter().sum(), "count"),
        ("diagnose.ms", mean(&ms_of(&diag)), "ms"),
        ("diagnose.second_phase_ms", mean(&attr(&diag, "second_phase_ms")), "ms"),
        ("diagnose.minimize_rounds", mean(&attr(&diag, "minimize_rounds")), "count"),
        ("diagnose.core_size", mean(&attr(&diag, "core_size")), "count"),
        ("server.admit_wait_ms", child_ms(&served, "admit_wait"), "ms"),
        ("server.inflight_ms", child_ms(&served, "inflight"), "ms"),
        ("server.update_inflight_ms", child_ms(&updates, "update_inflight"), "ms"),
        ("server.update_p50_ms", median(&ms_of(&updates)), "ms"),
        ("server.refreezes", attr(&server, "refreezes").iter().sum(), "count"),
        (
            "server.generator_late_max_ms",
            attr(&server, "late_max_ms").iter().cloned().fold(0.0, f64::max),
            "ms",
        ),
        ("wire.parse_us", per_item_us("wire.parse"), "us"),
        ("wire.render_us", per_item_us("wire.render"), "us"),
        ("core.other_ms", mean(&primary.iter().map(|&i| own[i]).collect::<Vec<_>>()), "ms"),
    ]
}

fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// Map `f` over `items` on two threads (order not kept).
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..2)
            .map(|part| {
                scope.spawn(move || items.iter().skip(part).step_by(2).map(f).collect::<Vec<R>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker")).collect()
    })
}

/// Derive the golden table of the whole catalog from one-shot solves, then solve the
/// catalog again on one session per buildcache and record every answer that differs
/// from the one-shot answer in the known-divergence table.
fn record_golden(
    universe: &Universe,
    catalog: &Catalog,
    golden_path: &Path,
    divergent_path: &Path,
) -> std::io::Result<()> {
    let all: Vec<Request> = catalog.all().cloned().collect();
    let mut jobs: Vec<(Cache, Request)> =
        catalog.plain.iter().map(|r| (Cache::Workload, r.clone())).collect();
    jobs.push((Cache::Workload, Request { kind: Kind::Plain, specs: vec!["zlib".to_string()] }));
    for cache in [Cache::Service, Cache::None] {
        jobs.extend(all.iter().map(|r| (cache, r.clone())));
    }
    let results = par_map(&jobs, |(cache, r)| {
        let result = universe.concretizer(*cache).concretize(&r.roots());
        (*cache, r.clone(), Expected::of(&result))
    });
    let mut golden = Golden::default();
    let mut counts = std::collections::BTreeMap::new();
    for (cache, r, e) in results {
        *counts.entry(format!("{cache:?}/{:?}/{}", r.kind, e.status)).or_insert(0) += 1;
        golden.insert(cache, &r, e);
    }
    for (k, n) in counts {
        eprintln!("{k}: {n}");
    }
    let mut divergent = Golden::default();
    for cache in [Cache::Service, Cache::None] {
        let session = universe.concretizer(cache).session().expect("session freeze");
        for (r, e) in par_map(&all, |r| (r.clone(), Expected::of(&session.concretize(&r.roots()))))
        {
            if golden.get(cache, &r) != Some(&e) {
                eprintln!("session diverges from one-shot: {cache:?} '{}': {e:?}", r.key());
                divergent.insert(cache, &r, e);
            }
        }
    }
    std::fs::write(golden_path, golden.render())?;
    std::fs::write(divergent_path, divergent.render())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.tsv");
    let divergent_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("divergent.tsv");
    let universe = Universe::new();
    let catalog = Catalog::new(&universe.repo);
    if args.record_golden {
        return match record_golden(&universe, &catalog, &golden_path, &divergent_path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", golden_path.display());
                ExitCode::FAILURE
            }
        };
    }
    let (golden, divergent) = match (Golden::load(&golden_path), Golden::load(&divergent_path)) {
        (Ok(g), Ok(d)) => (g, d),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Two rotating packages whose ancient 0.0.1 the patch replay publishes and yanks.
    let mut rotation = catalog.churnable.clone();
    Rng::new(args.seed ^ 0x9A7C).shuffle(&mut rotation);
    let published: Vec<(Repository, Option<Database>)> = rotation
        .iter()
        .take(2)
        .map(|p| {
            let delta = BaseDelta {
                add_versions: vec![(p.clone(), "0.0.1".to_string())],
                ..BaseDelta::default()
            };
            delta.apply(&universe.repo, Some(&universe.service_cache))
        })
        .collect();
    let mut ctx = Ctx {
        universe: &universe,
        catalog,
        golden,
        divergent,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        published: &published,
    };
    let mut run = match args.workload.as_str() {
        "oneshot_sweep" => oneshot_sweep(&mut ctx),
        "session_stream" => session_stream(&mut ctx),
        "serve_churn" => serve_churn(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (oneshot_sweep, session_stream, serve_churn)");
            return ExitCode::from(2);
        }
    };
    if run.latencies.is_empty() {
        run.fail("no request was answered".to_string());
    }
    let metrics = if args.trace { per_layer(&ctx.tracer) } else { end_to_end(&run) };
    let failed = run.failures.len() as u64;
    let attempted = run.attempted.max(failed).max(1);
    run.notes.push(("golden_derived".to_string(), ctx.golden.derived as f64));
    run.notes.push(("known_divergences".to_string(), run.known_divergences as f64));
    run.notes.push(("timed_requests".to_string(), run.answered as f64));
    run.notes.push(("measured_s".to_string(), run.measured.as_secs_f64()));
    run.notes.push(("specs_per_s".to_string(), end_to_end(&run)[0].1));
    let result = render_result(failed == 0, attempted, failed, &metrics);
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let notes: Vec<String> = run.notes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let latencies: Vec<String> =
        run.latencies.iter().zip(&run.labels).map(|(l, k)| format!("[\"{k}\", {l:.3}]")).collect();
    let summary = format!(
        "{{\"result\": {result}, \"notes\": {{{}}}, \"latencies_ms\": [{}]}}\n",
        notes.join(", "),
        latencies.join(", ")
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(args.out.join(format!("{stem}.json")), summary)?;
        if args.trace {
            std::fs::write(args.out.join(format!("{stem}.spans.jsonl")), ctx.tracer.render())?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", args.out.display());
    }
    for (k, v) in &run.notes {
        eprintln!("{k}: {v}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
