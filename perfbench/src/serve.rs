//! The open-loop generator of `serve_churn`: a pacing reader feeds NDJSON lines into
//! `server::serve_pipe` on a fixed schedule, and a timestamping sink records when each
//! response line comes back, so responses are matched to requests by id afterwards.

use std::io::{BufRead, Read, Write};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use spack_concretizer::server::{serve_pipe, wire::SolveResponse, ServerConfig, ServerStats};

use crate::catalog::{Cache, Catalog, Request, Rng, Universe};

/// Solve requests offered per second: about 40% of what the 2 workers sustain on a
/// 2-core host once the updates' patch work is counted.
pub const RATE: f64 = 8.0;
/// One `update` goes out after every this many solve requests.
pub const UPDATE_EVERY: usize = 20;
/// One solve request in this many goes to the no-reuse shard.
pub const NO_REUSE_EVERY: usize = 10;
/// Worker threads of the server.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// A warm-up request (one per shard), answered before the schedule starts.
    Warm,
    /// Solve request `i` of the schedule.
    Solve(usize),
    /// Update `j` of the schedule.
    Update(usize),
}

pub struct Line {
    pub kind: LineKind,
    /// Due time, from the start of the schedule.
    pub due: Duration,
    pub text: String,
}

/// A served run's input: the lines and, per solve, its request and shard.
pub struct Plan {
    pub lines: Vec<Line>,
    pub solves: Vec<(Request, Cache)>,
    /// Updates in the schedule.
    pub updates: usize,
}

fn quoted(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    parts.join(", ")
}

fn solve_line(id: &str, specs: &[String], reuse: bool) -> String {
    format!(
        "{{\"v\": 1, \"id\": \"{id}\", \"specs\": [{}], \"options\": {{\"reuse\": {reuse}}}}}",
        quoted(specs)
    )
}

impl Plan {
    /// Warm-up lines only: one request per shard.
    pub fn warm_only() -> Self {
        let warm = |id, reuse| Line {
            kind: LineKind::Warm,
            due: Duration::ZERO,
            text: solve_line(id, &["zlib".to_string()], reuse),
        };
        Plan { lines: vec![warm("w0", true), warm("w1", false)], solves: Vec::new(), updates: 0 }
    }

    /// The warm-up lines, then `requests` at `RATE`, with one no-reuse request per
    /// `NO_REUSE_EVERY` (seeded position) and an update after every `UPDATE_EVERY`
    /// solves, alternately publishing and yanking `0.0.1` of a rotating package (the
    /// churnable packages in a fixed order, so every seed sees the same updates).
    pub fn churn(requests: &[Request], catalog: &Catalog, seed: u64) -> Self {
        let mut plan = Plan::warm_only();
        let mut rng = Rng::new(seed ^ 0xC4_0000);
        let rotation = &catalog.churnable;
        let gap = Duration::from_secs_f64(1.0 / RATE);
        let mut no_reuse_at = 0;
        for (i, request) in requests.iter().enumerate() {
            if i % NO_REUSE_EVERY == 0 {
                no_reuse_at = i + rng.below(NO_REUSE_EVERY);
            }
            let reuse = i != no_reuse_at;
            plan.lines.push(Line {
                kind: LineKind::Solve(i),
                due: gap * i as u32,
                text: solve_line(&format!("s{i}"), &request.specs, reuse),
            });
            plan.solves.push((request.clone(), if reuse { Cache::Service } else { Cache::None }));
            if (i + 1) % UPDATE_EVERY == 0 {
                let j = plan.updates;
                let package = rotation[(j / 2) % rotation.len()].clone();
                let publish = j.is_multiple_of(2);
                let field = if publish { "add_versions" } else { "remove_versions" };
                plan.lines.push(Line {
                    kind: LineKind::Update(j),
                    due: gap * i as u32 + gap / 2,
                    text: format!(
                        "{{\"v\": 1, \"id\": \"u{j}\", \"cmd\": \"update\", \"{field}\": \
                         [{{\"package\": \"{package}\", \"version\": \"0.0.1\"}}]}}"
                    ),
                });
                plan.updates += 1;
            }
        }
        plan
    }
}

/// State shared by the pacing reader, the sink and the caller.
#[derive(Default)]
struct Shared {
    warm_pending: Mutex<usize>,
    warm_done: Condvar,
    /// When the schedule started (the last warm-up response arrived).
    t0: Mutex<Option<Instant>>,
    /// Per line: when the server asked for it and when it was handed over.
    handed: Mutex<Vec<(Instant, Instant)>>,
    responses: Mutex<Vec<(Instant, String)>>,
}

/// A `BufRead` that hands out one line at a time, each no earlier than its due time.
struct PacedInput<'p> {
    lines: &'p [Line],
    shared: &'p Shared,
    next: usize,
    cur: Vec<u8>,
    pos: usize,
}

impl PacedInput<'_> {
    fn load_next(&mut self) {
        let line = &self.lines[self.next];
        let called = Instant::now();
        if line.kind != LineKind::Warm {
            let mut t0 = self.shared.t0.lock().expect("pacing state poisoned");
            let start = *t0.get_or_insert_with(|| {
                let mut pending = self.shared.warm_pending.lock().expect("pacing state poisoned");
                while *pending > 0 {
                    pending = self.shared.warm_done.wait(pending).expect("pacing state poisoned");
                }
                Instant::now()
            });
            drop(t0);
            let due = start + line.due;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep(due - now);
            }
        }
        self.shared.handed.lock().expect("pacing state poisoned").push((called, Instant::now()));
        self.cur.clear();
        self.cur.extend_from_slice(line.text.as_bytes());
        self.cur.push(b'\n');
        self.pos = 0;
        self.next += 1;
    }
}

impl Read for PacedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedInput<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.cur.len() && self.next < self.lines.len() {
            self.load_next();
        }
        Ok(&self.cur[self.pos.min(self.cur.len())..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// A `Write` that timestamps every complete response line as it is flushed.
struct Sink<'p> {
    shared: &'p Shared,
    buf: Vec<u8>,
}

impl Write for Sink<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let now = Instant::now();
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
            self.buf.drain(..=end);
            let warm = line.contains("\"id\": \"w");
            self.shared.responses.lock().expect("pacing state poisoned").push((now, line));
            if warm {
                let mut pending = self.shared.warm_pending.lock().expect("pacing state poisoned");
                *pending = pending.saturating_sub(1);
                self.shared.warm_done.notify_all();
            }
        }
        Ok(())
    }
}

/// Timestamps of one scheduled line.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Instant,
    /// When the server's admission loop asked for the line.
    pub called: Instant,
    /// When the reader handed it over (the line was consumed).
    pub handed: Instant,
    /// When its response line was flushed.
    pub responded: Instant,
}

/// The outcome of one served run.
pub struct Served {
    /// Server start to the last warm-up response.
    pub setup: Duration,
    /// Per solve: timestamps and parsed response.
    pub solves: Vec<(Timing, SolveResponse)>,
    /// Per update: timestamps and the raw response line.
    pub updates: Vec<(Timing, String)>,
    pub stats: ServerStats,
    /// Schedule start.
    pub t0: Instant,
    pub errors: Vec<String>,
}

/// Serve `plan` on a fresh server over the universe's service buildcache.
pub fn serve(universe: &Universe, plan: &Plan) -> Served {
    let shared = Shared { warm_pending: Mutex::new(2), ..Shared::default() };
    let config = ServerConfig {
        workers: WORKERS,
        default_site: "quartz".to_string(),
        ..ServerConfig::default()
    };
    let start = Instant::now();
    let input =
        PacedInput { lines: &plan.lines, shared: &shared, next: 0, cur: Vec::new(), pos: 0 };
    let sink = Sink { shared: &shared, buf: Vec::new() };
    let stats = serve_pipe(&universe.repo, Some(&universe.service_cache), &config, input, sink);

    let responses = shared.responses.into_inner().expect("pacing state poisoned");
    let handed = shared.handed.into_inner().expect("pacing state poisoned");
    let mut errors = Vec::new();
    let by_id: std::collections::HashMap<String, (Instant, &str)> = responses
        .iter()
        .filter_map(|(t, line)| {
            let id = line.split("\"id\": \"").nth(1)?.split('"').next()?;
            Some((id.to_string(), (*t, line.as_str())))
        })
        .collect();
    let warm_end = ["w0", "w1"].iter().filter_map(|id| by_id.get(*id).map(|r| r.0)).max();
    for id in ["w0", "w1"] {
        match by_id.get(id).map(|(_, l)| SolveResponse::parse(l)) {
            Some(Ok(r)) if r.status.as_str() == "ok" => {}
            other => errors.push(format!("warm-up {id} failed: {other:?}")),
        }
    }
    let t0 = shared
        .t0
        .into_inner()
        .expect("pacing state poisoned")
        .unwrap_or_else(|| warm_end.unwrap_or(start));
    let (mut solves, mut updates) = (Vec::new(), Vec::new());
    for (line, &(called, handed_at)) in plan.lines.iter().zip(&handed) {
        let id = match line.kind {
            LineKind::Warm => continue,
            LineKind::Solve(i) => format!("s{i}"),
            LineKind::Update(j) => format!("u{j}"),
        };
        let Some(&(responded, text)) = by_id.get(&id) else {
            errors.push(format!("no response to {id}"));
            continue;
        };
        let timing = Timing { due: t0 + line.due, called, handed: handed_at, responded };
        match line.kind {
            LineKind::Solve(_) => match SolveResponse::parse(text) {
                Ok(r) => solves.push((timing, r)),
                Err(e) => errors.push(format!("{id}: unparsable response: {e}")),
            },
            _ => updates.push((timing, text.to_string())),
        }
    }
    Served {
        setup: warm_end.map_or(Duration::ZERO, |t| t - start),
        solves,
        updates,
        stats,
        t0,
        errors,
    }
}
