//! The span recorder of the traced run.
//!
//! Spans are kept in memory: name, start, end, parent, request id and a few numeric
//! attributes. The benchmark opens one around each public call it makes; the phase
//! timings and counters that call returns are attached as child spans and attributes.
//! At exit the spans are written out as JSON lines, each with its self time (its
//! duration minus its children's). When tracing is off every call is a no-op.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Where a span's work came from: the workload's own timed traffic, or the layer
/// replay a traced run adds for layers that traffic does not reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Traffic,
    Replay,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: Option<u32>,
    pub source: Source,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    source: Source,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), source: Source::Traffic, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Attribute every later span to `source`.
    pub fn set_source(&mut self, source: Source) {
        self.source = source;
    }

    /// Record a finished span; returns its id (`usize::MAX` when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u32>,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            parent,
            request,
            source: self.source,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attach phase timings a call returned as consecutive child spans of `parent`,
    /// laid out from the parent's start.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        if !self.on {
            return;
        }
        let (mut at, request) = (self.spans[parent].start, self.spans[parent].request);
        for &(name, d) in phases {
            self.spans.push(Span {
                name,
                start: at,
                end: at + d,
                parent: Some(parent),
                request,
                source: self.source,
                attrs: Vec::new(),
            });
            at += d;
        }
    }

    pub fn attrs(&mut self, span: usize, attrs: &[(&'static str, f64)]) {
        if self.on {
            self.spans[span].attrs.extend_from_slice(attrs);
        }
    }

    /// Self time per span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// The spans named `name`, from the workload's traffic when it produced any and
    /// from the layer replay otherwise.
    pub fn select(&self, name: &str) -> Vec<usize> {
        let pick = |src| -> Vec<usize> {
            (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name && self.spans[i].source == src)
                .collect()
        };
        let traffic = pick(Source::Traffic);
        if traffic.is_empty() {
            pick(Source::Replay)
        } else {
            traffic
        }
    }

    /// Children of the given spans named `name`.
    pub fn children(&self, parents: &[usize], name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| {
                self.spans[i].name == name
                    && self.spans[i].parent.is_some_and(|p| parents.contains(&p))
            })
            .collect()
    }

    /// The spans as JSON lines, with self time.
    pub fn render(&self) -> String {
        let own = self.self_ms();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"self_ms\": {:.4}, \"parent\": {}, \"request\": {}, \"source\": \"{}\"",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                own[i],
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
                if s.source == Source::Traffic { "traffic" } else { "replay" },
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Mean of a list (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Linear-interpolated quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let pos = (v.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
