//! In-memory spans for the traced run.
//!
//! Each client thread owns a [`Tracer`]; spans record name, start,
//! end, parent and request id, and stay in memory until the run ends,
//! when [`Trace::write`] spills them as NDJSON. Spans wrap the
//! benchmark's own calls into each layer's public functions. A layer
//! the request reaches only through another layer (the SP-DP inside a
//! `Solver`, `rtt_sim` inside `certify`) is timed by calling its public
//! function again on the same inputs, in a span of its own beside the
//! outer call, with the outer span as parent.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.lp`, `engine.certify`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Work counters gathered at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Simplex pivots of the traced LP solves (phase 1 + phase 2).
    pub lp_pivots: u64,
    /// Basis refactorizations of the traced LP solves.
    pub lp_refactorizations: u64,
    /// SP-DP table cells written.
    pub sp_dp_cells: u64,
    /// SP-DP parallel-merge steps.
    pub sp_dp_merge_steps: u64,
    /// Exhaustive-search assignments explored.
    pub exact_nodes: u64,
    /// Events of the certification replays.
    pub sim_events: u64,
    /// Wire-sweep grid points computed (not replayed).
    pub sweep_points: u64,
    /// Pivots those grid points cost (their `work` fields).
    pub sweep_pivots: u64,
    /// Strands of the analyzed programs.
    pub race_strands: u64,
    /// Race witnesses the static analysis found.
    pub witnesses: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.lp_pivots += o.lp_pivots;
        self.lp_refactorizations += o.lp_refactorizations;
        self.sp_dp_cells += o.sp_dp_cells;
        self.sp_dp_merge_steps += o.sp_dp_merge_steps;
        self.exact_nodes += o.exact_nodes;
        self.sim_events += o.sim_events;
        self.sweep_points += o.sweep_points;
        self.sweep_pivots += o.sweep_pivots;
        self.race_strands += o.race_strands;
        self.witnesses += o.witnesses;
    }
}

/// One client's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// The client's counters.
    pub counters: Counters,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            counters: Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns its handle.
    pub fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes the span `handle`.
    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result and the span handle.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let h = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(h);
        (out, h)
    }

    /// Runs `f` and records as `name` only the part of its run after
    /// its first `skip_ns` nanoseconds: the stage of a pipeline whose
    /// leading stage was timed on its own and took `skip_ns`. The span
    /// is empty if the whole call took less.
    pub fn span_after<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        skip_ns: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let h = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(h);
        let span = &mut self.spans[h];
        span.start_ns = (span.start_ns + skip_ns).min(span.end_ns);
        out
    }

    /// Nanoseconds the span `handle` lasted.
    pub fn span_ns(&self, handle: usize) -> u64 {
        let s = &self.spans[handle];
        s.end_ns - s.start_ns
    }
}

/// Every client's spans and counters, merged after the run.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans; parents index into this vector.
    pub spans: Vec<Span>,
    /// Summed counters.
    pub counters: Counters,
}

impl Trace {
    /// Merges the tracers of all clients.
    pub fn merge(tracers: Vec<Tracer>) -> Trace {
        let mut out = Trace::default();
        for t in tracers {
            let offset = out.spans.len();
            out.spans.extend(t.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
            out.counters.add(&t.counters);
        }
        out
    }

    /// Per-request totals of every span name: `name → (request → ms)`.
    pub fn per_request(&self) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default().entry(s.request).or_default() += s.ms();
        }
        out
    }

    /// Self time of every `parent_name` span: its duration minus the
    /// spans parented to it, per request (clamped at zero — a child
    /// timed beside its parent can run a little faster than it did
    /// inside it).
    pub fn self_ms(&self, parent_name: &str) -> BTreeMap<usize, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent_name {
                *out.entry(s.request).or_default() += (s.ms() - child_ms[i]).max(0.0);
            }
        }
        out
    }

    /// Writes the spans as NDJSON to `path` (one object per span).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
