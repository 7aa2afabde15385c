//! # rtt-perfbench — the repository's end-to-end benchmark
//!
//! One entry point, [`run`], generates a workload from a seed, serves
//! it the way `rtt batch` workers do (a closed loop of one client per
//! core over one shared registry and cache set), checks every output,
//! and returns the end-to-end metrics — or, in the traced mode, the
//! per-layer metrics of a second, traced pass. `README.md` beside this
//! crate documents the workloads, the metrics and what each layer
//! metric is predicted to move.

#![forbid(unsafe_code)]

pub mod checks;
pub mod gen;
pub mod ingest;
pub mod serve;
pub mod stats;
pub mod trace;

use gen::{Corpus, Origin, RaceProgram, ServingCorpus, Workload};
use stats::{median, ms, quantile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Trace, Tracer};

/// Set-up repetitions per run; `setup_s` is their median. The machine's
/// speed drifts over seconds, so the repetitions are split: the first
/// [`SETUP_REPS_BEFORE`] precede the timed phase (the last of them builds
/// the state it serves) and the rest follow the checks.
const SETUP_REPS: usize = 11;
const SETUP_REPS_BEFORE: usize = 6;
/// Race-ingest set-up (registry and caches only) takes under a
/// microsecond, so one repetition times this many constructions and
/// the run reports the median of [`INGEST_SETUP_REPS`] repetitions,
/// split around the timed phase like the serving ones.
const INGEST_SETUP_BATCH: usize = 50_000;
const INGEST_SETUP_REPS: usize = 22;
/// Race-ingest programs of at most this many strands are also run
/// through the dynamic detector, one in [`DYNAMIC_SAMPLE`] of them.
const DYNAMIC_MAX_STRANDS: usize = 2_000;
const DYNAMIC_SAMPLE: u64 = 4;
/// Requests per throughput chunk: a whole number of stratification
/// blocks of every workload (50, 20 and 400 requests).
const CHUNK: usize = 400;
/// The fewest requests a run may serve: the p99 then has at least ten
/// samples beyond it.
pub const MIN_REQUESTS: usize = 1000;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Target length of the timed phase; sizes the corpus.
    pub seconds: u64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Corpus size override (smoke runs); `None` sizes from `seconds`.
    pub requests: Option<usize>,
    /// Closed-loop clients.
    pub clients: usize,
}

impl Config {
    /// Requests the run serves.
    pub fn request_count(&self) -> usize {
        self.requests.unwrap_or_else(|| {
            (self.workload.requests_per_second() * self.seconds as usize).max(MIN_REQUESTS)
        })
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Ids of requests that failed, with the reason.
    pub failed: Vec<(String, String)>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines for stderr: workload properties, sample
    /// counts, the error rate.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output passed its checks.
    pub fn correct(&self) -> bool {
        self.failed.is_empty()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed.len(),
            metrics_json(&self.metrics)
        )
    }
}

/// `{"<name>":{"value":<v>,"unit":"<unit>"},…}`, every digit kept.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(
                m.value.is_finite(),
                "{} = {} is not a JSON number",
                m.name,
                m.value
            );
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Span names of the per-layer `*_ms` metrics, in report order. Each is
/// reported as `<name>_ms.median` (per request, over the requests that
/// reached the layer) and `<name>_ms.total` (the run).
pub const LAYER_SPANS: [&str; 20] = [
    "cli.parse",
    "core.fingerprint",
    "engine.prep",
    "engine.self",
    "cli.render",
    "core.lp",
    "core.round",
    "core.sp_dp",
    "core.exact",
    "core.regimes",
    "engine.certify",
    "sim.replay",
    "engine.reuse_replay",
    "engine.reuse_store",
    "engine.sweep",
    "race.footprint",
    "analyze.sweep",
    "race.extract",
    "core.from_race",
    "cli.emit",
];

/// The per-layer metrics that are counts or ratios, with their units.
pub const LAYER_COUNTS: [(&str, &str); 13] = [
    ("lp.pivots", "count"),
    ("lp.refactorizations", "count"),
    ("lp.pivots_per_point", "count"),
    ("core.sp_dp_cells", "count"),
    ("core.sp_dp_merge_steps", "count"),
    ("core.exact_nodes", "count"),
    ("sim.events", "count"),
    ("engine.reuse_hit_rate", "ratio"),
    ("engine.reuse_evictions", "count"),
    ("engine.prep_hit_rate", "ratio"),
    ("race.strands", "count"),
    ("analyze.witnesses", "count"),
    ("trace.overhead_pct", "%"),
];

/// The end-to-end metrics, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_ratio", "ratio"),
];

/// Runs one benchmark pass and returns its outcome.
pub fn run(cfg: &Config) -> Outcome {
    let corpus = gen::generate(cfg.workload, cfg.seed, cfg.request_count());
    let mut notes = describe(&corpus, cfg);
    notes.push(format!(
        "input generation: peak resident {:.1} MB, resident after {:.1} MB",
        stats::peak_rss_mb(),
        stats::rss_mb()
    ));
    let mut out = match &corpus {
        Corpus::Serving(c) => run_serving(cfg, c, &mut notes),
        Corpus::Race(p) => run_ingest(cfg, p, &mut notes),
    };
    out.notes = notes;
    out
}

/// The resident set the generated inputs hold when set-up starts. The
/// peak is reset there, so that the generator's temporary data does not
/// count, and `peak_rss_mb` is the peak above this floor: the memory the
/// program under test adds, undiluted by the inputs.
struct InputFloor(f64);

impl InputFloor {
    fn take() -> InputFloor {
        stats::reset_peak_rss();
        InputFloor(stats::rss_mb())
    }

    /// Read when the timed phase ends, before the checks allocate.
    fn peak_above(&self, notes: &mut Vec<String>) -> f64 {
        let peak = stats::peak_rss_mb();
        notes.push(format!(
            "resident: inputs {:.1} MB when set-up starts, peak {peak:.1} MB by the end of the timed phase",
            self.0
        ));
        peak - self.0
    }
}

/// What an untraced pass measured.
struct Pass {
    clients: usize,
    setup_s: f64,
    /// Peak resident set of set-up and the timed phase above the
    /// resident set of the inputs; see [`InputFloor`].
    peak_rss_mb: f64,
    latencies_ms: Vec<f64>,
    wall: Duration,
    ratios: Vec<f64>,
    failed: Vec<(String, String)>,
}

impl Pass {
    /// Throughput: requests over the clients' serving time — the idle
    /// drain at the end of a closed loop, where one client waits for
    /// the other's last request, is not serving time — taken per chunk
    /// of [`CHUNK`] consecutive requests, and the median over chunks.
    /// Every chunk holds whole stratification blocks, hence the same
    /// request mix, so the median stands for the run while one slow
    /// outlier request or a burst of machine noise moves one chunk only.
    fn requests_per_s(&self) -> f64 {
        let rate =
            |lat: &[f64]| lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3 / self.clients as f64);
        let chunks: Vec<f64> = self.latencies_ms.chunks_exact(CHUNK).map(rate).collect();
        if chunks.is_empty() {
            rate(&self.latencies_ms)
        } else {
            median(&chunks)
        }
    }

    fn end_to_end(&self, notes: &mut Vec<String>) -> Vec<Metric> {
        let mut lat = self.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        notes.push(format!(
            "latency samples: {n} ({} beyond p99); timed phase {:.3} s wall, {:.3} s serving per client",
            n - (0.99 * n as f64).ceil() as usize,
            self.wall.as_secs_f64(),
            self.latencies_ms.iter().sum::<f64>() / 1e3 / self.clients as f64
        ));
        notes.push(format!(
            "error_rate: {} ratio ({} failed of {n} attempted)",
            self.failed.len() as f64 / n as f64,
            self.failed.len()
        ));
        notes.push(format!(
            "makespan ratios: {} solved plans that could differ from the base plan, {} better than it",
            self.ratios.len(),
            self.ratios.iter().filter(|&&r| r < 1.0).count()
        ));
        let (slowest, worst) = self
            .latencies_ms
            .iter()
            .copied()
            .zip(0..)
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one request");
        notes.push(format!("slowest request: #{worst} ({slowest:.1} ms)"));
        let values = [
            self.requests_per_s(),
            quantile(&lat, 0.50),
            quantile(&lat, 0.99),
            self.setup_s,
            self.peak_rss_mb,
            stats::geomean(&self.ratios),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| metric(name, unit, v))
            .collect()
    }
}

fn run_serving(cfg: &Config, corpus: &ServingCorpus, notes: &mut Vec<String>) -> Outcome {
    let text = corpus.ndjson();
    let floor = InputFloor::take();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS_BEFORE {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(serve::setup(&text));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");
    let (served, _, wall) = serve::closed_loop(state.len(), vec![(); cfg.clients], |_, i| {
        serve::serve_one(&state, i)
    });
    let peak_rss_mb = floor.peak_above(notes);
    let stats = state.reuse.stats();
    drop(state);
    notes.push(format!(
        "solution tier: {} hits, {} misses, {} evictions (hit share {:.3})",
        stats.solution_hits,
        stats.solution_misses,
        stats.evictions,
        stats.solution_hits as f64 / (stats.solution_hits + stats.solution_misses).max(1) as f64
    ));
    // served requests are gone, so the checks rebuild them from the corpus
    let fresh = serve::setup(&text);
    let reuse = rtt_engine::ReuseCache::new(serve::CACHE_CAPACITY);
    let (registry, requests) = (rtt_engine::Registry::standard(), fresh.into_requests());
    let mut failed: BTreeMap<usize, String> = BTreeMap::new();
    let mut ratios = Vec::new();
    for (i, (s, _)) in served.iter().enumerate() {
        let problems = checks::check_request(&requests[i], &s.reports);
        if !problems.is_empty() {
            failed.insert(i, problems.join("; "));
        }
        ratios.extend(checks::makespan_ratios(&requests[i], &s.reports));
    }
    // the closed loop must emit exactly what `rtt batch --reuse-cache`
    // emits for the same corpus
    let batch = rtt_engine::run_batch_cached(&registry, requests, cfg.clients, Some(&reuse));
    let mut by_id: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for r in &batch.reports {
        by_id
            .entry(&r.id)
            .or_default()
            .push(rtt_cli::report_line(r));
    }
    for (i, (s, _)) in served.iter().enumerate() {
        if by_id.get(corpus.lines[i].id.as_str()) != Some(&s.lines) {
            failed
                .entry(i)
                .or_default()
                .push_str("; rendered lines differ from run_batch_cached");
        }
    }
    drop(batch);
    for _ in SETUP_REPS_BEFORE..SETUP_REPS {
        let t0 = Instant::now();
        drop(serve::setup(&text));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let pass = Pass {
        clients: cfg.clients,
        setup_s: median(&setups),
        peak_rss_mb,
        latencies_ms: served.iter().map(|(_, lat)| ms(*lat)).collect(),
        wall,
        ratios,
        failed: failed
            .into_iter()
            .map(|(i, why)| (corpus.lines[i].id.clone(), why))
            .collect(),
    };
    let e2e = pass.end_to_end(notes);
    let metrics = if cfg.trace {
        serving_traced(cfg, corpus, wall, &e2e, notes)
    } else {
        e2e
    };
    Outcome {
        attempted: corpus.lines.len(),
        failed: pass.failed,
        metrics,
        notes: Vec::new(),
    }
}

fn serving_traced(
    cfg: &Config,
    corpus: &ServingCorpus,
    untraced: Duration,
    e2e: &[Metric],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::new(epoch);
    let lines: Vec<&str> = corpus.lines.iter().map(|l| l.text.as_str()).collect();
    let state = serve::setup_traced(&lines, &mut setup_tracer);
    let prep_hit_rate = state.prep.stats().instance_hit_rate();
    let stored = serve::StoredKeys::default();
    let scratch = rtt_engine::ReuseCache::new(serve::CACHE_CAPACITY);
    let clients: Vec<Tracer> = (0..cfg.clients).map(|_| Tracer::new(epoch)).collect();
    let (_, mut tracers, wall) = serve::closed_loop(state.len(), clients, |t, i| {
        serve::serve_one_traced(&state, i, t, &stored, &scratch)
    });
    tracers.push(setup_tracer);
    let trace = Trace::merge(tracers);
    let stats = state.reuse.stats();
    let caches = CacheCounts {
        reuse_hit_rate: stats.solution_hits as f64
            / (stats.solution_hits + stats.solution_misses).max(1) as f64,
        reuse_evictions: stats.evictions,
        prep_hit_rate,
    };
    let layers = layer_metrics(&trace, wall, untraced, &caches, notes);
    write_trace(cfg, &trace, e2e, &layers, notes);
    layers
}

/// Cache statistics of a traced serving pass (all zero on race-ingest,
/// which uses no cache).
#[derive(Default)]
struct CacheCounts {
    reuse_hit_rate: f64,
    reuse_evictions: u64,
    prep_hit_rate: f64,
}

fn layer_metrics(
    trace: &Trace,
    traced: Duration,
    untraced: Duration,
    caches: &CacheCounts,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut per_request = trace.per_request();
    per_request.insert("engine.self", trace.self_ms("engine.execute"));
    let mut out = Vec::new();
    for name in LAYER_SPANS {
        let values: Vec<f64> = per_request
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        let (med, total) = if values.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&values), values.iter().sum())
        };
        out.push(metric(format!("{name}_ms.median"), "ms", med));
        out.push(metric(format!("{name}_ms.total"), "ms", total));
    }
    let c = &trace.counters;
    let overhead_pct = (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0;
    let counts = [
        c.lp_pivots as f64,
        c.lp_refactorizations as f64,
        if c.sweep_points == 0 {
            0.0
        } else {
            c.sweep_pivots as f64 / c.sweep_points as f64
        },
        c.sp_dp_cells as f64,
        c.sp_dp_merge_steps as f64,
        c.exact_nodes as f64,
        c.sim_events as f64,
        caches.reuse_hit_rate,
        caches.reuse_evictions as f64,
        caches.prep_hit_rate,
        c.race_strands as f64,
        c.witnesses as f64,
        overhead_pct,
    ];
    for (&(name, unit), v) in LAYER_COUNTS.iter().zip(counts) {
        out.push(metric(name, unit, v));
    }
    notes.push(format!(
        "tracing overhead: traced timed phase {:.3} s vs untraced {:.3} s ({overhead_pct:+.1}%)",
        traced.as_secs_f64(),
        untraced.as_secs_f64()
    ));
    out
}

/// Writes the traced run's own output beside the benchmark: the spans,
/// and a summary holding the untraced pass's end-to-end metrics next to
/// the per-layer ones (`trace.overhead_pct` among them).
fn write_trace(
    cfg: &Config,
    trace: &Trace,
    e2e: &[Metric],
    layers: &[Metric],
    notes: &mut Vec<String>,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let summary = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"end_to_end\":{},\"per_layer\":{}}}\n",
        cfg.workload.name(),
        cfg.seed,
        metrics_json(e2e),
        metrics_json(layers)
    );
    let written = trace
        .write(&dir.join(format!("{stem}.spans.ndjson")))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.trace.json")), summary));
    match written {
        Ok(()) => notes.push(format!(
            "trace output: out/{stem}.spans.ndjson ({} spans), out/{stem}.trace.json",
            trace.spans.len()
        )),
        Err(e) => notes.push(format!("trace output not written: {e}")),
    }
}

fn ingest_setup() -> f64 {
    let t0 = Instant::now();
    for _ in 0..INGEST_SETUP_BATCH {
        std::hint::black_box((
            rtt_engine::Registry::standard(),
            rtt_engine::PrepCache::with_capacity(serve::CACHE_CAPACITY),
            rtt_engine::ReuseCache::new(serve::CACHE_CAPACITY),
        ));
    }
    t0.elapsed().as_secs_f64() / INGEST_SETUP_BATCH as f64
}

fn run_ingest(cfg: &Config, programs: &[RaceProgram], notes: &mut Vec<String>) -> Outcome {
    let floor = InputFloor::take();
    let mut setups: Vec<f64> = (0..INGEST_SETUP_REPS / 2).map(|_| ingest_setup()).collect();
    // the first copy of each program gets the full check; later copies
    // of a pooled program must match its digest
    let key = |p: &RaceProgram| {
        (
            std::sync::Arc::as_ptr(&p.prog),
            p.family == rtt_core::ReducerFamily::KWay,
        )
    };
    let mut seen = std::collections::BTreeSet::new();
    let first: Vec<bool> = programs.iter().map(|p| seen.insert(key(p))).collect();
    let (done, _, wall) = serve::closed_loop(programs.len(), vec![(); cfg.clients], |_, i| {
        ingest::ingest_one(&programs[i])
    });
    let peak_rss_mb = floor.peak_above(notes);
    let mut failed = Vec::new();
    let mut sampled = 0;
    let mut digests: BTreeMap<(*const rtt_race::Prog, bool), u64> = BTreeMap::new();
    for (i, (out, _)) in done.iter().enumerate() {
        let p = &programs[i];
        // the dynamic detector is quadratic in the worst case, so it
        // runs on a seeded subsample of the small programs
        let dynamic = first[i]
            && p.strands <= DYNAMIC_MAX_STRANDS
            && (cfg.seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60
                < 16 / DYNAMIC_SAMPLE;
        sampled += usize::from(dynamic);
        let problems = if first[i] {
            digests.insert(key(p), out.digest);
            ingest::check_one(p, out, dynamic)
        } else if digests.get(&key(p)) != Some(&out.digest) {
            vec!["emission differs from the first emission of the same program".to_string()]
        } else {
            Vec::new()
        };
        if !problems.is_empty() {
            failed.push((p.id.clone(), problems.join("; ")));
        }
    }
    notes.push(format!(
        "dynamic witness-set comparison on {sampled} sampled programs"
    ));
    setups.extend((INGEST_SETUP_REPS / 2..INGEST_SETUP_REPS).map(|_| ingest_setup()));
    let pass = Pass {
        clients: cfg.clients,
        setup_s: median(&setups),
        peak_rss_mb,
        latencies_ms: done.iter().map(|(_, lat)| ms(*lat)).collect(),
        wall,
        ratios: Vec::new(),
        failed,
    };
    let e2e = pass.end_to_end(notes);
    let metrics = if cfg.trace {
        let epoch = Instant::now();
        let clients: Vec<Tracer> = (0..cfg.clients).map(|_| Tracer::new(epoch)).collect();
        let (_, tracers, traced) = serve::closed_loop(programs.len(), clients, |t, i| {
            ingest::ingest_one_traced(&programs[i], i, t)
        });
        let trace = Trace::merge(tracers);
        let layers = layer_metrics(&trace, traced, wall, &CacheCounts::default(), notes);
        write_trace(cfg, &trace, &e2e, &layers, notes);
        layers
    } else {
        e2e
    };
    Outcome {
        attempted: programs.len(),
        failed: pass.failed,
        metrics,
        notes: Vec::new(),
    }
}

/// The workload's measured input properties, for stderr and the doc.
fn describe(corpus: &Corpus, cfg: &Config) -> Vec<String> {
    let mut notes = vec![format!(
        "workload {} seed {}: {} requests, {} clients (available parallelism {})",
        cfg.workload.name(),
        cfg.seed,
        corpus.len(),
        cfg.clients,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];
    let spread = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        format!(
            "p50 {} / p90 {} / p99 {} / max {}",
            quantile(&v, 0.5),
            quantile(&v, 0.9),
            quantile(&v, 0.99),
            v[v.len() - 1]
        )
    };
    match corpus {
        Corpus::Serving(c) => {
            let n = c.lines.len() as f64;
            notes.push(format!(
                "instance arcs: {}",
                spread(c.lines.iter().map(|l| l.arcs as f64).collect())
            ));
            let mut mix: BTreeMap<String, usize> = BTreeMap::new();
            let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
            for l in &c.lines {
                let what = match (l.grid_points, l.solver) {
                    (0, Some(s)) => s.to_string(),
                    (0, None) => "all".to_string(),
                    _ => "sweep".to_string(),
                };
                *mix.entry(what).or_default() += 1;
                *kinds.entry(l.kind).or_default() += 1;
            }
            notes.push(format!("solver mix: {mix:?}"));
            notes.push(format!("instance kinds: {kinds:?}"));
            let share =
                |f: fn(&Origin) -> bool| c.lines.iter().filter(|l| f(&l.origin)).count() as f64 / n;
            notes.push(format!(
                "heavy share {:.3}; repeat share {:.3} (exact {:.3}, relabeled {:.3}); perturbed-sibling share {:.3}",
                c.lines.iter().filter(|l| l.heavy).count() as f64 / n,
                share(|o| matches!(o, Origin::Repeat { .. } | Origin::Relabeled { .. })),
                share(|o| matches!(o, Origin::Repeat { .. })),
                share(|o| matches!(o, Origin::Relabeled { .. })),
                share(|o| matches!(o, Origin::Perturbed { .. })),
            ));
            let points: usize = c.lines.iter().map(|l| l.grid_points).sum();
            if points > 0 {
                notes.push(format!("sweep grid points: {points}"));
            }
        }
        Corpus::Race(ps) => {
            notes.push(format!(
                "program strands: {}",
                spread(ps.iter().map(|p| p.strands as f64).collect())
            ));
            let mm = ps.iter().filter(|p| p.kind == "race-mm").count();
            notes.push(format!(
                "kinds: race-mm {mm}, race-forkjoin {}",
                ps.len() - mm
            ));
        }
    }
    notes
}
