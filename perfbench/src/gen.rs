//! The seeded workload generator: one seed in, one corpus out.
//!
//! Every workload is *stratified*: requests come in fixed-size blocks,
//! each holding the same mix of request classes (heavy versus light,
//! solver fan-out versus a named solver, budget versus target, grid
//! versus single budget, repeat versus fresh), and only the instances
//! themselves, their order inside a block, the named solver and the
//! objectives are drawn from the seed. The few requests that carry most
//! of the serving time draw from streams of their own that the seed
//! does not reach. A run's time metrics then depend on the code under
//! test rather than on how many heavy requests one seed happened to draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_cli::spec::{DurationSpec, InstanceSpec};
use rtt_core::{ArcInstance, ReducerFamily};
use rtt_dag::gen;
use rtt_race::program::Prog;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique instances of every generator kind; every cache lookup misses.
    MixedCold,
    /// Budget grids and single-budget lines, about half of them repeats.
    SweepRedundant,
    /// Racy programs turned into wire instances.
    RaceIngest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MixedCold,
        Workload::SweepRedundant,
        Workload::RaceIngest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedCold => "mixed-cold",
            Workload::SweepRedundant => "sweep-redundant",
            Workload::RaceIngest => "race-ingest",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second of `--seconds` the corpus is sized for: the
    /// timed phase of a run lasts about `--seconds` on a 2-core x86-64
    /// container at the commit that defined the benchmark.
    pub fn requests_per_second(self) -> usize {
        match self {
            Workload::MixedCold => 400,
            Workload::SweepRedundant => 320,
            Workload::RaceIngest => 880,
        }
    }
}

/// How a serving line relates to the lines before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A new instance.
    Fresh,
    /// The same request as line `of`, byte for byte apart from the id.
    Repeat { of: usize },
    /// The same request as line `of` with nodes and arcs permuted.
    Relabeled { of: usize },
    /// Line `of`'s instance shape with some durations changed.
    Perturbed { of: usize },
}

/// One generated request line and what the generator knows about it.
#[derive(Debug, Clone)]
pub struct Line {
    /// The request id (`id` field of the line).
    pub id: String,
    /// The NDJSON request line the program receives.
    pub text: String,
    /// Generator kind of the instance.
    pub kind: &'static str,
    /// The named solver, or `None` for fan-out to every solver.
    pub solver: Option<&'static str>,
    /// Whether the line belongs to the heavy (LP of hundreds of ms) class.
    pub heavy: bool,
    /// Relation to earlier lines.
    pub origin: Origin,
    /// Grid points of a `budgets` line (0 for single solves).
    pub grid_points: usize,
    /// Arcs of the instance.
    pub arcs: usize,
}

/// A generated serving corpus.
#[derive(Debug, Clone)]
pub struct ServingCorpus {
    /// The lines, in the order clients take them.
    pub lines: Vec<Line>,
}

impl ServingCorpus {
    /// The corpus as the NDJSON text `rtt batch` reads.
    pub fn ndjson(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(&l.text);
            out.push('\n');
        }
        out
    }
}

/// One race-ingest request: a racy program and the reducer family its
/// instance is built with.
#[derive(Debug, Clone)]
pub struct RaceProgram {
    /// The request id.
    pub id: String,
    /// `race-forkjoin` or `race-mm`.
    pub kind: &'static str,
    /// The program (building it is input generation, never timed).
    pub prog: Arc<Prog>,
    /// Duration family of the emitted instance.
    pub family: ReducerFamily,
    /// Strands of the program.
    pub strands: usize,
}

/// A generated corpus of either form.
#[derive(Debug, Clone)]
pub enum Corpus {
    /// NDJSON request lines (mixed-cold, sweep-redundant).
    Serving(ServingCorpus),
    /// Racy programs (race-ingest).
    Race(Vec<RaceProgram>),
}

impl Corpus {
    /// Number of requests.
    pub fn len(&self) -> usize {
        match self {
            Corpus::Serving(c) => c.lines.len(),
            Corpus::Race(p) => p.len(),
        }
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A digest of every generated input, for the same-seed identity check.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Corpus::Serving(c) => {
                for l in &c.lines {
                    h.write(l.text.as_bytes());
                }
            }
            Corpus::Race(ps) => {
                for p in ps {
                    h.write(p.id.as_bytes());
                    h.write(format!("{:?}{:?}", p.family, p.prog).as_bytes());
                }
            }
        }
        h.0
    }
}

/// FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        // a separator, so ["ab","c"] and ["a","bc"] differ
        self.0 = self.0.rotate_left(5) ^ 0xff;
    }
}

/// Generates `requests` requests of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, requests: usize) -> Corpus {
    // the workload is mixed into the seed so that the three workloads of
    // one seed draw unrelated streams
    let mut rng =
        StdRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match workload {
        Workload::MixedCold => Corpus::Serving(mixed_cold(&mut rng, requests)),
        Workload::SweepRedundant => Corpus::Serving(sweep_redundant(&mut rng, requests)),
        Workload::RaceIngest => Corpus::Race(race_ingest(&mut rng, requests)),
    }
}

/// A bare DAG with race-DAG durations (`rtt gen --kind race|sp|layered`).
fn dag_spec(tt: &gen::TwoTerminal, family: ReducerFamily) -> InstanceSpec {
    let inst = rtt_core::Instance::race_dag(&tt.dag, |w| family.duration(w))
        .expect("generated DAGs are two-terminal");
    InstanceSpec::from_arc(&rtt_core::to_arc_form(&inst).0)
}

/// Shuffles `items` in place (Fisher-Yates on the seeded stream).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Occurrence counters per instance kind. The k-th instance of a kind
/// takes the k-th entry of the kind's size grid and alternates the
/// reducer family, so every corpus holds the same size distribution
/// and only the structure drawn at each size depends on the seed.
#[derive(Default)]
struct Sizes(BTreeMap<&'static str, usize>);

impl Sizes {
    fn next(&mut self, kind: &'static str) -> usize {
        let c = self.0.entry(kind).or_default();
        *c += 1;
        *c - 1
    }
}

/// Fork-join program sizes `(stages, width, contention)` per class.
const FJ_LIGHT: [(usize, usize, usize); 6] = [
    (1, 3, 4),
    (1, 4, 6),
    (2, 2, 4),
    (2, 3, 6),
    (2, 4, 5),
    (1, 6, 8),
];
const FJ_HEAVY: [(usize, usize, usize); 4] = [(5, 18, 10), (5, 22, 12), (6, 20, 10), (6, 24, 12)];
const FJ_SWEEP: [(usize, usize, usize); 4] = [(2, 4, 6), (2, 6, 8), (3, 4, 10), (2, 8, 8)];

/// An instance of one generator kind; `k` is its occurrence index.
fn instance(rng: &mut StdRng, kind: &'static str, k: usize) -> InstanceSpec {
    let family = if k.is_multiple_of(2) {
        ReducerFamily::KWay
    } else {
        ReducerFamily::RecursiveBinary
    };
    let step = k / 2;
    let fj = |rng: &mut StdRng, (stages, width, contention): (usize, usize, usize)| {
        rtt_cli::race_forkjoin_spec(
            rng.random_range(0..u64::MAX),
            stages,
            width,
            contention,
            family,
        )
        .expect("positive sizes")
    };
    match kind {
        // parallel edges model repeated updates of one cell: about three
        // updates per cell, so reducers have work to split
        "race-dag" => {
            let n = 5 + step % 8;
            dag_spec(&gen::random_race_dag(rng, n, 2 * n), family)
        }
        "race-dag-sweep" => {
            let n = 8 + step % 9;
            dag_spec(&gen::random_race_dag(rng, n, 3 * n), family)
        }
        "sp" => dag_spec(&gen::random_sp(rng, 4 + step % 8).tt, family),
        "layered" => dag_spec(
            &gen::layered(rng, 3 + step % 2, 2 + step / 2 % 2, 0.4),
            family,
        ),
        "race-forkjoin" => fj(rng, FJ_LIGHT[step % FJ_LIGHT.len()]),
        "race-forkjoin-heavy" => fj(rng, FJ_HEAVY[step % FJ_HEAVY.len()]),
        "race-forkjoin-sweep" => fj(rng, FJ_SWEEP[step % FJ_SWEEP.len()]),
        other => unreachable!("no generator kind {other}"),
    }
}

fn is_sp(arc: &ArcInstance) -> bool {
    rtt_dag::sp::decompose(arc.dag(), arc.source(), arc.sink()).is_some()
}

/// The solvers a named line may pick for `arc`: only ones that support
/// it, so that a named line does real work.
fn named_choices(arc: &ArcInstance) -> Vec<&'static str> {
    let mut out = vec!["bicriteria", "global-greedy", "noreuse-bicriteria"];
    let kinds: Vec<_> = arc
        .improvable_edges()
        .iter()
        .map(|&e| arc.dag().edge(e).duration.kind())
        .collect();
    if kinds
        .iter()
        .all(|k| matches!(k, rtt_duration::DurationKind::KWay { .. }))
    {
        out.push("kway");
    }
    if kinds
        .iter()
        .all(|k| matches!(k, rtt_duration::DurationKind::RecursiveBinary { .. }))
    {
        out.push("recbinary");
        out.push("recbinary-improved");
    }
    if is_sp(arc) {
        out.push("sp-dp");
    }
    if arc.improvable_edges().len() <= rtt_engine::solver::EXACT_JOB_CAP {
        out.push("exact");
        out.push("noreuse-exact");
    }
    out
}

/// A min-makespan budget or min-resource target for `arc`: budgets are
/// 10–60% of the saturation budget (where plans differ from the base
/// makespan), targets 30–90% of the way from the ideal to the base
/// makespan.
fn objective(rng: &mut StdRng, arc: &ArcInstance, target: bool) -> (&'static str, u64) {
    if target {
        let (base, ideal) = (arc.base_makespan(), arc.ideal_makespan());
        let t = ideal + (base - ideal) * rng.random_range(30..=90) / 100;
        ("target", t)
    } else {
        ("budget", budget_share(rng, arc, 10..=60))
    }
}

fn budget_share(rng: &mut StdRng, arc: &ArcInstance, pct: std::ops::RangeInclusive<u64>) -> u64 {
    (arc.saturation_budget().min(MAX_BUDGET) * rng.random_range(pct) / 100).max(1)
}

/// Budgets never exceed this, which bounds the SP-DP table width.
const MAX_BUDGET: u64 = 256;

fn line_json(id: &str, spec: &InstanceSpec, fields: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"instance\":{}{fields}}}",
        spec.to_json().compact()
    )
}

/// Requests per stratification block of mixed-cold, and the heavy
/// (LP-bound) requests among them: 1 in 50 is the ~2% tail.
const MIXED_BLOCK: usize = 50;

/// The light kinds of one mixed-cold block (49 slots).
const MIXED_LIGHT: [(&str, usize); 4] = [
    ("race-dag", 14),
    ("sp", 13),
    ("layered", 11),
    ("race-forkjoin", 11),
];

/// What a light mixed-cold line asks for, as `(named solver, min-resource
/// target)`. Each instance kind cycles through this list on its own
/// counter, so every corpus holds the same mix: per eight lines of a
/// kind, three name one solver (one of them with a target) and five fan
/// out to every solver (one of them with a target). A named line is
/// several times faster than a fan-out, so the median request falls
/// inside the fan-out mode; with about as many named lines as fan-outs
/// it would sit on the sparse edge between the two, where a percent more
/// named lines moves it by a tenth.
const ASKS: [(bool, bool); 8] = [
    (true, false),
    (false, false),
    (false, true),
    (true, false),
    (false, false),
    (true, true),
    (false, false),
    (false, false),
];

/// The heavy tail of mixed-cold sets the p99 and most of the serving
/// time, yet holds only one request in fifty, so a run sees too few of
/// them for their draws to average out. Its programs and budgets are
/// therefore a function of their occurrence index alone: the k-th heavy
/// fork-join program is drawn from a stream seeded with
/// `TAIL_SEED ^ k`, and the k-th heavy line's budget is a fixed share of
/// the saturation budget. The run's seed still places them.
const TAIL_SEED: u64 = 0x7a11_5eed_0f4e_a7ed;
const TAIL_BUDGET_PCT: [u64; 6] = [10, 20, 30, 40, 50, 60];

fn mixed_cold(rng: &mut StdRng, requests: usize) -> ServingCorpus {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut sizes = Sizes::default();
    let mut asks = Sizes::default();
    let mut lines = Vec::with_capacity(requests);
    // race-mm is deterministic per (n, family), so each pair may appear
    // at most once: n ≤ 8 rides as a light line, 9 ≤ n ≤ 11 as heavy
    let mut mm_light: Vec<(u64, ReducerFamily)> = Vec::new();
    let mut mm_heavy: Vec<(u64, ReducerFamily)> = Vec::new();
    for n in 2..=11u64 {
        for fam in [ReducerFamily::KWay, ReducerFamily::RecursiveBinary] {
            if n >= 9 {
                mm_heavy.push((n, fam))
            } else {
                mm_light.push((n, fam))
            }
        }
    }
    // the pairs are taken in a fixed order, so that each one gets the same
    // place in the race-mm ask cycle in every corpus
    while lines.len() < requests {
        let mut slots: Vec<&'static str> = vec!["heavy"];
        for (kind, count) in MIXED_LIGHT {
            slots.extend(std::iter::repeat_n(kind, count));
        }
        // every other block trades one race-dag slot for a small race-mm
        if (lines.len() / MIXED_BLOCK).is_multiple_of(2) && !mm_light.is_empty() {
            slots[1] = "race-mm";
        }
        shuffle(rng, &mut slots);
        for slot in slots {
            if lines.len() == requests {
                break;
            }
            let heavy = slot == "heavy";
            let tail = heavy.then(|| sizes.next("heavy"));
            let mut mm = match slot {
                "race-mm" => mm_light.pop(),
                // heavy slots alternate between Parallel-MM and large fork-join
                "heavy" if tail.is_some_and(|k| k % 2 == 0) => mm_heavy.pop(),
                _ => None,
            };
            // no two mixed-cold lines share a canonical form: a duplicate
            // draw is redrawn at the kind's next size, so that every block
            // keeps its mix
            let (spec, kind, arc) = loop {
                let (spec, kind) = match (mm.take(), heavy) {
                    (Some((n, fam)), _) => {
                        (rtt_cli::race_mm_spec(n, fam).expect("n ≥ 1"), "race-mm")
                    }
                    (None, true) => {
                        let k = sizes.next("race-forkjoin-heavy");
                        let mut own = StdRng::seed_from_u64(TAIL_SEED ^ k as u64);
                        (
                            instance(&mut own, "race-forkjoin-heavy", k),
                            "race-forkjoin",
                        )
                    }
                    (None, false) => {
                        // a light race-mm slot whose pair was a duplicate
                        // falls back to the race-dag slot it replaced
                        let slot = if slot == "race-mm" { "race-dag" } else { slot };
                        let k = sizes.next(slot);
                        (instance(rng, slot, k), slot)
                    }
                };
                let arc = spec.build().expect("generated specs build");
                if seen.insert(rtt_core::canonical_form(&arc).key) {
                    break (spec, kind, arc);
                }
            };
            let id = format!("m{}", lines.len());
            let (solver, fields) = if let Some(k) = tail {
                // the tail is one bicriteria LP solve, never a fan-out
                let pct = TAIL_BUDGET_PCT[k / 2 % TAIL_BUDGET_PCT.len()];
                let v = budget_share(rng, &arc, pct..=pct);
                (
                    Some("bicriteria"),
                    format!(",\"budget\":{v},\"solver\":\"bicriteria\""),
                )
            } else {
                let (named, target) = ASKS[asks.next(slot) % ASKS.len()];
                let (field, v) = objective(rng, &arc, target);
                if named {
                    let mut choices = named_choices(&arc);
                    if field == "target" {
                        // min-resource is served by these four only
                        choices.retain(|s| {
                            matches!(*s, "bicriteria" | "sp-dp" | "exact" | "noreuse-exact")
                        });
                    }
                    let s = choices[rng.random_range(0..choices.len())];
                    (Some(s), format!(",\"{field}\":{v},\"solver\":\"{s}\""))
                } else {
                    (None, format!(",\"{field}\":{v}"))
                }
            };
            lines.push(Line {
                text: line_json(&id, &spec, &fields),
                id,
                kind,
                solver,
                heavy,
                origin: Origin::Fresh,
                grid_points: 0,
                arcs: spec.edges.len(),
            });
        }
    }
    ServingCorpus { lines }
}

/// Requests per sweep-redundant block, and the mix inside one block.
const SWEEP_BLOCK: usize = 20;
const SWEEP_PERTURBED: usize = 2;
const SWEEP_REPEATS: usize = 6;
const SWEEP_RELABELED: usize = 4;
/// A repeat copies a line between this many lines back, so that with
/// a handful of clients the original has been answered (and stored in
/// the solution tier) before its repeat is taken, and [`REPEAT_WINDOW`]
/// lines back, so that the original is still in a solution tier of the
/// default capacity.
const REPEAT_LAG: usize = 200;
const REPEAT_WINDOW: usize = 600;

/// Permutes the nodes and arcs of an arc-form spec.
fn relabel(rng: &mut StdRng, spec: &InstanceSpec) -> InstanceSpec {
    let n = spec.nodes.len();
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut perm);
    let mut nodes = spec.nodes.clone();
    for (old, &new) in perm.iter().enumerate() {
        nodes[new] = spec.nodes[old].clone();
    }
    let mut edges: Vec<_> = spec
        .edges
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.src = perm[e.src];
            e.dst = perm[e.dst];
            e
        })
        .collect();
    shuffle(rng, &mut edges);
    InstanceSpec {
        form: spec.form,
        nodes,
        edges,
    }
}

/// Same shape, different durations: bumps the work of a few reducer arcs.
fn perturb(rng: &mut StdRng, spec: &InstanceSpec) -> InstanceSpec {
    let mut out = spec.clone();
    let mut changed = false;
    for e in &mut out.edges {
        if let Some(DurationSpec::Kway { work } | DurationSpec::Recbinary { work }) =
            &mut e.duration
        {
            if *work >= 2 && (rng.random_bool(0.3) || !changed) {
                *work += rng.random_range(1..=3);
                changed = true;
            }
        }
    }
    out
}

/// The classes of a sweep-redundant line, as `(budget grid, instance
/// kind)`: a block's eight fresh lines are one of each, five grids and
/// three single budgets. A derived line (perturbed, repeat, relabeled)
/// copies a fresh line of the class it takes from this list, cycling on
/// a counter per derivation, so every corpus holds the same class mix and
/// only the instances, the grids and the order inside a block depend on
/// the seed.
const SWEEP_CLASSES: [(bool, &str); 8] = [
    (true, "race-dag"),
    (true, "race-dag"),
    (true, "race-forkjoin"),
    (true, "race-forkjoin"),
    (true, "race-mm"),
    (false, "race-dag"),
    (false, "race-forkjoin"),
    (false, "race-mm"),
];

/// A fresh race instance of the class `(grid, kind)` for the sweep
/// workload. Parallel-MM sizes are drawn, not cycled: their lines take
/// their draws from a stream of their own (see [`MM_SEED`]).
fn sweep_instance(rng: &mut StdRng, sizes: &mut Sizes, kind: &str) -> InstanceSpec {
    match kind {
        "race-dag" => instance(rng, "race-dag-sweep", sizes.next("race-dag-sweep")),
        "race-forkjoin" => instance(
            rng,
            "race-forkjoin-sweep",
            sizes.next("race-forkjoin-sweep"),
        ),
        _ => {
            let fam = if rng.random_bool(0.5) {
                ReducerFamily::KWay
            } else {
                ReducerFamily::RecursiveBinary
            };
            rtt_cli::race_mm_spec(rng.random_range(4..=8), fam).expect("n ≥ 1")
        }
    }
}

/// A fresh line of the sweep workload: the spec, its request fields and
/// its grid points (0 for a single budget).
fn sweep_fresh(
    rng: &mut StdRng,
    sizes: &mut Sizes,
    (grid, kind): (bool, &str),
) -> (InstanceSpec, String, usize) {
    let spec = sweep_instance(rng, sizes, kind);
    let arc = spec.build().expect("generated specs build");
    if grid {
        // 9 to 16 points from 0 to 60% of the saturation budget
        let hi = budget_share(rng, &arc, 60..=60).max(8);
        let step = (hi / rng.random_range(8..=15)).max(1);
        let points = (hi / step + 1) as usize;
        (spec, format!(",\"budgets\":\"0:{hi}:{step}\""), points)
    } else {
        let b = budget_share(rng, &arc, 10..=60);
        (
            spec,
            format!(",\"budget\":{b},\"solver\":\"bicriteria\""),
            0,
        )
    }
}

/// Parallel-MM lines carry most of sweep-redundant's serving time, and
/// their cost swings by orders of magnitude with the size, the grid and
/// the relabeling drawn, so a run holds too few of them for those draws
/// to average out. Each one therefore draws from a stream seeded with
/// `MM_SEED` and its block and place in the block template, never from
/// the run's seed, which only places them inside their block.
const MM_SEED: u64 = 0x6d6d_5eed_0f4e_a7ed;

fn sweep_redundant(rng: &mut StdRng, requests: usize) -> ServingCorpus {
    struct Fresh {
        line: usize,
        block: usize,
        class: (bool, &'static str),
        spec: InstanceSpec,
        fields: String,
        points: usize,
    }
    let mut fresh: Vec<Fresh> = Vec::new();
    let mut lines: Vec<Line> = Vec::with_capacity(requests);
    let mut sizes = Sizes::default();
    let mut derived = Sizes::default();
    // a derived line copies a fresh line this many blocks back, which
    // keeps it between REPEAT_LAG and REPEAT_WINDOW lines back
    let lags = REPEAT_LAG / SWEEP_BLOCK + 1..=REPEAT_WINDOW / SWEEP_BLOCK - 1;
    let mut block = 0;
    while lines.len() < requests {
        // the first blocks have nothing old enough to derive from, so
        // their derived slots are fresh lines of the same class
        let warm_up = block < *lags.start();
        let mut slots: Vec<(&'static str, (bool, &'static str))> =
            SWEEP_CLASSES.iter().map(|&c| ("fresh", c)).collect();
        for (what, count) in [
            ("perturbed", SWEEP_PERTURBED),
            ("repeat", SWEEP_REPEATS),
            ("relabeled", SWEEP_RELABELED),
        ] {
            for _ in 0..count {
                let class = SWEEP_CLASSES[derived.next(what) % SWEEP_CLASSES.len()];
                slots.push((if warm_up { "fresh" } else { what }, class));
            }
        }
        let mut order: Vec<usize> = (0..slots.len()).collect();
        shuffle(rng, &mut order);
        for place in order {
            if lines.len() == requests {
                break;
            }
            let (what, class) = slots[place];
            let mut own;
            let r = if class.1 == "race-mm" {
                own = StdRng::seed_from_u64(MM_SEED ^ (block * SWEEP_BLOCK + place) as u64);
                &mut own
            } else {
                &mut *rng
            };
            let i = lines.len();
            let id = format!("s{i}");
            let (spec, fields, points, origin) = if what == "fresh" {
                let (spec, fields, points) = sweep_fresh(r, &mut sizes, class);
                fresh.push(Fresh {
                    line: i,
                    block,
                    class,
                    spec: spec.clone(),
                    fields: fields.clone(),
                    points,
                });
                (spec, fields, points, Origin::Fresh)
            } else {
                let back = block - r.random_range(*lags.start()..=block.min(*lags.end()));
                let eligible: Vec<&Fresh> = fresh
                    .iter()
                    .filter(|f| f.block == back && f.class == class)
                    .collect();
                let f = eligible[r.random_range(0..eligible.len())];
                let (of, spec) = (f.line, f.spec.clone());
                let (spec, origin) = match what {
                    "repeat" => (spec, Origin::Repeat { of }),
                    "relabeled" => (relabel(r, &spec), Origin::Relabeled { of }),
                    _ => (perturb(r, &spec), Origin::Perturbed { of }),
                };
                (spec, f.fields.clone(), f.points, origin)
            };
            lines.push(Line {
                text: line_json(&id, &spec, &fields),
                id,
                kind: class.1,
                solver: Some("bicriteria"),
                heavy: false,
                origin,
                grid_points: points,
                arcs: spec.edges.len(),
            });
        }
        block += 1;
    }
    ServingCorpus { lines }
}

/// Requests per race-ingest block and its size strata: per block of
/// 400 programs, one of ≥ 10⁵ strands, twelve of about 10⁴, eighty of
/// about 10³ and the rest of at most a few hundred. The huge stratum
/// stays under 1% so that the p99 falls inside the large stratum, whose
/// sizes are spread evenly, and not on the edge between two strata. The
/// rest of a block takes one client longer than the huge program, so
/// that the other client is still inside the block when the huge
/// program ends. The first block opens with a second huge program, so
/// that both clients of the reference machine run one at once, at the
/// start: each client's allocator arena then holds a huge program's
/// memory from the start, and the peak resident set no longer depends
/// on which client the later huge programs fall to. The huge stratum
/// comes first in [`RACE_STRATA`].
const RACE_BLOCK: usize = 400;
const RACE_STRATA: [(&str, usize); 4] =
    [("huge", 1), ("large", 12), ("medium", 80), ("small", 307)];

/// Distinct programs per stratum. Slots cycle through these pools,
/// which bounds the memory the pre-built corpus holds; no layer keeps
/// anything between two requests, so a repeated program costs as much
/// as a new one.
const RACE_POOLS: [(&str, usize); 4] = [("huge", 2), ("large", 12), ("medium", 64), ("small", 128)];

/// The `k`-th program of a stratum's pool: three in ten are
/// Parallel-MM (n³ strands), the rest fork-join (about
/// stages·width·(contention+1)/2 strands), with sizes spread evenly
/// over the stratum's range.
fn race_program(rng: &mut StdRng, stratum: &str, k: usize) -> (&'static str, Prog) {
    let step = k / 10;
    if k % 10 < 3 {
        let n = match stratum {
            "huge" => 47,
            "large" => 20 + step as u64 % 5,
            "medium" => 9 + step as u64 % 3,
            _ => 3 + step as u64 % 4,
        };
        return ("race-mm", rtt_race::mm::parallel_mm_racy(n).0);
    }
    let (stages, width, contention) = match stratum {
        "huge" => (20, 950, 10),
        "large" => (9, 190 + 8 * (k % 12), 10),
        "medium" => (4 + step % 3, 35 + 2 * (k % 6), 8),
        _ => (2 + step % 3, 6 + k % 11, 6),
    };
    (
        "race-forkjoin",
        rtt_race::gen::random_fork_join(rng, stages, width, contention),
    )
}

fn race_ingest(rng: &mut StdRng, requests: usize) -> Vec<RaceProgram> {
    let pools: BTreeMap<&str, Vec<(&'static str, Arc<Prog>)>> = RACE_POOLS
        .iter()
        .map(|&(stratum, size)| {
            let pool = (0..size)
                .map(|k| {
                    let (kind, prog) = race_program(rng, stratum, k);
                    (kind, Arc::new(prog))
                })
                .collect();
            (stratum, pool)
        })
        .collect();
    let mut sizes = Sizes::default();
    let mut out = Vec::with_capacity(requests);
    while out.len() < requests {
        let mut slots: Vec<&'static str> = Vec::with_capacity(RACE_BLOCK + 1);
        if out.is_empty() {
            slots.push(RACE_STRATA[0].0);
        }
        for (stratum, count) in RACE_STRATA {
            slots.extend(std::iter::repeat_n(stratum, count));
        }
        // the huge programs open their block and the rest is shuffled:
        // past the first block, the other client works through the rest
        // while the huge program runs, so the peak does not depend on
        // scheduling
        let huge = slots.len() - RACE_BLOCK + RACE_STRATA[0].1;
        shuffle(rng, &mut slots[huge..]);
        for stratum in slots {
            if out.len() == requests {
                break;
            }
            let k = sizes.next(stratum);
            let pool = &pools[stratum];
            let (kind, prog) = pool[k % pool.len()].clone();
            // the family alternates per pool pass, so every program is
            // emitted under both
            let family = if (k / pool.len()).is_multiple_of(2) {
                ReducerFamily::KWay
            } else {
                ReducerFamily::RecursiveBinary
            };
            out.push(RaceProgram {
                id: format!("r{}", out.len()),
                kind,
                strands: prog.strand_count(),
                prog,
                family,
            });
        }
    }
    out
}
