//! Cross-request solution reuse: a concurrent, capacity-bounded LRU of
//! **solved reports** and **warm LP bases**, shared across every worker
//! of a [`crate::run_batch_cached`] call (and across calls, if the
//! caller keeps the cache).
//!
//! # The contract: cost, never bytes
//!
//! The batch NDJSON wire format includes deterministic work counters
//! (`work`, the budget `consumed` block), so any reuse that changed
//! *how* an answer was computed would change bytes. The cache is
//! therefore split into two tiers with different reuse granularity:
//!
//! * **Solution tier** — whole **report vectors**, keyed by
//!   `(canonical instance, objective, alpha, seed, solver)`. Every
//!   solver in the registry is a deterministic pure function of exactly
//!   that tuple, so replaying a cached report is byte-identical to
//!   re-running the solver — including `work` and `sim_makespan`. A
//!   single solve caches a one-report vector; a `MakespanSweep` caches
//!   the whole per-point vector (the grid is part of the key), which is
//!   how *wire* sweeps get cross-request reuse without touching warm
//!   state. A hit skips the solve but **re-runs the full analytic
//!   validation and Observation 1.1 certify replay** against the
//!   requesting instance before the report leaves the engine, so a
//!   reused result is exactly as certified as a fresh one. Only
//!   unbudgeted, deadline-free requests are eligible: a budgeted
//!   request's wire-visible `consumed` counters describe *this run's*
//!   metered work, which a replay does not perform, and a deadline's
//!   expiry is wall-clock state, not request content.
//!
//!   Since PR 8 this tier also **survives restarts**: `rtt batch
//!   --cache-save/--cache-load` spill and reload it through the
//!   versioned `rtt-cache-v1` format ([`crate::persist`]). A loaded
//!   entry has no donor instance ([`CachedSolution::donor`] is `None`),
//!   so its trust rests on the full key-string comparison (which embeds
//!   the canonical instance serialization) **plus** the same fresh
//!   re-validation + re-certification every hit gets at serve time — a
//!   tampered or stale entry panics the replay and is reported as a
//!   failed solve, never silently served.
//!
//! * **Warm-basis tier** — [`LpWarmState`]s (budget-row-tagged LP
//!   template + last optimal basis), keyed by the instance's *shape*
//!   ([`PreparedInstance::shape`]), generalizing the per-instance slot
//!   [`PreparedInstance::take_lp_warm`] to sharing **across requests
//!   and across duration-perturbed siblings**. A sibling's basis has
//!   the right LP layout to offer `rtt_lp::revised::solve_warm`, which
//!   verifies it at install time and falls back to the crash basis —
//!   so a stale or mismatched entry costs pivots, never correctness.
//!   Warm-started solves land on the **same certified objective** as
//!   cold ones (the LP optimum is unique in value; the delta tests pin
//!   it), but their pivot counts differ — which is why this tier serves
//!   only the [`crate::solve_curve_cached`] API and the explicit
//!   [`solve_delta_point`] API, both *off* the batch wire, and never
//!   the batch solver fan-out. Wire sweeps (`budgets` request lines)
//!   deliberately bypass it: they run a self-contained crash-started
//!   chain so their on-wire pivot counts stay a pure function of the
//!   request line (see [`crate::curve`]), and get their cross-request
//!   reuse from the solution tier above.
//!
//! Eviction and concurrent access order can change which tier entries
//! are resident — that too only moves work between "replayed" and
//! "recomputed", with byte-identical output either way, because every
//! replay source is a deterministic function of request content.
//!
//! # Eviction
//!
//! Both tiers (and [`crate::PrepCache`]) sit on the crate's one LRU
//! type. Every access stamps its entry from a per-tier logical tick, so
//! stamps are unique within a tier and the victim is simply the entry
//! with the **least stamp** — a pure function of the access sequence,
//! never of wall time or hash order. A stamp-ordered index makes each
//! eviction O(log n) in the tier size, so a store past capacity costs
//! the same at 1 entry as at 1024 and never copies resident keys under
//! the tier's mutex. Evicted entries are dropped after the mutex is
//! released.
//!
//! # Collision discipline
//!
//! Like [`crate::PrepCache`], both tiers store and compare **full key
//! strings** (the canonical/shape serialization plus request
//! parameters), not digests — and the solution tier additionally
//! requires pointer identity of the [`PreparedInstance`] for entries
//! that have one (in-process entries do; disk-loaded entries fall back
//! to the key comparison plus serve-time re-verification). A hash
//! collision anywhere costs a recomputation, never a wrong answer.

use crate::lru::Lru;
use crate::prep::{LpWarmState, PreparedInstance};
use crate::request::{Objective, SolveReport, SolveRequest, Status};
use rtt_core::lp_build::LpError;
use rtt_core::Resource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters of one [`ReuseCache`] — reported on `rtt batch`'s stderr
/// stats line (never on the NDJSON wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Solution-tier hits: whole reports replayed (and re-certified)
    /// instead of re-solved.
    pub solution_hits: u64,
    /// Solution-tier misses (includes ineligible-donor misses).
    pub solution_misses: u64,
    /// Warm-tier hits where the entry's canonical instance matched:
    /// template + basis reused outright.
    pub warm_hits: u64,
    /// Warm-tier misses (no resident entry for the shape).
    pub warm_misses: u64,
    /// Solves seeded from a reused basis across a budget change or a
    /// duration-perturbed sibling — the delta path.
    pub delta_solves: u64,
    /// Entries evicted from either tier to stay within capacity.
    pub evictions: u64,
    /// Simplex pivots the solution tier did **not** execute: the sum of
    /// cached `work` counters over all hits. (The wire still reports
    /// the original `work` — bytes are identical; this counter is what
    /// the cache actually saved.)
    pub pivots_saved: u64,
}

/// A solution-tier entry: the report vector (one report for a single
/// solve, one per grid point for a sweep) plus the exact prepared
/// instance that produced it. In-process entries carry their donor and
/// are pointer-compared on hit (see the module docs on collision
/// discipline); entries loaded from a `rtt-cache-v1` spill have no
/// donor and rely on the key comparison + serve-time re-verification.
#[derive(Debug)]
struct CachedSolution {
    reports: Vec<SolveReport>,
    donor: Option<Arc<PreparedInstance>>,
}

/// A warm-tier entry: the donor's canonical key (to distinguish
/// same-instance template reuse from cross-sibling basis-only reuse)
/// plus its LP warm state.
#[derive(Debug)]
pub struct WarmEntry {
    /// Canonical key of the instance that parked this state.
    pub canonical: String,
    /// The parked template + basis.
    pub state: LpWarmState,
}

/// The shared cross-request cache. Both tiers are independently
/// capacity-bounded at the same `capacity`; see the module docs for
/// the reuse contract.
#[derive(Debug)]
pub struct ReuseCache {
    solutions: Mutex<Lru<Arc<CachedSolution>>>,
    warm: Mutex<Lru<WarmEntry>>,
    solution_hits: AtomicU64,
    solution_misses: AtomicU64,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    delta_solves: AtomicU64,
    evictions: AtomicU64,
    pivots_saved: AtomicU64,
}

impl ReuseCache {
    /// An empty cache holding at most `capacity` entries **per tier**
    /// (`0` is treated as 1).
    pub fn new(capacity: usize) -> Self {
        ReuseCache {
            solutions: Mutex::new(Lru::new(capacity)),
            warm: Mutex::new(Lru::new(capacity)),
            solution_hits: AtomicU64::new(0),
            solution_misses: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            delta_solves: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pivots_saved: AtomicU64::new(0),
        }
    }

    /// The solution-tier key for `(req, solver)`, or `None` when the
    /// request is ineligible (budgeted or deadlined — see the module
    /// docs for why). Sweeps are eligible: the whole budget grid is
    /// part of the key, so a hit replays the full per-point vector.
    pub fn solution_key(req: &SolveRequest, solver: &str) -> Option<String> {
        if req.budget.is_some() || req.deadline.is_some() {
            return None;
        }
        let obj = match &req.objective {
            Objective::MinMakespan { budget } => format!("mm:{budget}"),
            Objective::MinResource { target } => format!("mr:{target}"),
            Objective::MakespanSweep { budgets } => {
                let grid: Vec<String> = budgets.iter().map(|b| b.to_string()).collect();
                format!("sw:{}", grid.join(","))
            }
        };
        Some(format!(
            "sol-v1|{solver}|{obj}|a={:016x}|s={}|{}",
            req.alpha.to_bits(),
            req.seed,
            req.prepared.canonical().key,
        ))
    }

    /// Solution-tier probe: a clone of the cached report vector for
    /// `key`, or `None` (counted as one hit/miss per probe). The clones
    /// still carry the *donor's* id and certificate — [`crate::executor`]
    /// overwrites the id and re-runs the validation + certify replay on
    /// every report before it is released.
    pub fn lookup_solution(&self, key: &str, req: &SolveRequest) -> Option<Vec<SolveReport>> {
        let mut tier = self.solutions.lock().expect("solution tier poisoned");
        let hit = tier
            .get_refreshed(key)
            // pointer identity when a donor exists: replay only against
            // the instance that produced the report (canonical-keyed
            // PrepCaches make this hold for structural duplicates too).
            // Loaded entries have no donor; the key embeds the full
            // canonical serialization, and the serve-time re-verification
            // backstops it.
            .filter(|c| {
                c.donor
                    .as_ref()
                    .is_none_or(|d| Arc::ptr_eq(d, &req.prepared))
            })
            .map(|c| c.reports.clone());
        drop(tier);
        match &hit {
            Some(rs) => {
                self.solution_hits.fetch_add(1, Ordering::Relaxed);
                let saved: u64 = rs.iter().map(|r| r.work).sum();
                self.pivots_saved.fetch_add(saved, Ordering::Relaxed);
            }
            None => {
                self.solution_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }

    /// Parks a freshly solved report vector in the solution tier. Only
    /// fully-[`Status::Solved`] vectors are worth the space (a sweep
    /// with any failed point is not replayable); callers pass the same
    /// `key` their probe used.
    pub fn store_solution(&self, key: String, req: &SolveRequest, reports: &[SolveReport]) {
        if reports.is_empty() || reports.iter().any(|r| r.status != Status::Solved) {
            return;
        }
        let entry = Arc::new(CachedSolution {
            reports: reports.to_vec(),
            donor: Some(Arc::clone(&req.prepared)),
        });
        // the guard is a temporary of this statement: evicted entries
        // are dropped only after the tier lock is released
        let evicted = self
            .solutions
            .lock()
            .expect("solution tier poisoned")
            .insert(&key, entry);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Installs a report vector loaded from a `rtt-cache-v1` spill
    /// ([`crate::persist`]): donor-less, so a future hit matches on the
    /// full key string alone and is re-verified at serve time (see the
    /// module docs' trust rule).
    pub fn insert_loaded(&self, key: String, reports: Vec<SolveReport>) {
        if reports.is_empty() {
            return;
        }
        let entry = Arc::new(CachedSolution {
            reports,
            donor: None,
        });
        let evicted = self
            .solutions
            .lock()
            .expect("solution tier poisoned")
            .insert(&key, entry);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Every solution-tier entry as `(key, reports)`, sorted by key —
    /// the deterministic export [`crate::persist::save`] spills.
    pub fn export_solutions(&self) -> Vec<(String, Vec<SolveReport>)> {
        let tier = self.solutions.lock().expect("solution tier poisoned");
        let mut out: Vec<(String, Vec<SolveReport>)> = tier
            .iter()
            .map(|(k, v)| (k.to_string(), v.reports.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Takes the warm entry for `shape_key` out of the warm tier
    /// (counted as hit/miss). Take semantics serialize concurrent
    /// sweeps onto disjoint templates, exactly like the per-instance
    /// slot this tier generalizes.
    pub fn take_warm(&self, shape_key: &str) -> Option<WarmEntry> {
        let taken = self
            .warm
            .lock()
            .expect("warm tier poisoned")
            .remove(shape_key);
        match taken {
            Some(e) => {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                Some(e)
            }
            None => {
                self.warm_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parks a warm state back under `shape_key` for the next taker.
    pub fn put_warm(&self, shape_key: String, entry: WarmEntry) {
        let evicted = self
            .warm
            .lock()
            .expect("warm tier poisoned")
            .insert(&shape_key, entry);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Records one delta solve (a solve seeded from a reused basis
    /// across a budget change or sibling instance).
    pub fn note_delta(&self) {
        self.delta_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ReuseStats {
        ReuseStats {
            solution_hits: self.solution_hits.load(Ordering::Relaxed),
            solution_misses: self.solution_misses.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            delta_solves: self.delta_solves.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pivots_saved: self.pivots_saved.load(Ordering::Relaxed),
        }
    }
}

/// The **delta-solve** service: LP 6–10 for `prep` at `budget`,
/// reoptimized from whatever basis the cache holds for this instance's
/// shape — its own earlier basis (budget delta) or a perturbed
/// sibling's (duration delta) — and parked back for the next caller.
///
/// Returns the fractional LP optimum. The objective is the certified
/// LP value whichever start was used (warm starts change pivot counts,
/// never the optimum — `delta_objective_matches_cold` pins it); on a
/// cross-sibling hit the template is rebuilt for *this* instance's
/// durations and only the basis crosses over, so a reused basis can
/// never smuggle in stale coefficients.
pub fn solve_delta_point(
    prep: &PreparedInstance,
    cache: &ReuseCache,
    budget: Resource,
) -> Result<rtt_core::lp_build::FractionalSolution, LpError> {
    let tt = prep.tt();
    let shape_key = prep.shape().key.clone();
    let canonical = prep.canonical().key.clone();
    let (mut state, seed_basis, is_delta) = match cache.take_warm(&shape_key) {
        Some(entry) if entry.canonical == canonical => {
            // same instance: template + basis reused outright; still a
            // delta solve if the budget row moves (solve_delta meters
            // the dual repair either way)
            let basis = entry.state.basis.clone();
            (entry.state, basis, true)
        }
        Some(entry) => {
            // shape sibling: its template has the wrong durations —
            // rebuild ours, offer only the basis
            let state = prep.take_lp_warm();
            (state, entry.state.basis, true)
        }
        None => {
            let state = prep.take_lp_warm();
            let basis = state.basis.clone();
            (state, basis, false)
        }
    };
    let result = state
        .lp
        .solve_delta_metered(tt, budget, seed_basis.as_ref(), None);
    match result {
        Ok((frac, basis)) => {
            if is_delta && seed_basis.is_some() {
                cache.note_delta();
            }
            state.basis = basis;
            cache.put_warm(shape_key, WarmEntry { canonical, state });
            Ok(frac)
        }
        Err(e) => {
            // park the template (basis cleared) so the next caller
            // still skips the build
            state.basis = None;
            cache.put_warm(shape_key, WarmEntry { canonical, state });
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::instance::Activity;
    use rtt_core::ArcInstance;
    use rtt_dag::Dag;
    use rtt_duration::Duration;
    use rtt_lp::WarmStart;

    fn diamond(slow_base: u64) -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, Activity::new(Duration::two_point(5, 2, 1)))
            .unwrap();
        g.add_edge(s, b, Activity::new(Duration::two_point(slow_base, 3, 2)))
            .unwrap();
        g.add_edge(a, t, Activity::new(Duration::constant(1)))
            .unwrap();
        g.add_edge(b, t, Activity::new(Duration::constant(2)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn delta_objective_matches_cold_across_budgets() {
        let prep = PreparedInstance::new(diamond(9));
        let cache = ReuseCache::new(16);
        for budget in [0u64, 1, 2, 3, 4, 5] {
            let delta = solve_delta_point(&prep, &cache, budget).unwrap();
            let cold =
                rtt_core::lp_build::solve_min_makespan_lp(prep.tt(), budget).unwrap();
            assert!(
                (delta.makespan - cold.makespan).abs() < 1e-9,
                "budget {budget}: delta {} vs cold {}",
                delta.makespan,
                cold.makespan
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.warm_misses, 1, "only the first take misses");
        assert_eq!(stats.warm_hits, 5);
        assert!(stats.delta_solves >= 5, "later budgets are delta solves");
    }

    #[test]
    fn sibling_basis_crosses_over_and_objective_stays_certified() {
        let base = PreparedInstance::new(diamond(9));
        let sibling = PreparedInstance::new(diamond(11));
        assert_eq!(base.shape().key, sibling.shape().key);
        assert_ne!(base.canonical().key, sibling.canonical().key);
        let cache = ReuseCache::new(16);
        let _ = solve_delta_point(&base, &cache, 3).unwrap();
        // the sibling's solve takes the base's entry, rebuilds its own
        // template, and seeds from the crossed-over basis
        let delta = solve_delta_point(&sibling, &cache, 3).unwrap();
        let cold = rtt_core::lp_build::solve_min_makespan_lp(sibling.tt(), 3).unwrap();
        assert!((delta.makespan - cold.makespan).abs() < 1e-9);
        let stats = cache.stats();
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.delta_solves, 1, "the sibling's solve is the delta");
        // provenance: the sibling's solve actually used a warm start
        // (dual repair or straight primal), or the engine rejected the
        // offer and fell back — either way the objective matched cold
        assert_ne!(delta.stats.warm, WarmStart::Cold);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        let cache = ReuseCache::new(2);
        let preps: Vec<_> = (0..4).map(|i| PreparedInstance::new(diamond(9 + i))).collect();
        // distinct shapes? no — same shape key; use the solution tier
        // for eviction behavior instead, via distinct keys
        let mut tier = cache.solutions.lock().unwrap();
        for (i, _p) in preps.iter().enumerate() {
            let dummy = Arc::new(CachedSolution {
                reports: vec![SolveReport::new("x", "bicriteria", Status::Solved, "")],
                donor: Some(Arc::new(PreparedInstance::new(diamond(9)))),
            });
            tier.insert(&format!("k{i}"), dummy);
        }
        assert_eq!(tier.len(), 2);
        let mut left: Vec<_> = tier.iter().map(|(k, _)| k.to_string()).collect();
        left.sort();
        assert_eq!(left, vec!["k2", "k3"], "LRU evicts oldest first");
    }
}
