//! The serving workloads (mixed-cold, sweep-redundant): set-up as
//! `rtt batch` does it, then a closed loop of clients over one shared
//! registry, preprocessing cache and solution cache.

use crate::trace::Tracer;
use rtt_cli::batch::{build_requests, report_line};
use rtt_core::ArcInstance;
use rtt_engine::{
    execute_one_cached_at, BudgetContext, Objective, PrepCache, Registry, ReuseCache, SolveReport,
    SolveRequest, Status,
};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Capacity of both caches: the `rtt batch --cache-capacity` default.
pub const CACHE_CAPACITY: usize = 1024;

/// Everything a batch user has built before the first solve.
pub struct State {
    /// The standard solver registry.
    pub registry: Registry,
    /// The preprocessing cache `build_requests` filled.
    pub prep: PrepCache,
    /// The solution tier every client reads and writes.
    pub reuse: ReuseCache,
    /// The corpus as engine requests, each taken once by the client
    /// that serves it and dropped once answered, as `rtt batch` workers
    /// drop theirs.
    requests: Vec<Mutex<Option<SolveRequest>>>,
}

impl State {
    fn new(registry: Registry, prep: PrepCache, requests: Vec<SolveRequest>) -> State {
        State {
            registry,
            prep,
            reuse: ReuseCache::new(CACHE_CAPACITY),
            requests: requests.into_iter().map(|r| Mutex::new(Some(r))).collect(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether there are no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Takes request `i` off the queue.
    fn take(&self, i: usize) -> SolveRequest {
        self.requests[i]
            .lock()
            .expect("request slot poisoned")
            .take()
            .expect("each request is served once")
    }

    /// The requests not yet served, in corpus order.
    pub fn into_requests(self) -> Vec<SolveRequest> {
        self.requests
            .into_iter()
            .filter_map(|m| m.into_inner().expect("request slot poisoned"))
            .collect()
    }
}

/// `rtt batch --reuse-cache` set-up: registry, both caches, and
/// `build_requests` over the whole corpus (parse, canonical
/// fingerprint, cache insert).
pub fn setup(corpus: &str) -> State {
    let registry = Registry::standard();
    let prep = PrepCache::with_capacity(CACHE_CAPACITY);
    let requests = build_requests(corpus, &prep, None, &registry).expect("generated corpora load");
    State::new(registry, prep, requests)
}

/// [`setup`] one line at a time, with `rtt_cli` parsing, fingerprinting
/// and the cache insert each timed beside the `build_requests` call.
pub fn setup_traced(lines: &[&str], tracer: &mut Tracer) -> State {
    let registry = Registry::standard();
    let prep = PrepCache::with_capacity(CACHE_CAPACITY);
    // mirrors `prep` insert for insert, so its lookups hit and miss
    // exactly where the real cache's did
    let shadow = PrepCache::with_capacity(CACHE_CAPACITY);
    let mut requests = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let (mut req, h) = tracer.span("cli.build_request", i, None, || {
            build_requests(line, &prep, None, &registry).expect("generated corpora load")
        });
        requests.append(&mut req);
        let (arc, _) = tracer.span("cli.parse", i, Some(h), || {
            let doc = rtt_cli::json::Json::parse(line).expect("valid JSON");
            let spec = rtt_cli::spec::InstanceSpec::from_json(
                doc.require("instance").expect("instance field"),
            )
            .expect("valid instance");
            spec.build().expect("instance builds")
        });
        let (key, _) = tracer.span("core.fingerprint", i, Some(h), || {
            rtt_core::canonical_form(&arc).key
        });
        tracer.span("engine.prep", i, Some(h), || {
            shadow.get_or_insert(&key, || arc)
        });
    }
    State::new(registry, prep, requests)
}

/// One answered request.
pub struct Served {
    /// The engine's reports.
    pub reports: Vec<SolveReport>,
    /// The rendered NDJSON report lines.
    pub lines: Vec<String>,
}

/// Executes request `i` and renders its report lines — what an `rtt
/// batch` worker does per queue item.
pub fn serve_one(state: &State, i: usize) -> Served {
    let req = state.take(i);
    let reports =
        execute_one_cached_at(&state.registry, &req, Instant::now(), i, Some(&state.reuse));
    let lines = reports.iter().map(report_line).collect();
    Served { reports, lines }
}

/// Solution-tier keys stored so far, with the instant their request
/// finished: a report whose key was stored before its own request
/// started was answered from the cache.
#[derive(Default)]
pub struct StoredKeys(Mutex<BTreeMap<String, Instant>>);

impl StoredKeys {
    fn stored_before(&self, key: &str, t: Instant) -> bool {
        let map = self.0.lock().expect("stored-key map poisoned");
        map.get(key).is_some_and(|&at| at < t)
    }

    fn note(&self, key: String, at: Instant) {
        let mut map = self.0.lock().expect("stored-key map poisoned");
        map.entry(key).or_insert(at);
    }
}

/// [`serve_one`] under tracing: the request span holds the engine call
/// and the rendering; beside it, the layers the engine reached
/// internally are timed on the same inputs.
pub fn serve_one_traced(
    state: &State,
    i: usize,
    tracer: &mut Tracer,
    stored: &StoredKeys,
    scratch: &ReuseCache,
) -> Served {
    let req = &state.take(i);
    let started = Instant::now();
    let root = tracer.open("request", i, None);
    let (reports, exec) = tracer.span("engine.execute", i, Some(root), || {
        execute_one_cached_at(&state.registry, req, Instant::now(), i, Some(&state.reuse))
    });
    let (lines, _) = tracer.span("cli.render", i, Some(root), || {
        reports.iter().map(report_line).collect::<Vec<_>>()
    });
    tracer.close(root);
    let finished = Instant::now();

    let arc = req.prepared.arc();
    if let Objective::MakespanSweep { budgets } = &req.objective {
        let key =
            ReuseCache::solution_key(req, "bicriteria").expect("unbudgeted sweeps are cacheable");
        if stored.stored_before(&key, started) {
            for r in reports.iter().filter(|r| r.status == Status::Solved) {
                replay_beside(tracer, i, exec, req, r);
            }
        } else {
            let (points, sweep) = tracer.span("engine.sweep", i, Some(exec), || {
                rtt_engine::execute_sweep_wire(req, budgets, &BudgetContext::unbudgeted())
            });
            for p in points.iter().filter(|r| r.status == Status::Solved) {
                tracer.counters.sweep_points += 1;
                tracer.counters.sweep_pivots += p.work;
                tracer.counters.lp_pivots += p.work;
                certify_beside(tracer, i, sweep, arc, p);
            }
            tracer.span("engine.reuse_store", i, Some(exec), || {
                scratch.store_solution(key.clone(), req, &reports)
            });
            // the solution tier keeps fully solved vectors only
            if reports.iter().all(|r| r.status == Status::Solved) {
                stored.note(key, finished);
            }
        }
        return Served { reports, lines };
    }
    for r in &reports {
        if r.status == Status::Unsupported {
            continue;
        }
        let key =
            ReuseCache::solution_key(req, r.solver).expect("unbudgeted requests are cacheable");
        if stored.stored_before(&key, started) {
            if r.status == Status::Solved {
                replay_beside(tracer, i, exec, req, r);
            }
            continue;
        }
        solver_beside(tracer, i, exec, req, r);
        if r.status == Status::Solved {
            certify_beside(tracer, i, exec, arc, r);
            tracer.span("engine.reuse_store", i, Some(exec), || {
                scratch.store_solution(key.clone(), req, std::slice::from_ref(r))
            });
            stored.note(key, finished);
        }
    }
    Served { reports, lines }
}

/// What a solution-tier hit does: analytic re-validation of the
/// report's solution form, then the certification replay.
fn replay_beside(
    tracer: &mut Tracer,
    i: usize,
    parent: usize,
    req: &SolveRequest,
    r: &SolveReport,
) {
    let arc = req.prepared.arc();
    let h = tracer.open("engine.reuse_replay", i, Some(parent));
    crate::checks::validate_form(req, r).expect("a served report re-validates");
    certify_beside(tracer, i, h, arc, r);
    tracer.close(h);
}

/// Times `rtt_engine::certify_*` on a solved report's solution form,
/// then the `rtt_sim` replay inside it on the same expansion.
fn certify_beside(
    tracer: &mut Tracer,
    i: usize,
    parent: usize,
    arc: &ArcInstance,
    r: &SolveReport,
) {
    let (_, h) = tracer.span("engine.certify", i, Some(parent), || {
        if let Some(sol) = &r.solution {
            rtt_engine::certify_solution(arc, sol)
        } else if let Some(nr) = &r.noreuse {
            rtt_engine::certify_noreuse(arc, nr)
        } else if let Some(s) = &r.schedule {
            rtt_engine::certify_schedule(arc, s)
        } else {
            None
        }
    });
    let levels: (Vec<u64>, Vec<u64>) = if let Some(sol) = &r.solution {
        (sol.edge_times.clone(), sol.arc_flows.clone())
    } else if let Some(nr) = &r.noreuse {
        (nr.edge_times.clone(), nr.levels.clone())
    } else if let Some(s) = &r.schedule {
        let times = arc
            .dag()
            .edge_ids()
            .map(|e| arc.arc_time(e, s.level[e.index()]))
            .collect();
        (times, s.level.clone())
    } else {
        return;
    };
    let (g, works) = rtt_engine::expand_levels(arc, &levels.0, &levels.1);
    let (events, _) = tracer.span("sim.replay", i, Some(h), || {
        let model = rtt_sim::ExecModel::from_works(&g, &works);
        model.run_event();
        model.event_count()
    });
    tracer.counters.sim_events += events;
}

/// Times the `rtt_core` (and `rtt_lp`) work a solver did for `r`, by
/// calling the same public functions the solver adapter calls.
fn solver_beside(
    tracer: &mut Tracer,
    i: usize,
    parent: usize,
    req: &SolveRequest,
    r: &SolveReport,
) {
    let arc = req.prepared.arc();
    let tt = req.prepared.tt();
    let (budget, target) = match req.objective {
        Objective::MinMakespan { budget } => (Some(budget), None),
        Objective::MinResource { target } => (None, Some(target)),
        Objective::MakespanSweep { .. } => return,
    };
    match r.solver {
        "bicriteria" | "kway" | "recbinary" | "recbinary-improved" => {
            let (frac, lp) = tracer.span("core.lp", i, Some(parent), || match (budget, target) {
                (Some(b), _) => rtt_core::lp_build::solve_min_makespan_lp(tt, b),
                (_, Some(t)) => rtt_core::lp_build::solve_min_resource_lp(tt, t),
                _ => unreachable!("single-solve objectives carry a budget or a target"),
            });
            let Ok(frac) = frac else {
                return;
            };
            tracer.counters.lp_pivots +=
                (frac.stats.phase1_pivots + frac.stats.phase2_pivots) as u64;
            tracer.counters.lp_refactorizations += frac.stats.refactorizations as u64;
            use rtt_core::solvers as s;
            match (r.solver, budget) {
                // the bi-criteria rounding is a public stage of its own
                ("bicriteria", _) => {
                    tracer.span("core.round", i, Some(parent), || {
                        rtt_core::bicriteria_round_prepped(arc, tt, frac, req.alpha)
                    });
                }
                // the single-criteria pipelines round inside their entry
                // point, which solves the LP first: their rounding is the
                // entry point's time beyond the LP timed just before
                (solver, Some(b)) => {
                    let skip = tracer.span_ns(lp);
                    let _ =
                        tracer.span_after("core.round", i, Some(parent), skip, || match solver {
                            "kway" => s::solve_kway_5approx_prepped(arc, tt, b),
                            "recbinary" => s::solve_recbinary_4approx_prepped(arc, tt, b),
                            _ => s::solve_recbinary_improved_prepped(arc, tt, b),
                        });
                }
                _ => {}
            }
        }
        "sp-dp" => {
            let Some(tree) = req.prepared.sp_tree() else {
                return;
            };
            let b = budget.unwrap_or_else(|| arc.saturation_budget());
            if b > 1 << 20 {
                return; // the adapter refuses this sweep without running it
            }
            let (stats, _) = tracer.span("core.sp_dp", i, Some(parent), || {
                rtt_core::sp_dp::solve_sp_tree_with_stats(
                    tree,
                    |e| arc.dag().edge(e).duration.clone(),
                    b,
                )
                .2
            });
            tracer.counters.sp_dp_cells += stats.cells;
            tracer.counters.sp_dp_merge_steps += stats.merge_steps;
        }
        "exact" => {
            let (nodes, _) =
                tracer.span("core.exact", i, Some(parent), || match (budget, target) {
                    (Some(b), _) => rtt_core::exact::solve_exact(arc, b).explored,
                    (_, Some(t)) => {
                        rtt_core::exact::solve_exact_min_resource(arc, t);
                        0
                    }
                    _ => unreachable!("single-solve objectives carry a budget or a target"),
                });
            tracer.counters.exact_nodes += nodes;
        }
        "noreuse-exact" => {
            tracer.span("core.regimes", i, Some(parent), || match (budget, target) {
                (Some(b), _) => Some(rtt_core::solve_noreuse_exact(arc, b)),
                (_, Some(t)) => rtt_core::regimes::solve_noreuse_exact_min_resource(arc, t),
                _ => unreachable!("single-solve objectives carry a budget or a target"),
            });
        }
        "noreuse-bicriteria" => {
            if let Some(b) = budget {
                tracer.span("core.regimes", i, Some(parent), || {
                    rtt_core::solve_noreuse_bicriteria_prepped(arc, tt, b, req.alpha).ok()
                });
            }
        }
        "global-greedy" => {
            if let Some(b) = budget {
                tracer.span("core.regimes", i, Some(parent), || {
                    [
                        rtt_core::GlobalPolicy::Eager,
                        rtt_core::GlobalPolicy::Patient,
                    ]
                    .map(|p| rtt_core::global_reuse_schedule(arc, b, p).makespan)
                });
            }
        }
        _ => {}
    }
}

/// Runs `work(client, i)` for `i in 0..n` on one thread per client:
/// each client takes the next index only after its previous request is
/// answered. Returns the results in index order with each one's
/// latency (from the take to the return), the clients, and the wall
/// time of the whole loop.
pub fn closed_loop<C: Send, T: Send>(
    n: usize,
    clients: Vec<C>,
    work: impl Fn(&mut C, usize) -> T + Sync,
) -> (Vec<(T, Duration)>, Vec<C>, Duration) {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let started = Instant::now();
    // each client's state and its (index, result, latency) records
    type Done<C, T> = Vec<(C, Vec<(usize, T, Duration)>)>;
    let per_client: Done<C, T> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // a counter with no data published through it
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = work(&mut client, i);
                        done.push((i, out, t0.elapsed()));
                    }
                    (client, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut slots: Vec<Option<(T, Duration)>> = (0..n).map(|_| None).collect();
    let mut clients = Vec::new();
    for (client, done) in per_client {
        for (i, out, lat) in done {
            slots[i] = Some((out, lat));
        }
        clients.push(client);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every request is answered"))
        .collect();
    (results, clients, wall)
}
