//! Correctness checks on the program's outputs. A request that fails
//! any of them counts in `error_rate` and is listed by id.

use rtt_engine::{Objective, SolveReport, SolveRequest, Status};

/// Re-validates a solved report's solution analytically, with the
/// validator its form requires.
pub fn validate_form(req: &SolveRequest, r: &SolveReport) -> Result<(), String> {
    let arc = req.prepared.arc();
    if let Some(sol) = &r.solution {
        rtt_core::validate(arc, sol).map_err(|e| format!("{e:?}"))?;
        Ok(())
    } else if let Some(nr) = &r.noreuse {
        rtt_core::regimes::validate_noreuse(arc, nr).map_err(|e| format!("{e:?}"))
    } else if let Some(s) = &r.schedule {
        let budget = match req.objective {
            Objective::MinMakespan { budget } => budget,
            _ => s.peak_in_use,
        };
        rtt_core::verify_global_schedule(arc, budget, s).map_err(|e| format!("{e:?}"))
    } else {
        Err("solved report carries no solution".into())
    }
}

fn form_makespan(r: &SolveReport) -> Option<u64> {
    r.solution
        .as_ref()
        .map(|s| s.makespan)
        .or(r.noreuse.as_ref().map(|n| n.makespan))
        .or(r.schedule.as_ref().map(|s| s.makespan))
}

/// Every problem with one request's reports (empty when all checks pass).
pub fn check_request(req: &SolveRequest, reports: &[SolveReport]) -> Vec<String> {
    let mut problems = Vec::new();
    if reports.is_empty() {
        problems.push("no reports".to_string());
    }
    for r in reports {
        let who = format!(
            "{}/{}",
            r.solver,
            r.sweep_budget.map_or(String::new(), |b| b.to_string())
        );
        match r.status {
            Status::Failed | Status::DeadlineExpired | Status::BudgetExhausted => {
                problems.push(format!(
                    "{who}: status {} ({})",
                    r.status.as_str(),
                    r.detail
                ));
            }
            Status::Infeasible | Status::Unsupported => {}
            Status::Solved => {
                if let Err(e) = validate_form(req, r) {
                    problems.push(format!("{who}: re-validation failed: {e}"));
                }
                if r.makespan != form_makespan(r) {
                    problems.push(format!(
                        "{who}: reported makespan {:?} is not the solution's",
                        r.makespan
                    ));
                }
                if let (Some(sim), Some(m)) = (&r.sim, r.makespan) {
                    if sim.simulated > m {
                        problems.push(format!(
                            "{who}: sim_makespan {} > makespan {m}",
                            sim.simulated
                        ));
                    }
                }
            }
        }
    }
    if let Objective::MakespanSweep { budgets } = &req.objective {
        let grid: Vec<Option<u64>> = reports.iter().map(|r| r.sweep_budget).collect();
        let whole_failure = reports.len() == 1 && reports[0].status != Status::Solved;
        if !whole_failure && grid != budgets.iter().map(|&b| Some(b)).collect::<Vec<_>>() {
            problems.push(format!("sweep answered grid {grid:?}, asked {budgets:?}"));
        }
    }
    // the SP-DP is exact on SP instances, so it must agree with exhaustive search
    let solved = |name: &str| {
        reports
            .iter()
            .find(|r| r.solver == name && r.status == Status::Solved)
    };
    if let (Some(sp), Some(ex)) = (solved("sp-dp"), solved("exact")) {
        let (a, b) = match req.objective {
            Objective::MinResource { .. } => (sp.budget_used, ex.budget_used),
            _ => (sp.makespan, ex.makespan),
        };
        if a != b {
            problems.push(format!("sp-dp {a:?} disagrees with exact {b:?}"));
        }
    }
    problems
}

/// `makespan / base makespan` of every solved min-makespan report and
/// sweep point of a request that could differ from the base plan: its
/// budget is above 0 and the instance's ideal makespan is below its base
/// makespan. Any other plan reads 1 whatever the program does.
pub fn makespan_ratios(req: &SolveRequest, reports: &[SolveReport]) -> Vec<f64> {
    if matches!(req.objective, Objective::MinResource { .. }) {
        return Vec::new();
    }
    let arc = req.prepared.arc();
    let base = arc.base_makespan();
    if arc.ideal_makespan() >= base {
        return Vec::new();
    }
    let budget = |r: &SolveReport| match req.objective {
        Objective::MinMakespan { budget } => budget,
        _ => r.sweep_budget.unwrap_or(0),
    };
    reports
        .iter()
        .filter(|r| r.status == Status::Solved && budget(r) > 0)
        .filter_map(|r| r.makespan)
        .map(|m| m as f64 / base as f64)
        .collect()
}
