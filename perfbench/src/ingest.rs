//! The race-ingest workload: a racy program in, its witness set and its
//! wire instance out — the work of `rtt analyze race` plus `rtt gen
//! --kind race-*`.

use crate::gen::RaceProgram;
use crate::trace::Tracer;
use rtt_cli::spec::InstanceSpec;

/// One ingested program, as the run keeps it: holding every emitted
/// document until the checks would make them, not the program, the
/// process's largest memory user.
pub struct Ingested {
    /// Race witnesses the static analysis found.
    pub witnesses: u64,
    /// Digest of the emitted wire instance (an `InstanceSpec` JSON
    /// document).
    pub digest: u64,
}

/// Serializes a race instance the way `rtt gen --kind race-*` does.
fn emit(inst: &rtt_core::Instance) -> String {
    InstanceSpec::from_arc(&rtt_core::to_arc_form(inst).0).to_json_string()
}

/// Analyzes, converts and serializes one program.
pub fn ingest_one(p: &RaceProgram) -> Ingested {
    let summaries = rtt_analyze::analyze_races(&p.prog);
    let inst =
        rtt_core::instance_from_program(&p.prog, p.family).expect("generated programs extract");
    Ingested {
        witnesses: rtt_analyze::race::witness_count(&summaries),
        digest: crate::gen::digest(emit(&inst).as_bytes()),
    }
}

/// [`ingest_one`] with each layer's public call in its own span: the
/// footprint walk and the analyzer's sweep (together `analyze_races`),
/// race-DAG extraction and the instance conversion (together
/// `instance_from_program`), and the wire emission.
pub fn ingest_one_traced(p: &RaceProgram, i: usize, tracer: &mut Tracer) -> Ingested {
    let root = tracer.open("request", i, None);
    let ((fps, labels), _) = tracer.span("race.footprint", i, Some(root), || {
        rtt_race::footprints(&p.prog)
    });
    let (summaries, _) = tracer.span("analyze.sweep", i, Some(root), || {
        rtt_analyze::race::analyze_footprints(&fps, &labels)
    });
    let (rd, _) = tracer.span("race.extract", i, Some(root), || {
        rtt_race::extract_race_dag(&p.prog).expect("generated programs extract")
    });
    let (inst, _) = tracer.span("core.from_race", i, Some(root), || {
        rtt_core::instance_from_race_dag(&rd, p.family).expect("race DAGs convert")
    });
    let (emitted, _) = tracer.span("cli.emit", i, Some(root), || emit(&inst));
    tracer.close(root);
    let witnesses = rtt_analyze::race::witness_count(&summaries);
    tracer.counters.race_strands += p.strands as u64;
    tracer.counters.witnesses += witnesses;
    Ingested {
        witnesses,
        digest: crate::gen::digest(emitted.as_bytes()),
    }
}

/// Checks one ingested program: a second emission has the digest the
/// served one had (the output is deterministic, so this checks the
/// served bytes) and parses back to an instance with the same
/// canonical form as the program's own, and — when `dynamic` is set —
/// the static witness set equals the dynamic detector's.
pub fn check_one(p: &RaceProgram, out: &Ingested, dynamic: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let inst =
        rtt_core::instance_from_program(&p.prog, p.family).expect("generated programs extract");
    let arc = rtt_core::to_arc_form(&inst).0;
    let emitted = InstanceSpec::from_arc(&arc).to_json_string();
    if crate::gen::digest(emitted.as_bytes()) != out.digest {
        problems.push("emission differs from a second emission of the same program".into());
    }
    match InstanceSpec::from_json_str(&emitted).and_then(|s| s.build()) {
        Ok(back) => {
            if rtt_core::canonical_form(&back).key != rtt_core::canonical_form(&arc).key {
                problems.push("emitted instance parses back to another canonical form".into());
            }
        }
        Err(e) => problems.push(format!("emitted instance does not parse back: {e}")),
    }
    if dynamic {
        let summaries = rtt_analyze::analyze_races(&p.prog);
        let dynamic = rtt_analyze::race::dynamic_witness_set(&rtt_race::detect_races(&p.prog));
        if rtt_analyze::race::witness_set(&summaries) != dynamic {
            problems.push("static witness set differs from detect_races".into());
        }
        if dynamic.len() as u64 != out.witnesses {
            problems.push("reported witness count differs from detect_races".into());
        }
    }
    problems
}
