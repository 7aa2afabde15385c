//! `rtt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark pass. Human-readable notes go to stderr; the last
//! line of stdout is the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--requests <n>` overrides the corpus size (smoke runs).
//! The exit code is 0 only when every output passed its checks.
//! The closed loop runs one client per available core.

use rtt_perfbench::gen::Workload;
use rtt_perfbench::{run, Config};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let take = |name: &str| flags.get(name).map(String::as_str);
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "requests"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let num = |name: &str, default: Option<u64>| -> Result<u64, String> {
        match take(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a whole number, got {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    };
    let workload = take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?}; choose one of {}",
            names.join(", ")
        )
    })?;
    let trace = match num("trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let seconds = num("seconds", Some(10))?;
    let requests = take("requests")
        .map(|_| num("requests", None))
        .transpose()?;
    if seconds == 0 || requests == Some(0) {
        return Err("--seconds and --requests must be positive".into());
    }
    Ok(Config {
        workload,
        seed: num("seed", Some(0))?,
        seconds,
        trace,
        requests: requests.map(|r| r as usize),
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("rtt_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    for note in &out.notes {
        eprintln!("{note}");
    }
    for m in &out.metrics {
        eprintln!("{:<36} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    for (id, why) in &out.failed {
        eprintln!("FAILED {id}: {why}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
