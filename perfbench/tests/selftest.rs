//! Smoke-sized runs of every workload: each metric `BENCHMARK.json`
//! names is printed with its unit, every correctness check passes, and
//! the generator is a pure function of its seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rtt_cli::json::Json;
use rtt_perfbench::gen::{generate, Workload};
use std::process::Command;

/// Requests per smoke run: one stratification block of mixed-cold, so
/// its heavy tail is in, and a few repeat windows short of sweep's.
const SMOKE_REQUESTS: &str = "60";

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .require(section)
        .and_then(|v| v.as_arr().map(<[Json]>::to_vec))
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.require(k)
                    .and_then(|v| v.as_str().map(String::from))
                    .expect("metric field")
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and returns its last stdout line, parsed.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_rtt_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .args(["--requests", SMOKE_REQUESTS])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_its_checks() {
    for w in Workload::ALL {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(w.name(), trace);
            let get = |k: &str| result.require(k).expect("result field").clone();
            assert_eq!(
                get("correct"),
                Json::Bool(true),
                "{} --trace {trace}: checks failed",
                w.name()
            );
            assert_eq!(get("failed").as_u64().expect("count"), 0);
            assert_eq!(get("attempted").as_u64().expect("count"), 60);
            let metrics = get("metrics");
            let want = declared(section);
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} --trace {trace}: {name} not printed", w.name()));
                assert_eq!(
                    m.require("unit")
                        .and_then(|u| u.as_str().map(String::from))
                        .expect("unit"),
                    *unit
                );
                assert!(m
                    .require("value")
                    .and_then(|v| v.as_f64())
                    .expect("numeric value")
                    .is_finite());
            }
            let Json::Obj(printed) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(
                printed.len(),
                want.len(),
                "{} --trace {trace}: extra metrics",
                w.name()
            );
        }
    }
}

#[test]
fn the_generator_is_a_pure_function_of_its_seed() {
    for w in Workload::ALL {
        let a = generate(w, 11, 250).digest();
        assert_eq!(
            a,
            generate(w, 11, 250).digest(),
            "{}: same seed, different inputs",
            w.name()
        );
        assert_ne!(
            a,
            generate(w, 12, 250).digest(),
            "{}: the seed changes nothing",
            w.name()
        );
    }
}
