//! Golden test for the `rtt gen` instance format: the pretty-printed
//! documents the race gen kinds write must stay byte-identical — the
//! same check CI runs against the same files. These pin the streamed
//! instance emitter (`InstanceSpec::to_json_string`), where the batch,
//! curve and lint goldens only cover compact report lines.
//!
//! If a deliberate format change alters the output, regenerate the
//! golden files with:
//!
//! ```text
//! cargo run --release -p rtt_cli --bin rtt -- gen --kind race-mm --n 3 \
//!   --family kway > crates/cli/tests/data/gen_race_mm_kway.json
//! cargo run --release -p rtt_cli --bin rtt -- gen --kind race-forkjoin \
//!   --family recbinary --seed 7 --stages 2 --width 3 --contention 4 \
//!   > crates/cli/tests/data/gen_race_forkjoin_recbinary.json
//! ```

use std::process::Command;

fn data(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run_gen(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .arg("gen")
        .args(args)
        .output()
        .expect("spawn rtt gen");
    assert!(
        out.status.success(),
        "rtt gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("instances are UTF-8")
}

fn assert_matches_golden(args: &[&str], golden: &str) {
    let want = std::fs::read_to_string(data(golden)).expect("committed golden instance");
    let got = run_gen(args);
    assert_eq!(
        got, want,
        "rtt gen {args:?} diverged from {golden}; see the module docs for how to \
         regenerate after a deliberate change"
    );
    // the golden is a well-formed instance, not merely stable bytes
    rtt_cli::InstanceSpec::from_json_str(&got)
        .expect("golden parses")
        .build()
        .expect("golden builds");
}

#[test]
fn gen_race_mm_matches_golden() {
    assert_matches_golden(
        &["--kind", "race-mm", "--n", "3", "--family", "kway"],
        "gen_race_mm_kway.json",
    );
}

#[test]
fn gen_race_forkjoin_matches_golden() {
    assert_matches_golden(
        &[
            "--kind",
            "race-forkjoin",
            "--family",
            "recbinary",
            "--seed",
            "7",
            "--stages",
            "2",
            "--width",
            "3",
            "--contention",
            "4",
        ],
        "gen_race_forkjoin_recbinary.json",
    );
}
