//! Round-trip property tests for the on-disk instance format:
//! `to_json_string` → `from_json_str` → `build` must reproduce the
//! instance, and `from_arc` ∘ `build` must preserve it, over random
//! generated DAGs of every `rtt gen` kind and every duration family.
//!
//! Differentially, the streamed `to_json_string` must equal the tree
//! path `to_json().pretty()` byte for byte — on generated instances and
//! on hand-built specs whose labels need every escape, whose arrays are
//! empty, and whose edges carry no duration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_cli::{DurationSpec, EdgeSpec, Form, InstanceSpec, NodeSpec};
use rtt_core::{ArcInstance, ReducerFamily};
use rtt_dag::gen;
use rtt_duration::Duration;

/// Deterministic instance from `(kind, family, seed)` — the same
/// construction path `rtt gen` uses.
fn generate(kind: usize, family: usize, seed: u64, nodes: usize) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = match kind % 4 {
        0 => gen::random_race_dag(&mut rng, nodes, nodes),
        1 => gen::layered(&mut rng, 3, nodes.div_ceil(3).max(1), 0.4),
        2 => gen::random_sp(&mut rng, nodes.max(1)).tt,
        _ => gen::chain(nodes.max(1)),
    };
    let fam: fn(u64) -> Duration = match family % 3 {
        0 => Duration::recursive_binary,
        1 => Duration::kway,
        // a non-trivial step family exercises the `step` wire encoding
        _ => |w| Duration::two_point(w.saturating_mul(2), w.max(1), w / 2),
    };
    let inst = rtt_core::Instance::race_dag(&tt.dag, fam).expect("generated DAG is valid");
    rtt_core::to_arc_form(&inst).0
}

/// Structural equality of two arc instances: same shape, same
/// endpoints, same canonical duration tuples, same labels.
fn assert_same_instance(a: &ArcInstance, b: &ArcInstance) {
    let (da, db) = (a.dag(), b.dag());
    assert_eq!(da.node_count(), db.node_count());
    assert_eq!(da.edge_count(), db.edge_count());
    assert_eq!(a.source(), b.source());
    assert_eq!(a.sink(), b.sink());
    for (ea, eb) in da.edge_refs().zip(db.edge_refs()) {
        assert_eq!((ea.src, ea.dst), (eb.src, eb.dst));
        assert_eq!(ea.weight.label, eb.weight.label);
        assert_eq!(
            ea.weight.duration.tuples(),
            eb.weight.duration.tuples(),
            "edge {:?} changed its duration across the round trip",
            ea.id
        );
    }
    // derived quantities follow, but check the cheap ones anyway
    assert_eq!(a.base_makespan(), b.base_makespan());
    assert_eq!(a.ideal_makespan(), b.ideal_makespan());
    assert_eq!(a.saturation_budget(), b.saturation_budget());
}

/// Labels covering every escape the writer spells (`"`, `\\`, `\n`,
/// `\r`, `\t`, other control bytes), escape-free text, the empty label,
/// and non-ASCII characters next to escapes.
const LABELS: &[&str] = &[
    "",
    "s",
    "hot path",
    "quote\"d",
    "back\\slash",
    "line\nbreak",
    "cr\rlf",
    "tab\there",
    "ctl\u{1}\u{1f}",
    "ünïcödé → ∞ 😀",
    "\"\\\n\t\u{1}é",
];

fn random_label(rng: &mut StdRng) -> String {
    LABELS[rng.random_range(0..LABELS.len())].to_string()
}

fn random_duration(rng: &mut StdRng) -> DurationSpec {
    let work = match rng.random_range(0..3) {
        0 => rng.random_range(0u64..10),
        1 => rng.random_range(0u64..1_000_000),
        // the ∞ sentinel and the integer extremes must spell exactly
        _ => [u64::MAX / 4, u64::MAX, 0][rng.random_range(0..3)],
    };
    match rng.random_range(0..5) {
        0 => DurationSpec::Zero,
        1 => DurationSpec::Constant { t: work },
        2 => DurationSpec::Kway { work },
        3 => DurationSpec::Recbinary { work },
        _ => DurationSpec::Step {
            tuples: (0..rng.random_range(0usize..4))
                .map(|i| (i as u64 * 3, work.saturating_sub(i as u64)))
                .collect(),
        },
    }
}

/// A hand-built spec of either form: possibly empty `nodes` / `edges`,
/// edges with and without durations, labels from [`LABELS`]. It need
/// not build — the emitter serializes whatever the spec holds.
fn hand_built(seed: u64) -> InstanceSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(0usize..6);
    let nodes = (0..n)
        .map(|_| NodeSpec {
            label: random_label(&mut rng),
            duration: random_duration(&mut rng),
        })
        .collect();
    let m = if n == 0 {
        0
    } else {
        rng.random_range(0usize..8)
    };
    let edges = (0..m)
        .map(|_| EdgeSpec {
            src: rng.random_range(0..n),
            dst: rng.random_range(0..n),
            duration: if rng.random_bool(0.5) {
                None
            } else {
                Some(random_duration(&mut rng))
            },
            label: random_label(&mut rng),
        })
        .collect();
    let form = if rng.random_bool(0.5) {
        Form::Node
    } else {
        Form::Arc
    };
    InstanceSpec { form, nodes, edges }
}

/// The streamed emitter and the tree printer agree byte for byte, and
/// the streamed text parses back to a spec that emits it again.
fn assert_stream_matches_tree(spec: &InstanceSpec) {
    let streamed = spec.to_json_string();
    assert_eq!(streamed, spec.to_json().pretty(), "streamed ≠ tree bytes");
    let parsed = InstanceSpec::from_json_str(&streamed).expect("streamed text parses");
    assert_eq!(parsed.to_json_string(), streamed, "re-emission differs");
}

#[test]
fn stream_matches_tree_on_edge_case_specs() {
    let empty = |form| InstanceSpec {
        form,
        nodes: vec![],
        edges: vec![],
    };
    assert_stream_matches_tree(&empty(Form::Node));
    assert_stream_matches_tree(&empty(Form::Arc));
    // every label, on a node and on a duration-less node-form edge
    let spec = InstanceSpec {
        form: Form::Node,
        nodes: LABELS
            .iter()
            .map(|l| NodeSpec {
                label: l.to_string(),
                duration: DurationSpec::Zero,
            })
            .collect(),
        edges: LABELS
            .iter()
            .enumerate()
            .map(|(i, l)| EdgeSpec {
                src: i,
                dst: (i + 1) % LABELS.len(),
                duration: None,
                label: l.to_string(),
            })
            .collect(),
    };
    assert_stream_matches_tree(&spec);
    let text = spec.to_json_string();
    assert!(text.contains(r#""quote\"d""#) && text.contains(r#""ctl\u0001\u001f""#));
    // nodes but no edges
    let spec = InstanceSpec {
        edges: vec![],
        ..spec
    };
    assert_stream_matches_tree(&spec);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed emission equals the tree path on every generator kind
    /// and duration family (`step` included), through `from_arc`.
    #[test]
    fn stream_matches_tree_on_generated_instances(
        kind in 0usize..4,
        family in 0usize..3,
        seed in 0u64..10_000,
        nodes in 1usize..12,
    ) {
        let spec = InstanceSpec::from_arc(&generate(kind, family, seed, nodes));
        prop_assert_eq!(spec.to_json_string(), spec.to_json().pretty());
    }

    /// The race gen kinds (`race-mm`, `race-forkjoin`) under both
    /// reducer families.
    #[test]
    fn stream_matches_tree_on_race_programs(
        kway in 0usize..2,
        n in 1u64..5,
        seed in 0u64..10_000,
        width in 1usize..5,
    ) {
        let family = if kway == 1 {
            ReducerFamily::KWay
        } else {
            ReducerFamily::RecursiveBinary
        };
        let mm = rtt_cli::race_mm_spec(n, family).expect("race-mm builds");
        prop_assert_eq!(mm.to_json_string(), mm.to_json().pretty());
        let fj = rtt_cli::race_forkjoin_spec(seed, 2, width, 4, family)
            .expect("fork-join builds");
        prop_assert_eq!(fj.to_json_string(), fj.to_json().pretty());
    }

    /// Hand-built specs of both forms: escaped labels, empty arrays,
    /// duration-less edges, every duration kind, extreme integers.
    #[test]
    fn stream_matches_tree_on_hand_built_specs(seed in 0u64..1_000_000) {
        assert_stream_matches_tree(&hand_built(seed));
    }

    /// `from_arc` ∘ `build` is the identity on arc instances, through
    /// the JSON text round trip.
    #[test]
    fn json_text_round_trip_preserves_instances(
        kind in 0usize..4,
        family in 0usize..3,
        seed in 0u64..10_000,
        nodes in 2usize..10,
    ) {
        let arc = generate(kind, family, seed, nodes);
        let spec = InstanceSpec::from_arc(&arc);
        let text = spec.to_json_string();
        let parsed = InstanceSpec::from_json_str(&text).expect("own output parses");
        let rebuilt = parsed.build().expect("own output builds");
        assert_same_instance(&arc, &rebuilt);
        // and the parsed spec re-serializes to the identical text: the
        // encoding is canonical, not merely equivalent
        prop_assert_eq!(text, parsed.to_json_string());
    }

    /// A second `from_arc` after the round trip yields the same spec —
    /// `from_arc` ∘ `build` is idempotent on the spec side too.
    #[test]
    fn from_arc_build_is_idempotent(
        kind in 0usize..4,
        family in 0usize..3,
        seed in 0u64..10_000,
        nodes in 2usize..8,
    ) {
        let arc = generate(kind, family, seed, nodes);
        let spec = InstanceSpec::from_arc(&arc);
        let once = spec.build().expect("builds");
        let spec2 = InstanceSpec::from_arc(&once);
        prop_assert_eq!(spec.to_json_string(), spec2.to_json_string());
        assert_same_instance(&once, &spec2.build().expect("builds again"));
    }
}
