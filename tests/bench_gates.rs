//! The six gated `bench-*` experiments against their committed baselines,
//! without running a benchmark: each experiment's declared suite,
//! variants and members must cover every pair the regression gate
//! compares, and the one results writer must round-trip through the gate.

use mlcg_bench::compare::{compare_bench, Json};
use mlcg_bench::exp::{benchcoarsen, benchfm, benchingest, benchkway, benchmap, benchparref};
use mlcg_bench::gated::{Experiment, Key, Measure, SuiteGraph, Variant};
use mlcg_bench::Ctx;
use mlcg_graph::generators as gen;
use mlcg_par::ExecPolicy;

/// A measure recording exactly `keys`, every value `x`.
fn filled(keys: &[Key], x: f64) -> Measure {
    let mut m = Measure {
        seconds: x,
        ..Default::default()
    };
    for key in keys {
        match key {
            Key::Cut => m.cut = Some(x as u64),
            Key::Imbalance => m.imbalance = Some(x),
            Key::Seconds => {}
            Key::Heap => m.peak_bytes = Some(x as u64),
            Key::AuxBytes => m.aux_bytes_per_edge = Some(x),
            Key::Chunks => m.chunks = Some(x as u64),
        }
    }
    m
}

/// The results document the writer produces for `exp`'s suite when every
/// declared member is recorded as `value(graph, variant)`.
fn synthetic(exp: &Experiment, quick: bool, value: impl Fn(usize, usize) -> Measure) -> Json {
    let ctx = Ctx {
        quick,
        ..Default::default()
    };
    let mut table = exp.table(&ctx);
    for (gi, (name, class)) in exp.names(quick).into_iter().enumerate() {
        let sg = SuiteGraph {
            name,
            class,
            g: gen::path(2),
        };
        let measures = (0..exp.variants.len()).map(|vi| value(gi, vi)).collect();
        table.push(&sg, measures, vec![]);
    }
    Json::parse(&table.to_json(&[])).expect("the writer emits valid JSON")
}

fn baseline(exp: &Experiment, quick: bool) -> Json {
    let short = exp.name.trim_start_matches("bench-");
    let suffix = if quick { "_quick" } else { "" };
    let path = format!(
        "{}/baselines/BENCH_{short}{suffix}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn declared_members_cover_every_gated_baseline_pair() {
    let gated = [
        benchcoarsen::experiment(),
        benchfm::experiment(),
        benchingest::experiment(),
        benchkway::experiment(),
        benchmap::experiment(),
        benchparref::experiment(),
    ];
    for exp in gated {
        for quick in [false, true] {
            let base = baseline(&exp, quick);
            let label = format!("{} (quick={quick})", exp.name);
            assert_eq!(
                base.get("experiment").and_then(Json::as_str),
                Some(exp.name),
                "{label}"
            );

            // Same graphs, same classes.
            let declared = exp.names(quick);
            let recorded: Vec<(&str, Option<&str>)> = base
                .get("graphs")
                .expect("baseline graphs")
                .items()
                .iter()
                .map(|g| {
                    let name = g.get("name").and_then(Json::as_str).expect("graph name");
                    (name, g.get("class").and_then(Json::as_str))
                })
                .collect();
            let mut declared: Vec<(&str, Option<&str>)> =
                declared.iter().map(|(n, c)| (n.as_str(), *c)).collect();
            let mut recorded_sorted = recorded.clone();
            declared.sort();
            recorded_sorted.sort();
            assert_eq!(declared, recorded_sorted, "{label}: suite graphs");

            // Every (graph, variant, metric) the gate compares is written:
            // with all current values 0 nothing regresses, so any failure
            // is a pair the declaration does not cover.
            let current = synthetic(&exp, quick, |_, vi| filled(exp.variants[vi].keys, 0.0));
            let outcome =
                compare_bench(&base, &current, 0.0).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(outcome.missing.is_empty(), "{label}: {:?}", outcome.missing);
            assert!(outcome.passed(), "{label}");
            for (name, _) in &recorded {
                assert!(
                    outcome.deltas.iter().any(|d| d.graph == *name),
                    "{label}: nothing gated on {name}"
                );
            }
        }
    }
}

#[test]
fn writer_round_trips_through_the_gate() {
    use Key::*;
    let exp = Experiment {
        name: "bench-synthetic",
        seconds_key: "seconds",
        per_vertex: false,
        heap_policy: ExecPolicy::serial(),
        grid: 128,
        rmat: 12,
        skewed: Some("skewed"),
        variants: vec![
            Variant::new("full", &[Cut, Imbalance, Seconds, Heap, AuxBytes, Chunks]),
            Variant::new("bare", &[Seconds]),
        ],
    };
    let keys = |vi: usize| exp.variants[vi].keys;
    let base = synthetic(&exp, false, |gi, vi| {
        let mut m = filled(keys(vi), 1000.0 + gi as f64);
        m.seconds = 0.001 * (1 + gi + vi) as f64;
        m
    });
    let same = compare_bench(&base, &base, 0.0).expect("self comparison");
    assert!(same.passed());
    // 4 graphs × (full: seconds, peak_bytes, bytes_per_edge, aux; bare: seconds).
    assert_eq!(same.deltas.len(), 4 * 5);

    let inflated = |bump: &dyn Fn(&mut Measure)| {
        synthetic(&exp, false, |gi, vi| {
            let mut m = filled(keys(vi), 1000.0 + gi as f64);
            m.seconds = 0.001 * (1 + gi + vi) as f64;
            if (gi, vi) == (2, 0) {
                bump(&mut m);
            }
            m
        })
    };
    let graph = &exp.names(false)[2].0;

    let slow = inflated(&|m| m.seconds *= 1.5);
    let out = compare_bench(&base, &slow, 0.0).expect("comparison");
    let reg: Vec<_> = out.deltas.iter().filter(|d| d.regressed).collect();
    assert_eq!(reg.len(), 1, "{reg:?}");
    assert_eq!((&reg[0].graph, reg[0].variant.as_str()), (graph, "full"));
    assert_eq!(reg[0].metric, "seconds");

    let bloated = inflated(&|m| m.peak_bytes = m.peak_bytes.map(|p| p * 2));
    let out = compare_bench(&base, &bloated, 0.0).expect("comparison");
    assert!(!out.passed());
    let metrics: Vec<&str> = out
        .deltas
        .iter()
        .filter(|d| d.regressed)
        .map(|d| d.metric.as_str())
        .collect();
    assert_eq!(metrics, ["peak_bytes", "bytes_per_edge"]);
}
