//! Self-test of the end-to-end benchmark: work counters repeat under the
//! serial policy, the ledger closes, validation catches broken outputs,
//! and `BENCHMARK.json` lists exactly the metrics the code reports.
//!
//! Run with `cargo test --manifest-path e2ebench/Cargo.toml`.

use mlcg_e2ebench::{
    median, run_op, run_traced, tail, validate, workload, write_input, Done, Layers, Output,
    END_TO_END, PER_LAYER,
};
use mlcg_par::ExecPolicy;
use std::path::PathBuf;

fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Two serial traced ops of the workload at corpus scale 0.
fn traced_twice(name: &str) -> [(Done, Layers); 2] {
    let wl = workload(name).expect("known workload").at_scale(0);
    let input = write_input(&wl, 7, &scratch(name)).expect("write input");
    let serial = ExecPolicy::serial();
    let run = || run_traced(&serial, &wl, &input.path).expect("traced op");
    let out = [run(), run()];
    std::fs::remove_file(&input.path).expect("remove input");
    out
}

const COUNTERS: [&str; 5] = [
    "map.passes",
    "construct.edges_out",
    "coarsen.levels",
    "ingest.edges_streamed",
    "kway.recurse_cut",
];

fn assert_counters_repeat_and_ledger_closes(name: &str) {
    let [(d1, a), (d2, b)] = traced_twice(name);
    for d in [&d1, &d2] {
        validate(&ExecPolicy::serial(), d).expect("serial output validates");
    }
    for c in COUNTERS {
        let (x, y) = (a.metric(c).unwrap(), b.metric(c).unwrap());
        assert_eq!(x, y, "{name}: counter {c} differs across serial runs");
    }
    assert!(a.metric("ingest.edges_streamed").unwrap() > 0.0);
    assert!(a.metric("coarsen.levels").unwrap() > 0.0);
    for l in [&a, &b] {
        let rows: f64 = l.rows().iter().map(|(_, s)| s).sum();
        for (row, s) in l.rows() {
            assert!(s >= 0.0, "{name}: row {row} is negative");
        }
        // Rows are disjoint intervals inside the wall time.
        assert!(l.residual_s() >= 0.0, "{name}: rows exceed the wall time");
        assert!((rows + l.residual_s() - l.wall_s).abs() < 1e-9);
        assert_eq!(l.metric("e2e.residual_s"), Some(l.residual_s()));
        for m in PER_LAYER {
            let v = l.metric(m.name);
            let external = ["trace.overhead", "host.e2e_s", "par.speedup"].contains(&m.name);
            assert_eq!(v.is_none(), external, "{name}: {} has no source", m.name);
        }
    }
}

#[test]
fn kway_counters_repeat_and_ledger_closes() {
    assert_counters_repeat_and_ledger_closes("mesh-kway8");
}

#[test]
fn bisect_counters_repeat_and_ledger_closes() {
    assert_counters_repeat_and_ledger_closes("skew-bisect");
}

#[test]
fn coarsen_counters_repeat_and_ledger_closes() {
    assert_counters_repeat_and_ledger_closes("skew-coarsen-gosh");
}

#[test]
fn validation_rejects_broken_outputs() {
    let serial = ExecPolicy::serial();
    let wl = workload("mesh-kway8").unwrap().at_scale(0);
    let input = write_input(&wl, 3, &scratch("validate")).expect("write input");
    let fresh = || run_op(&serial, &wl, &input.path).expect("op");
    let mut done = fresh();
    validate(&serial, &done).expect("untouched output validates");

    let Output::Partition { cut, .. } = &mut done.output else {
        panic!("k-way gives labels");
    };
    *cut += 1;
    assert!(validate(&serial, &done).unwrap_err().contains("cut"));

    let mut done = fresh();
    if let Output::Partition { part, .. } = &mut done.output {
        part[0] = 8;
    }
    assert!(validate(&serial, &done).unwrap_err().contains(">= k"));

    let mut done = fresh();
    if let Output::Partition { part, .. } = &mut done.output {
        part.iter_mut().filter(|p| **p == 7).for_each(|p| *p = 0);
    }
    assert!(validate(&serial, &done).unwrap_err().contains("empty"));
    std::fs::remove_file(&input.path).expect("remove input");

    let wl = workload("skew-coarsen-gosh").unwrap().at_scale(0);
    let input = write_input(&wl, 3, &scratch("validate")).expect("write input");
    let mut done = run_op(&serial, &wl, &input.path).expect("op");
    std::fs::remove_file(&input.path).expect("remove input");
    validate(&serial, &done).expect("untouched hierarchy validates");
    let Output::Hierarchy(h) = &mut done.output else {
        panic!("coarsen gives a hierarchy");
    };
    h.levels[0].mapping.map[0] = u32::MAX;
    assert!(validate(&serial, &done).unwrap_err().contains("audit"));
}

#[test]
fn tail_is_the_highest_statistic_with_ten_samples_above() {
    let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(tail(&xs), (10.0, 50.0, 10));
    assert_eq!(tail(&[3.0, 1.0, 2.0]), (1.0, 100.0 / 3.0, 2));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics have a bound")
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed: Vec<&str> = json
        .split("{\"name\": \"")
        .filter_map(|entry| entry.split_once("\", \"why\": ").map(|(name, _)| name))
        .collect();
    assert!(!listed.is_empty(), "BENCHMARK.json lists no workload");
    for name in &listed {
        assert!(workload(name).is_some(), "unknown workload {name}");
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + listed.len());
}
