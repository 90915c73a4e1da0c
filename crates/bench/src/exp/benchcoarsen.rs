//! `bench-coarsen` — coarse-graph construction benchmark and gate.
//!
//! The suite is split into a *regular* half (grid, path — uniform degrees,
//! the skew optimization stays off) and a *skewed* half (rmat, star — hub
//! aggregates, the degree-dedup optimization engages and the scatter
//! sharding has real work to do). For each graph and each of the five
//! [`ConstructMethod`]s this times one coarse-graph construction on the
//! host policy, plus a `hierarchy` variant that runs the full multilevel
//! driver and reports the summed per-level construction seconds — the
//! number the level-reused `ConstructWorkspace` improves. The methods'
//! outputs are cross-checked for bit-identity.
//!
//! Peak heap comes from an untimed run under the *serial* policy, which
//! captures the full construction envelope (count arrays, scatter arrays,
//! workspaces) deterministically.
//!
//! Star graphs use a synthetic grouped-leaves mapping (hub alone, leaves
//! in groups of 8) rather than a HEC mapping: HEC collapses a star in one
//! step, while the grouped mapping produces the adversarial shape the
//! sharded scatter exists for — one coarse vertex receiving every entry.
//! Timing, results file and gate: [`crate::gated`].

use crate::gated::{Experiment, Key, Measure, Table, Variant};
use crate::harness::Ctx;
use mlcg_coarsen::{
    coarsen, construct_coarse_graph, find_mapping, CoarsenOptions, ConstructMethod,
    ConstructOptions, Hierarchy, MapMethod, Mapping,
};
use mlcg_graph::Csr;
use mlcg_par::{ExecPolicy, TraceCollector};

/// Suite, variants and members of `bench-coarsen`.
pub fn experiment() -> Experiment {
    let methods = ConstructMethod::ALL.map(|m| m.name());
    Experiment {
        name: "bench-coarsen",
        seconds_key: "seconds",
        per_vertex: false,
        heap_policy: ExecPolicy::serial(),
        grid: 512,
        rmat: 15,
        skewed: Some("skewed"),
        variants: Variant::all(
            methods.into_iter().chain(["hierarchy"]),
            &[Key::Seconds, Key::Heap],
        ),
    }
}

/// Leaves in groups of `group`, the hub alone: the coarse graph is again a
/// star, and aggregate 0 receives every scattered entry.
fn star_mapping(n: usize, group: usize) -> Mapping {
    let map: Vec<u32> = (0..n as u32)
        .map(|u| {
            if u == 0 {
                0
            } else {
                1 + (u - 1) / group as u32
            }
        })
        .collect();
    let n_coarse = (*map.iter().max().unwrap() + 1) as usize;
    Mapping { map, n_coarse }
}

/// The `hierarchy` variant (shared with `bench-map`): the full multilevel
/// driver with its default methods, recording `stat`, per-level seconds
/// the driver sums from inside the run — the workspace-reuse number.
pub(crate) fn hierarchy(table: &Table, g: &Csr, seed: u64, stat: fn(&Hierarchy) -> f64) -> Measure {
    let copts = CoarsenOptions {
        seed,
        trace: TraceCollector::disabled(),
        ..Default::default()
    };
    table.measure(|p| coarsen(p, g, &copts), Some(stat)).1
}

/// Run the construction benchmark, write `BENCH_coarsen.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let exp = experiment();
    let mut table = exp.table(ctx);
    let serial = ExecPolicy::serial();

    for sg in exp.graphs(ctx) {
        let (name, g) = (&sg.name, &sg.g);
        let mapping = if name.starts_with("star") {
            star_mapping(g.n(), 8)
        } else {
            find_mapping(&serial, g, MapMethod::SeqHec, ctx.seed).0
        };
        let mut measures = Vec::new();
        let mut reference: Option<Csr> = None;

        for method in ConstructMethod::ALL {
            let opts = ConstructOptions::with_method(method);
            let construct = |p: &ExecPolicy| construct_coarse_graph(p, g, &mapping, &opts);
            let (coarse, m) = table.measure(construct, None);
            match &reference {
                None => reference = Some(coarse),
                Some(r) => assert_eq!(
                    &coarse,
                    r,
                    "{name}: {} disagrees with {}",
                    method.name(),
                    ConstructMethod::ALL[0].name()
                ),
            }
            measures.push(m);
        }

        let construct_seconds = |h: &Hierarchy| h.stats.construct_seconds.iter().sum();
        measures.push(hierarchy(&table, g, ctx.seed, construct_seconds));
        table.push(&sg, measures, vec![]);
    }
    table.finish(&[])
}
