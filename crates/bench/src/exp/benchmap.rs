//! `bench-map` — mapping-phase benchmark and gate.
//!
//! The suite is split into a *regular* half (grid, path — uniform degrees,
//! the HEC-family pass loop converges immediately) and a *hub-heavy* half
//! (rmat, star — skewed degrees, where the work queue stays long and the
//! parallel compaction plus the fused relabel have real work to do). For
//! each graph and each of the paper's Table IV methods this times one
//! `find_mapping_in` on the host policy through a warm [`MapWorkspace`],
//! plus a `hierarchy` variant that runs the full multilevel driver and
//! reports the summed per-level mapping seconds — the number the
//! level-reused workspace improves.
//!
//! Peak heap comes from an untimed run under the *serial* policy through
//! a warm workspace, which captures the full mapping envelope (output
//! labels, relabel flag, per-call sort scratch) deterministically. Before
//! timing, each method is cross-checked for fresh-vs-shared workspace
//! identity, and `mis2` for policy invariance. Timing, results file and
//! gate: [`crate::gated`].

use crate::gated::{Experiment, Key, Variant};
use crate::harness::Ctx;
use mlcg_coarsen::{find_mapping, find_mapping_in, Hierarchy, MapMethod, MapWorkspace};
use mlcg_par::{Backend, ExecPolicy};

/// Suite, variants and members of `bench-map`.
pub fn experiment() -> Experiment {
    let methods = MapMethod::TABLE4.map(|m| m.name());
    Experiment {
        name: "bench-map",
        seconds_key: "seconds",
        per_vertex: true,
        heap_policy: ExecPolicy::serial(),
        grid: 512,
        rmat: 15,
        skewed: Some("hub-heavy"),
        variants: Variant::all(
            methods.into_iter().chain(["hierarchy"]),
            &[Key::Seconds, Key::Heap],
        ),
    }
}

/// Run the mapping benchmark, write `BENCH_map.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let exp = experiment();
    let mut table = exp.table(ctx);
    let host = ctx.host();
    let serial = ExecPolicy::serial();

    for sg in exp.graphs(ctx) {
        let (name, g) = (&sg.name, &sg.g);
        let mut measures = Vec::new();

        for method in MapMethod::TABLE4 {
            // A shared workspace must never change the serial result.
            let mut ws = MapWorkspace::new();
            let (fresh, _) = find_mapping(&serial, g, method, ctx.seed);
            let (shared, _) = find_mapping_in(&serial, g, method, ctx.seed, &mut ws);
            assert_eq!(
                fresh,
                shared,
                "{name}: {} differs between fresh and shared workspace",
                method.name()
            );
            if method == MapMethod::Mis2 {
                // The one Table IV method that is schedule-deterministic:
                // the host policy must reproduce the serial labels exactly.
                let (parallel, _) = find_mapping(&host, g, method, ctx.seed);
                assert_eq!(parallel, fresh, "{name}: mis2 must be policy-invariant");
            }
            // Timed and heap runs each reuse a workspace warmed under
            // their own policy only.
            let mut ws_host = MapWorkspace::new();
            let map = |p: &ExecPolicy| {
                let ws = match p.backend {
                    Backend::Serial => &mut ws,
                    _ => &mut ws_host,
                };
                find_mapping_in(p, g, method, ctx.seed, ws)
            };
            let (_, m) = table.measure(map, None);
            measures.push(m);
        }

        let map_seconds = |h: &Hierarchy| h.stats.map_seconds.iter().sum();
        measures.push(super::benchcoarsen::hierarchy(
            &table,
            g,
            ctx.seed,
            map_seconds,
        ));
        table.push(&sg, measures, vec![]);
    }
    table.finish(&[])
}
