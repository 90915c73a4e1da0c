//! `bench-fm` — FM refinement trajectory benchmark.
//!
//! Runs boundary-driven and full-scan FM uncoarsening on one shared
//! hierarchy per suite graph (grid2d / rmat / path) and records the cut
//! and the refinement-only seconds of both, plus their `speedup`, so the
//! bench trajectory can be tracked across commits. With `--trace`, one
//! traced multilevel run per graph emits the per-pass `fm/boundary_size`
//! gauges. Timing, results file and gate: [`crate::gated`].

use crate::gated::{speedup, Experiment, Key, Variant};
use crate::harness::Ctx;
use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::metrics::edge_cut;
use mlcg_par::ExecPolicy;
use mlcg_partition::fm::{fm_uncoarsen_frac, fm_uncoarsen_frac_full_scan, FmConfig};
use mlcg_partition::fm_bisect;

/// Suite, variants and members of `bench-fm`.
pub fn experiment() -> Experiment {
    Experiment {
        name: "bench-fm",
        seconds_key: "refine_seconds",
        per_vertex: false,
        heap_policy: ExecPolicy::host(),
        grid: 256,
        rmat: 13,
        skewed: None,
        variants: Variant::all(
            ["full_scan", "boundary"],
            &[Key::Cut, Key::Seconds, Key::Heap],
        ),
    }
}

/// Run the FM refinement benchmark, write `BENCH_fm.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let exp = experiment();
    let mut table = exp.table(ctx);
    let policy = ctx.host();
    let cfg = FmConfig::default();

    for sg in exp.graphs(ctx) {
        let g = &sg.g;
        let h = coarsen(&policy, g, &CoarsenOptions::default());
        let (full, mut full_m) = table.measure(
            |_| fm_uncoarsen_frac_full_scan(&h, &cfg, 0.5, ctx.seed),
            None,
        );
        full_m.cut = Some(full.1);
        let (part, mut bnd_m) = table.measure(|_| fm_uncoarsen_frac(&h, &cfg, 0.5, ctx.seed), None);
        bnd_m.cut = Some(edge_cut(g, &part));
        let notes = vec![speedup(&full_m, &bnd_m)];
        table.push(&sg, vec![full_m, bnd_m], notes);
        table.trace(&sg, None, |trace| {
            let opts = CoarsenOptions {
                trace: trace.clone(),
                seed: ctx.seed,
                ..Default::default()
            };
            fm_bisect(&policy, g, &opts, &cfg, ctx.seed);
        });
    }
    table.finish(&[])
}
