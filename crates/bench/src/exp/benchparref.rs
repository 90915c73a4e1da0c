//! `bench-parref` — parallel coarse-level refinement benchmark.
//!
//! Runs a fixed-seed graph suite through two uncoarsening paths on one
//! shared hierarchy per graph:
//!
//! * `seq_boundary` — the PR 2 sequential boundary-driven FM driver
//!   ([`fm_uncoarsen_frac`]), the production fast path under a serial
//!   policy;
//! * `par_coarse` — the hybrid driver
//!   ([`fm_uncoarsen_frac_hybrid`]): the frontier-based parallel
//!   refinement rounds (the k-way round engine at `k = 2`) on every level
//!   whose projected frontier crosses the crossover threshold, sequential
//!   boundary FM polish below it and after the rounds.
//!
//! Records per-graph cut and refinement-only seconds for both, plus their
//! `speedup`. The full suite is larger than `bench-fm`'s on purpose: the
//! parallel engine only engages once a level's projected frontier crosses
//! a dispatch grain, and rmat-15 is the smallest suite member whose
//! finest-level frontier (~15k vertices) does. The grid and path stay
//! below the crossover at every level and document the other half of the
//! story: thin-boundary graphs keep the sequential fast path, so their two
//! variants should measure as noise around parity. With `--trace`, one
//! traced hybrid run per graph emits the `kwayref/rounds` counter and the
//! per-round `kwayref/frontier_size` gauges plus `par_for/kwayref/*`
//! dispatch records. Timing, results file and gate: [`crate::gated`].

use crate::gated::{speedup, Experiment, Key, Variant};
use crate::harness::Ctx;
use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::metrics::edge_cut;
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::fm::{fm_uncoarsen_frac, fm_uncoarsen_frac_hybrid, FmConfig};
use mlcg_partition::kwayref::KwayRefineConfig;

/// Forced crossover threshold for the `par_coarse` variant in `--quick`
/// mode. The [`KwayRefineConfig`] default ties the threshold to
/// `HOST_GRAIN × workers`, which on the quick suite's small graphs
/// disables the parallel engine entirely — correct for production,
/// useless for tracking this code path in the CI gate. Quick mode pins
/// a low threshold so the rounds genuinely run on any host; the gate
/// compares against a baseline recorded the same way, so the known
/// small-frontier overhead cancels out.
const CROSSOVER_QUICK: usize = 512;

/// Crossover threshold for the full suite: one dispatch grain
/// (`HOST_GRAIN`), the smallest frontier that can split across workers
/// at all. This keeps the timing comparison honest — the engine engages
/// exactly where a dispatch can go wide (the fat rmat frontiers) and
/// stays off where the boundary is thin (grids, paths), which is the
/// production crossover story at a host-independent pin.
const CROSSOVER_FULL: usize = 2048;

/// The crossover threshold `ctx` selects (`bench-kway` shares it).
pub(crate) fn crossover(ctx: &Ctx) -> usize {
    if ctx.quick {
        CROSSOVER_QUICK
    } else {
        CROSSOVER_FULL
    }
}

/// Suite, variants and members of `bench-parref`.
pub fn experiment() -> Experiment {
    Experiment {
        name: "bench-parref",
        seconds_key: "refine_seconds",
        per_vertex: false,
        heap_policy: ExecPolicy::host(),
        grid: 512,
        rmat: 15,
        skewed: None,
        variants: Variant::all(
            ["seq_boundary", "par_coarse"],
            &[Key::Cut, Key::Seconds, Key::Heap],
        ),
    }
}

/// Run the parallel-refinement benchmark, write `BENCH_parref.json`, and
/// (with `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let exp = experiment();
    let mut table = exp.table(ctx);
    let policy = ctx.host();
    let cfg = FmConfig::default();
    let crossover = crossover(ctx);
    let rounds = KwayRefineConfig {
        crossover_frontier: Some(crossover),
        ..KwayRefineConfig::default()
    };
    let off = TraceCollector::disabled();

    for sg in exp.graphs(ctx) {
        let g = &sg.g;
        let h = coarsen(&policy, g, &CoarsenOptions::default());
        let (seq_part, mut seq) =
            table.measure(|_| fm_uncoarsen_frac(&h, &cfg, 0.5, ctx.seed), None);
        seq.cut = Some(edge_cut(g, &seq_part));
        let (par_part, mut par) = table.measure(
            |p| fm_uncoarsen_frac_hybrid(p, &h, &cfg, &rounds, 0.5, ctx.seed, &off),
            None,
        );
        par.cut = Some(edge_cut(g, &par_part));
        let notes = vec![speedup(&seq, &par)];
        table.push(&sg, vec![seq, par], notes);
        table.trace(&sg, Some("kwayref/rounds"), |trace| {
            let opts = CoarsenOptions {
                trace: trace.clone(),
                seed: ctx.seed,
                ..Default::default()
            };
            let h = coarsen(&policy, g, &opts);
            fm_uncoarsen_frac_hybrid(&policy, &h, &cfg, &rounds, 0.5, ctx.seed, trace);
        });
    }
    table.finish(&[("crossover_frontier", crossover)])
}
