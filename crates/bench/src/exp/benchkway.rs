//! `bench-kway` — direct k-way refinement benchmark.
//!
//! Runs a fixed-seed graph suite at `k = 8` through two variants that
//! share the recursive-bisection partition per graph:
//!
//! * `recursive` — recursive FM bisection only
//!   ([`kway_partition_cfg`] with `direct_refine: false`); its recorded
//!   seconds are the whole partition (coarsen + bisect cascade), the
//!   quantity the post-pass rides on top of;
//! * `direct_refine` — the direct k-way post-pass
//!   ([`kway_direct_refine`]) applied to a clone of the recursive
//!   labeling; its recorded seconds are the refinement alone, so the
//!   gate tracks the marginal cost of seeing all k labels jointly.
//!
//! Records per-graph cut, imbalance, and seconds of both, plus the
//! `cut_improvement` of the post-pass. The full suite is sized so the
//! k-way boundary (≈ (k−1)× the bisection boundary) crosses the dispatch
//! grain on the rmat instance while grid and path document the
//! sequential-path half of the crossover story, as in `bench-parref`,
//! whose crossover thresholds it shares: the production default never
//! fires on the quick suite, and the CI gate exists to track the parallel
//! k-way rounds path.
//! With `--trace`, one traced refinement per graph prints the
//! `kwayref/rounds` counter and emits the `kwayref/*` gauges plus
//! `par_for/kwayref/*` dispatch records. Timing, results file and gate:
//! [`crate::gated`].

use crate::gated::{Experiment, Key, Variant};
use crate::harness::Ctx;
use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::metrics::edge_cut;
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::fm::FmConfig;
use mlcg_partition::kway::{kway_imbalance, kway_partition_cfg, KwayConfig};
use mlcg_partition::kwayref::{kway_direct_refine, KwayRefineConfig};

/// Every suite graph is split into this many parts.
const K: usize = 8;

/// Suite, variants and members of `bench-kway`.
pub fn experiment() -> Experiment {
    Experiment {
        name: "bench-kway",
        seconds_key: "refine_seconds",
        per_vertex: false,
        heap_policy: ExecPolicy::host(),
        grid: 256,
        rmat: 14,
        skewed: None,
        variants: Variant::all(
            ["recursive", "direct_refine"],
            &[Key::Cut, Key::Imbalance, Key::Seconds, Key::Heap],
        ),
    }
}

/// Run the k-way refinement benchmark, write `BENCH_kway.json`, and
/// (with `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let exp = experiment();
    let mut table = exp.table(ctx);
    let policy = ctx.host();
    let fm = FmConfig::default();
    let crossover = super::benchparref::crossover(ctx);
    let refine_cfg = KwayRefineConfig {
        epsilon: fm.epsilon,
        crossover_frontier: Some(crossover),
        ..KwayRefineConfig::default()
    };
    let recursive_cfg = KwayConfig {
        direct_refine: false,
        ..Default::default()
    };
    let off = TraceCollector::disabled();
    let copts = CoarsenOptions::default();

    for sg in exp.graphs(ctx) {
        let g = &sg.g;
        let (rec, mut rec_m) = table.measure(
            |p| kway_partition_cfg(p, g, K, &copts, &fm, &recursive_cfg, ctx.seed, &off),
            None,
        );
        rec_m.cut = Some(rec.cut);
        rec_m.imbalance = Some(rec.imbalance);
        let refine = |p: &ExecPolicy, trace: &TraceCollector| {
            let mut part = rec.part.clone();
            kway_direct_refine(p, g, &mut part, K, &refine_cfg, trace);
            part
        };
        let (part, mut ref_m) = table.measure(|p| refine(p, &off), None);
        let ref_cut = edge_cut(g, &part);
        ref_m.cut = Some(ref_cut);
        ref_m.imbalance = Some(kway_imbalance(g, &part, K));
        let gain = 1.0 - ref_cut as f64 / rec.cut.max(1) as f64;
        let notes = vec![("cut_improvement", format!("{gain:.4}"))];
        table.push(&sg, vec![rec_m, ref_m], notes);
        table.trace(&sg, Some("kwayref/rounds"), |trace| {
            refine(&policy, trace);
        });
    }
    table.finish(&[("k", K), ("crossover_frontier", crossover)])
}
