//! `bench-ingest` — streaming ingest and offset-width benchmark.
//!
//! For each suite graph, times two builds of the same edge multiset:
//!
//! * `inmem` — the one-shot in-memory builder, which stages the whole
//!   edge list (16 bytes/edge of auxiliary memory on top of the CSR);
//! * `streamed` — the two-pass chunked path
//!   ([`mlcg_graph::stream::build_csr`]), whose staging is one chunk
//!   buffer regardless of the graph's size.
//!
//! The streamed result is asserted bit-identical to the in-memory one,
//! its peak auxiliary bytes are asserted bounded by the configured chunk
//! (the acceptance criterion of the streaming substrate), and the final
//! offsets are asserted to engage the narrow `u32` mode on every suite
//! graph. Two SpMV variants then measure what that narrow mode buys:
//! `spmv_u32` runs on the production (adaptive) matrix, `spmv_usize` on
//! a copy with offsets forcibly widened to `usize`. The streamed build's
//! measured peak heap is additionally asserted within 10% of the
//! predictable staging+CSR budget. Timing, results file and gate:
//! [`crate::gated`].

use crate::gated::{Experiment, Key, Variant};
use crate::harness::Ctx;
use mlcg_graph::builder::{from_edges_with_mode, EDGE_ITEM_BYTES};
use mlcg_graph::stream::{build_csr, IngestOptions, SliceSource};
use mlcg_graph::{Csr, MergeMode, VId, Weight};
use mlcg_par::ExecPolicy;
use mlcg_sparse::{spmv, CsrMatrix};

/// SpMV iterations folded into one timed call, so the small quick-suite
/// matrices produce measurable times.
const SPMV_ITERS: usize = 10;

/// Suite, variants and members of `bench-ingest`.
pub fn experiment() -> Experiment {
    use Key::*;
    Experiment {
        name: "bench-ingest",
        seconds_key: "seconds",
        per_vertex: false,
        heap_policy: ExecPolicy::host(),
        grid: 512,
        rmat: 15,
        skewed: None,
        variants: vec![
            Variant::new("inmem", &[Seconds, Heap, AuxBytes]),
            Variant::new("streamed", &[Seconds, Heap, AuxBytes, Chunks]),
            Variant::new("spmv_u32", &[Seconds]),
            Variant::new("spmv_usize", &[Seconds]),
        ],
    }
}

fn upper_edges(g: &Csr) -> Vec<(VId, VId, Weight)> {
    let mut edges = Vec::with_capacity(g.m());
    for u in 0..g.n() as VId {
        for (v, w) in g.edges(u) {
            if v > u {
                edges.push((u, v, w));
            }
        }
    }
    edges
}

/// Run the ingest benchmark, write `BENCH_ingest.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let exp = experiment();
    let mut table = exp.table(ctx);
    let chunk_edges: usize = if ctx.quick { 1024 } else { 1 << 16 };
    let policy = ctx.host();

    for sg in exp.graphs(ctx) {
        let (name, g) = (&sg.name, &sg.g);
        let edges = upper_edges(g);
        let m = edges.len();

        let (inmem, mut inmem_m) = table.measure(
            |p| from_edges_with_mode(p, g.n(), &edges, MergeMode::Sum),
            None,
        );
        assert_eq!(&inmem, g, "in-memory rebuild must reproduce the graph");
        inmem_m.aux_bytes_per_edge = Some((m * EDGE_ITEM_BYTES) as f64 / m.max(1) as f64);

        let streamed = |p: &ExecPolicy| {
            let opts = IngestOptions {
                chunk_edges,
                policy: p.clone(),
            };
            let mut src = SliceSource::new(g.n(), &edges);
            build_csr(&mut src, MergeMode::Sum, &opts).expect("in-memory edge source")
        };
        let ((streamed, stats), mut streamed_m) = table.measure(streamed, None);
        assert_eq!(
            streamed, inmem,
            "{name}: streamed build must be bit-identical to in-memory"
        );
        assert!(
            stats.peak_staging_bytes <= chunk_edges * EDGE_ITEM_BYTES,
            "{name}: staging {} exceeds the chunk bound {}",
            stats.peak_staging_bytes,
            chunk_edges * EDGE_ITEM_BYTES
        );
        assert!(
            stats.offsets_are_u32,
            "{name}: u32 offset mode must engage on every bench graph"
        );
        // The streamed build's peak must match the predictable budget —
        // the chunk staging buffer plus the finished CSR — within 10%: the
        // two-pass scatter arrays (wide degree scan + narrow cursors) are
        // sized to land on that envelope, and a regression here means the
        // builder grew a hidden copy.
        let peak = streamed_m.peak_bytes.expect("measure records the heap");
        let expected = (stats.peak_staging_bytes + streamed.heap_bytes()) as f64;
        let ratio = peak as f64 / expected;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{name}: streamed peak heap {peak} is {ratio:.3}x the staging+CSR budget {}",
            expected as u64
        );
        streamed_m.aux_bytes_per_edge = Some(stats.peak_staging_bytes as f64 / m.max(1) as f64);
        streamed_m.chunks = Some(stats.chunks);

        let a32 = CsrMatrix::from_graph(g);
        assert!(
            a32.row_ptr.is_u32(),
            "{name}: adaptive matrix must inherit narrow offsets"
        );
        let mut awide = a32.clone();
        awide.widen_offsets();
        let x: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut y = vec![0.0; g.n()];
        let mut products = |a: &CsrMatrix| {
            let batch = || {
                for _ in 0..SPMV_ITERS {
                    spmv(&policy, a, &x, &mut y);
                }
                y[0]
            };
            table.time(batch, None).1
        };
        let (spmv_u32, spmv_usize) = (products(&a32), products(&awide));
        let measures = vec![inmem_m, streamed_m, spmv_u32, spmv_usize];
        table.push(&sg, measures, vec![]);
    }
    table.finish(&[("chunk_edges", chunk_edges), ("spmv_iters", SPMV_ITERS)])
}
