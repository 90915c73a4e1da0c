//! k-way partitioning by recursive bisection.
//!
//! The paper evaluates bisection only; a downstream user of a multilevel
//! partitioner almost always wants `k` parts. This module recursively
//! applies any bisection routine, splitting the target part count
//! (im)properly for non-powers of two: a 5-way partition first bisects
//! 3:2 by weight, then recurses.
//!
//! Each bisection goes through [`fm_bisect_frac`], whose uncoarsening is
//! the hybrid driver (`fm_uncoarsen_frac_hybrid`): under a parallel
//! policy, coarse levels whose projected frontier crosses the crossover
//! threshold refine with the frontier-based parallel rounds
//! (`kway_parallel_refine_rounds` at `k = 2`) before the sequential
//! boundary FM polish —
//! so recursive k-way inherits the parallel coarse-level engine on the
//! top-level (largest) subproblems, where it pays, and stays on the
//! sequential fast path for the small deep-recursion pieces.

use crate::fm::{fm_bisect_frac, FmConfig};
use crate::kwayref::{kway_direct_refine, KwayRefineConfig};
use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::Csr;
use mlcg_par::{ExecPolicy, Timer, TraceCollector};

/// Outcome of a k-way partition.
#[derive(Clone, Debug)]
pub struct KwayResult {
    /// Part label in `0..k` per vertex.
    pub part: Vec<u32>,
    /// Weighted edge cut across all part boundaries.
    pub cut: u64,
    /// `max_p w(p) / (total / k)`; 1.0 is perfect.
    pub imbalance: f64,
    /// Total wall time.
    pub seconds: f64,
    /// Time spent in the direct k-way refinement post-pass (0 when
    /// disabled or `k < 2`).
    pub refine_seconds: f64,
}

/// Configuration for [`kway_partition_cfg`].
#[derive(Clone, Debug)]
pub struct KwayConfig {
    /// Run direct k-way refinement over the finished labeling, so cuts
    /// recursive bisection froze early — and the edge-ignoring
    /// `direct_kway_split` fallback assignments — get revisited with all
    /// `k` labels in view.
    pub direct_refine: bool,
    /// Tuning for the refinement post-pass. `epsilon` and `vertex_slack`
    /// should normally mirror the bisection `FmConfig` (the flat
    /// [`kway_partition`] wrapper copies them over).
    pub refine: KwayRefineConfig,
}

impl Default for KwayConfig {
    fn default() -> Self {
        KwayConfig {
            direct_refine: true,
            refine: KwayRefineConfig::default(),
        }
    }
}

/// Partition into `k` balanced parts by recursive FM bisection, then
/// direct k-way refinement (see [`kway_partition_cfg`]).
pub fn kway_partition(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    seed: u64,
) -> KwayResult {
    let cfg = KwayConfig {
        refine: KwayRefineConfig {
            epsilon: fm.epsilon,
            vertex_slack: fm.vertex_slack,
            ..Default::default()
        },
        ..Default::default()
    };
    kway_partition_cfg(
        policy,
        g,
        k,
        coarsen_opts,
        fm,
        &cfg,
        seed,
        &TraceCollector::disabled(),
    )
}

/// Partition into `k` balanced parts: recursive FM bisection, then —
/// when [`KwayConfig::direct_refine`] is set — one direct k-way
/// refinement pass over the finished labeling.
///
/// The reported cut is the refiner's incrementally maintained value
/// (debug-asserted against, and under `MLCG_VALIDATE` audited as
/// `kway-cut-agree` with, a from-scratch [`edge_cut`] recount); the
/// O(m) recount only runs eagerly when the refinement post-pass is
/// disabled. Each refined partition bumps the `kway/direct_refine`
/// trace counter.
#[allow(clippy::too_many_arguments)]
pub fn kway_partition_cfg(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    cfg: &KwayConfig,
    seed: u64,
    trace: &TraceCollector,
) -> KwayResult {
    assert!(k >= 1, "k must be positive");
    let t = Timer::start();
    let mut part = vec![0u32; g.n()];
    recurse(
        policy,
        g,
        k,
        0,
        coarsen_opts,
        fm,
        seed,
        &mut part,
        &(0..g.n() as u32).collect::<Vec<_>>(),
    );
    let (cut, refine_seconds) = if cfg.direct_refine && k >= 2 && g.n() > 0 {
        let rt = Timer::start();
        let cut = kway_direct_refine(policy, g, &mut part, k, &cfg.refine, trace);
        trace.counter_add("kway/direct_refine", 1);
        debug_assert_eq!(cut, edge_cut(g, &part), "refined k-way cut drifted");
        if trace.validate_enabled() {
            let recount = edge_cut(g, &part);
            trace.audit(
                "partition/kway",
                "kway-cut-agree",
                if cut == recount {
                    Ok(())
                } else {
                    Err(format!("incremental cut {cut} != edge_cut {recount}"))
                },
            );
        }
        (cut, rt.seconds())
    } else {
        (edge_cut(g, &part), 0.0)
    };
    let imbalance = kway_imbalance(g, &part, k);
    KwayResult {
        part,
        cut,
        imbalance,
        seconds: t.seconds(),
        refine_seconds,
    }
}

/// `max_p w(p) / (total/k)` for a k-way partition.
///
/// Labels must lie in `0..k` (asserted). Empty parts are tolerated — they
/// are legitimate when `n < k` — and simply never contribute to the max;
/// callers that require every label populated can check
/// [`kway_empty_parts`] or use [`kway_imbalance_checked`].
pub fn kway_imbalance(g: &Csr, part: &[u32], k: usize) -> f64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        assert!(
            (p as usize) < k,
            "part label {p} out of range for k={k} (vertex {u})"
        );
        w[p as usize] += g.vwgt()[u];
    }
    let total: u64 = w.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / k as f64;
    w.iter().copied().max().unwrap_or(0) as f64 / ideal
}

/// Number of labels in `0..k` with no assigned vertex. Zero for a healthy
/// k-way partition whenever `n >= k`; a positive count flags label dropout
/// upstream (the bug this helper exists to surface).
pub fn kway_empty_parts(part: &[u32], k: usize) -> usize {
    let mut seen = vec![false; k];
    for &p in part {
        assert!((p as usize) < k, "part label {p} out of range for k={k}");
        seen[p as usize] = true;
    }
    seen.iter().filter(|&&s| !s).count()
}

/// [`kway_imbalance`] plus a debug assertion that no part is empty.
///
/// Use from tests and debug builds on graphs with `n >= k`, where an empty
/// part always indicates label dropout rather than a legitimately
/// unpopulated label.
pub fn kway_imbalance_checked(g: &Csr, part: &[u32], k: usize) -> f64 {
    debug_assert_eq!(
        kway_empty_parts(part, k),
        0,
        "k-way label dropout: empty parts with n={} k={k}",
        g.n()
    );
    kway_imbalance(g, part, k)
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    base_label: u32,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    seed: u64,
    out: &mut [u32],
    ids: &[u32], // original ids of g's vertices
) {
    if k <= 1 || g.n() <= 1 {
        for &u in ids {
            out[u as usize] = base_label;
        }
        return;
    }
    // Split k into k0 + k1 (k0 >= k1); the bisection targets a k0:k1
    // weight ratio so odd k stays balanced.
    let k0 = k.div_ceil(2);
    let k1 = k / 2;
    // Bias the bisection so side 0 receives k0/k of the weight.
    let r = fm_bisect_frac(policy, g, coarsen_opts, fm, k0 as f64 / k as f64, seed);

    // Degenerate bisection: one side came back empty (heavy vertices or a
    // collapsed coarse hierarchy can defeat the balance constraint). The
    // old code `continue`d past the empty side, silently dropping its
    // whole label range and emitting fewer than k parts. Instead, re-split
    // the non-empty side directly across all k labels.
    let n0 = r.part.iter().filter(|&&s| s == 0).count();
    if n0 == 0 || n0 == g.n() {
        direct_kway_split(g, k, base_label, out, ids);
        return;
    }

    for side in 0..2u32 {
        let sub_k = if side == 0 { k0 } else { k1 };
        let label = if side == 0 {
            base_label
        } else {
            base_label + k0 as u32
        };
        // Extract the side's induced subgraph (largest component plus any
        // stragglers, which are labeled directly).
        let side_ids: Vec<u32> = (0..g.n() as u32)
            .filter(|&u| r.part[u as usize] == side)
            .collect();
        if sub_k <= 1 {
            for &u in &side_ids {
                out[ids[u as usize] as usize] = label;
            }
            continue;
        }
        let (sub, _) = mlcg_graph::cc::induced_subgraph(g, &side_ids);
        let sub_ids: Vec<u32> = side_ids.iter().map(|&u| ids[u as usize]).collect();
        // Recursion merges everything into one label at its `n <= 1` base
        // case, so a side with fewer vertices than target labels can never
        // populate them all that way; a direct split uses as many labels
        // as there are vertices.
        if side_ids.len() < sub_k {
            direct_kway_split(&sub, sub_k, label, out, &sub_ids);
            continue;
        }
        // Disconnected sides are possible; recurse on the whole (possibly
        // disconnected) subgraph only if connected, otherwise fall back to
        // splitting components round-robin through the bisection of the
        // largest one.
        if mlcg_graph::cc::is_connected(&sub) {
            recurse(
                policy,
                &sub,
                sub_k,
                label,
                coarsen_opts,
                fm,
                seed.wrapping_mul(6364136223846793005)
                    .wrapping_add(side as u64 + 1),
                out,
                &sub_ids,
            );
        } else {
            // Assign components greedily to the sub-parts by weight. This
            // never splits a component, so with fewer components than
            // sub-parts some labels would stay empty — fall back to a
            // direct vertex-level split in that case.
            let (comp, ncomp) = mlcg_graph::cc::components(&sub);
            if ncomp < sub_k {
                direct_kway_split(&sub, sub_k, label, out, &sub_ids);
                continue;
            }
            let mut loads = vec![0u64; sub_k];
            let mut comp_part = vec![0u32; ncomp];
            let mut comp_weight = vec![0u64; ncomp];
            for (i, &c) in comp.iter().enumerate() {
                comp_weight[c as usize] += sub.vwgt()[i];
            }
            let mut order: Vec<usize> = (0..ncomp).collect();
            order.sort_by_key(|&c| std::cmp::Reverse(comp_weight[c]));
            for c in order {
                let target = (0..sub_k).min_by_key(|&p| loads[p]).expect("sub_k >= 1");
                comp_part[c] = target as u32;
                loads[target] += comp_weight[c];
            }
            for (i, &c) in comp.iter().enumerate() {
                out[sub_ids[i] as usize] = label + comp_part[c as usize];
            }
        }
    }
}

/// Greedy weight-balanced direct split: assign vertices, heaviest first,
/// to the least-loaded of `k` labels (ties broken toward the lowest
/// label, so empty labels fill before any label doubles up). Ignores
/// edges entirely — this is a label-coverage fallback for cases where
/// recursive bisection cannot populate every label, not a quality path.
fn direct_kway_split(g: &Csr, k: usize, base_label: u32, out: &mut [u32], ids: &[u32]) {
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse((g.vwgt()[u], u)));
    let mut loads = vec![0u64; k];
    for u in order {
        let target = (0..k)
            .min_by_key(|&p| (loads[p], p))
            .expect("k >= 1 in direct split");
        out[ids[u] as usize] = base_label + target as u32;
        loads[target] += g.vwgt()[u];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;

    fn run(g: &Csr, k: usize) -> KwayResult {
        kway_partition(
            &ExecPolicy::serial(),
            g,
            k,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            7,
        )
    }

    #[test]
    fn four_way_grid() {
        let g = gen::grid2d(16, 16);
        let r = run(&g, 4);
        // Optimal 4-way cut of a 16x16 grid is 32 (two orthogonal cuts).
        assert!(r.cut <= 64, "4-way cut {}", r.cut);
        assert!(r.imbalance <= 1.15, "imbalance {}", r.imbalance);
        let mut used: Vec<u32> = r.part.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1, 2, 3], "all four labels used");
    }

    #[test]
    fn k_equal_one_is_trivial() {
        let g = gen::grid2d(8, 8);
        let r = run(&g, 1);
        assert_eq!(r.cut, 0);
        assert!(r.part.iter().all(|&p| p == 0));
        assert!((r.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn odd_k_uses_all_labels() {
        let g = gen::grid2d(20, 12);
        let r = run(&g, 5);
        let mut used: Vec<u32> = r.part.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 5, "labels {used:?}");
        assert!(r.imbalance <= 1.35, "imbalance {}", r.imbalance);
    }

    #[test]
    fn eight_way_mesh_balance() {
        let g = gen::grid3d(10, 10, 10, gen::Stencil::Star7);
        let r = run(&g, 8);
        assert!(r.imbalance <= 1.2, "imbalance {}", r.imbalance);
        assert_eq!(r.cut, edge_cut(&g, &r.part));
    }

    #[test]
    fn kway_on_skewed_graph() {
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 3));
        let r = run(&g, 4);
        assert!(r.imbalance <= 1.35, "imbalance {}", r.imbalance);
        assert!(r.cut > 0);
    }

    #[test]
    fn heavy_vertex_pair_uses_both_labels() {
        // One vertex carries ~99% of the weight, so no bisection can meet
        // the balance constraint and one side may come back empty. The old
        // code silently emitted a single label; the fallback must still
        // produce both.
        let mut g = mlcg_graph::builder::from_edges_weighted(2, &[(0, 1, 1)]);
        g.set_vwgt(vec![1, 100]);
        let r = run(&g, 2);
        assert_eq!(kway_empty_parts(&r.part, 2), 0, "labels {:?}", r.part);
        assert!(r.part.iter().all(|&p| p < 2));
    }

    #[test]
    fn star_with_heavy_center_uses_all_labels() {
        let mut g = gen::star(9);
        let mut vw = vec![1u64; g.n()];
        vw[0] = 1000;
        g.set_vwgt(vw);
        let r = run(&g, 4);
        assert_eq!(kway_empty_parts(&r.part, 4), 0, "labels {:?}", r.part);
        // With the center pinned in one part the other three split the
        // leaves; imbalance is dominated by the center but must be finite
        // and computed against all 4 parts.
        assert!(r.imbalance.is_finite());
    }

    #[test]
    fn more_parts_than_vertices_is_tolerated() {
        let g = gen::path(3);
        let r = run(&g, 5);
        assert!(r.part.iter().all(|&p| p < 5), "labels {:?}", r.part);
        // Exactly 3 labels can be populated; the other 2 are legitimately
        // empty and kway_imbalance must tolerate them.
        assert_eq!(kway_empty_parts(&r.part, 5), 2, "labels {:?}", r.part);
        assert!(r.imbalance.is_finite() && r.imbalance >= 1.0);
    }

    #[test]
    fn checked_imbalance_matches_on_full_partitions() {
        let g = gen::grid2d(8, 8);
        let r = run(&g, 4);
        assert_eq!(
            kway_imbalance_checked(&g, &r.part, 4),
            kway_imbalance(&g, &r.part, 4)
        );
    }

    /// The three `direct_kway_split` fallback triggers — (a) a
    /// degenerate bisection side (heavy pair), (b) a side with fewer
    /// vertices than its label budget (tiny path), (c) a disconnected
    /// side with fewer components than labels (disjoint triangles) —
    /// must all be followed by the direct refinement post-pass rather
    /// than shipping the edge-ignoring greedy assignment as-is.
    #[test]
    fn fallback_assignments_route_through_direct_refiner() {
        let mut heavy = mlcg_graph::builder::from_edges_weighted(2, &[(0, 1, 1)]);
        heavy.set_vwgt(vec![1, 100]);
        let tiny = gen::path(3);
        let tris = mlcg_graph::builder::from_edges_weighted(
            9,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
                (6, 7, 1),
                (7, 8, 1),
                (8, 6, 1),
            ],
        );
        for (g, k, empties) in [
            (&heavy, 2usize, Some(0usize)),
            (&tiny, 5, Some(2)),
            (&tris, 8, None),
        ] {
            let policy = ExecPolicy::serial();
            let baseline = kway_partition_cfg(
                &policy,
                g,
                k,
                &CoarsenOptions::default(),
                &FmConfig::default(),
                &KwayConfig {
                    direct_refine: false,
                    ..Default::default()
                },
                7,
                &TraceCollector::disabled(),
            );
            let trace = TraceCollector::enabled();
            let refined = kway_partition_cfg(
                &policy,
                g,
                k,
                &CoarsenOptions::default(),
                &FmConfig::default(),
                &KwayConfig::default(),
                7,
                &trace,
            );
            let report = trace.report();
            assert_eq!(
                report.counter("kway/direct_refine"),
                1,
                "k={k}: refiner post-pass must run on fallback output"
            );
            assert_eq!(refined.cut, edge_cut(g, &refined.part), "k={k}");
            assert!(
                refined.cut <= baseline.cut,
                "k={k}: refined {} worse than raw fallback {}",
                refined.cut,
                baseline.cut
            );
            // Refinement must not introduce label dropout beyond what the
            // recursion itself produced (exact counts pinned where the
            // recursion's outcome is determined by the graph shape).
            let expected = empties.unwrap_or_else(|| kway_empty_parts(&baseline.part, k));
            assert_eq!(
                kway_empty_parts(&refined.part, k),
                expected,
                "k={k} labels {:?}",
                refined.part
            );
        }
    }

    /// Refinement visibly repairs the quality the edge-ignoring fallback
    /// leaves on the table: two disjoint triangles split 2-ways must end
    /// with zero cut (one triangle per part), which the greedy
    /// weight-first split alone does not guarantee.
    #[test]
    fn direct_refine_fixes_the_greedy_split() {
        let g = mlcg_graph::builder::from_edges_weighted(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
            ],
        );
        let mut part = vec![0u32; g.n()];
        direct_kway_split(&g, 2, 0, &mut part, &(0..6).collect::<Vec<_>>());
        let raw = edge_cut(&g, &part);
        let cut = crate::kwayref::kway_direct_refine(
            &ExecPolicy::serial(),
            &g,
            &mut part,
            2,
            &crate::kwayref::KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        assert_eq!(cut, edge_cut(&g, &part));
        assert_eq!(cut, 0, "triangles should separate (raw fallback cut {raw})");
    }

    #[test]
    fn disabling_direct_refine_recounts_eagerly() {
        let g = gen::grid2d(10, 10);
        let r = kway_partition_cfg(
            &ExecPolicy::serial(),
            &g,
            4,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            &KwayConfig {
                direct_refine: false,
                ..Default::default()
            },
            7,
            &TraceCollector::disabled(),
        );
        assert_eq!(r.cut, edge_cut(&g, &r.part));
        assert_eq!(r.refine_seconds, 0.0);
    }

    #[test]
    fn imbalance_helper() {
        let g = gen::path(8);
        let part = vec![0, 0, 1, 1, 2, 2, 3, 3];
        assert!((kway_imbalance(&g, &part, 4) - 1.0).abs() < 1e-12);
        let lop = vec![0, 0, 0, 0, 0, 1, 2, 3];
        assert!((kway_imbalance(&g, &lop, 4) - 2.5).abs() < 1e-12);
    }
}
