//! Property-based tests for the partitioners: refinement invariants,
//! balance envelopes, and k-way label well-formedness on random connected
//! weighted graphs.
//!
//! Randomized via the dependency-free [`mlcg_par::proplite`] harness; a
//! failing case prints the seed that reproduces it.

use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::builder::from_edges_weighted;
use mlcg_graph::cc::largest_component;
use mlcg_graph::metrics::{edge_cut, part_weights};
use mlcg_graph::Csr;
use mlcg_par::proplite::{run_cases, Gen};
use mlcg_par::ExecPolicy;
use mlcg_partition::fm::{fm_refine_frac, FmConfig};
use mlcg_partition::ggg::greedy_graph_growing_frac;
use mlcg_partition::kway::{kway_imbalance, kway_partition};

fn connected_graph(g: &mut Gen) -> Csr {
    let n = g.usize_in(4, 50);
    let seed = g.u64();
    let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for v in 1..n as u32 {
        let u = rng.next_below(v as u64) as u32;
        edges.push((u, v, 1 + rng.next_below(20)));
    }
    for _ in 0..2 * n {
        let a = rng.next_below(n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        if a != b {
            edges.push((a, b, 1 + rng.next_below(20)));
        }
    }
    largest_component(&from_edges_weighted(n, &edges)).0
}

fn balanced_random_part(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
    let mut part: Vec<u32> = (0..n).map(|_| rng.next_below(2) as u32).collect();
    loop {
        let ones = part.iter().filter(|&&p| p == 1).count();
        if ones.abs_diff(n - ones) <= 1 {
            break;
        }
        let from = u32::from(ones > n - ones);
        let idx = part.iter().position(|&p| p == from).unwrap();
        part[idx] = 1 - from;
    }
    part
}

#[test]
fn fractional_fm_respects_its_target() {
    run_cases(32, 0xB1, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let frac = gen.usize_in(30, 71) as f64 / 100.0;
        let mut part = balanced_random_part(g.n(), seed);
        let cfg = FmConfig::default();
        let cut = fm_refine_frac(&g, &mut part, &cfg, frac);
        assert_eq!(cut, edge_cut(&g, &part));
        let total = g.total_vwgt();
        let (w0, w1) = part_weights(&g, &part);
        let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1);
        // Each side stays within epsilon + rounding + one vertex of its share.
        let bound0 = ((total as f64 * frac * 1.02).ceil() as u64) + max_vwgt;
        let bound1 = ((total as f64 * (1.0 - frac) * 1.02).ceil() as u64) + max_vwgt;
        assert!(w0 <= bound0, "w0 {w0} > {bound0} (frac {frac})");
        assert!(w1 <= bound1, "w1 {w1} > {bound1} (frac {frac})");
    });
}

#[test]
fn ggg_frac_hits_the_target_within_one_vertex() {
    run_cases(32, 0xB2, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let frac = gen.usize_in(25, 76) as f64 / 100.0;
        let part = greedy_graph_growing_frac(&g, seed, frac);
        let total = g.total_vwgt();
        let t0 = (total as f64 * frac).round() as u64;
        let (w0, _) = part_weights(&g, &part);
        let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1);
        assert!(w0 >= t0.min(total), "region under target: {w0} < {t0}");
        assert!(
            w0 <= t0 + max_vwgt,
            "region overshoot: {w0} > {t0} + {max_vwgt}"
        );
    });
}

/// A graph from the family the boundary-refinement issue names: grid2d,
/// rmat, path, plus the generic random connected weighted graph. The
/// returned flag marks power-law (rmat) instances, whose dense skewed
/// cores behave differently under boundary-restricted refinement.
fn boundary_suite_graph(gen: &mut Gen) -> (Csr, bool) {
    match gen.usize_in(0, 4) {
        0 => {
            let w = gen.usize_in(4, 13);
            let h = gen.usize_in(4, 13);
            (mlcg_graph::generators::grid2d(w, h), false)
        }
        1 => (
            largest_component(&mlcg_graph::generators::rmat(
                7,
                6,
                0.45,
                0.22,
                0.22,
                gen.u64(),
            ))
            .0,
            true,
        ),
        2 => (mlcg_graph::generators::path(gen.usize_in(8, 80)), false),
        _ => (connected_graph(gen), false),
    }
}

#[test]
fn boundary_fm_is_no_worse_than_full_scan() {
    // The comparison runs through the multilevel driver — the production
    // path — on the same hierarchy, initial partition, and seed, so only
    // the refinement strategy differs. (A *flat* comparison from a random
    // start is not meaningful: exhaustive full-scan FM can hill-climb
    // through interior negative-gain moves that boundary refinement by
    // design never attempts, and either side can win.)
    run_cases(32, 0xB5, |gen| {
        let (g, powerlaw) = boundary_suite_graph(gen);
        let seed = gen.u64();
        let cfg = FmConfig::default();
        let h = mlcg_coarsen::coarsen(&ExecPolicy::serial(), &g, &CoarsenOptions::default());
        let boundary_part = mlcg_partition::fm::fm_uncoarsen_frac(&h, &cfg, 0.5, seed);
        let boundary_cut = edge_cut(&g, &boundary_part);
        let (full_part, full_cut) =
            mlcg_partition::fm::fm_uncoarsen_frac_full_scan(&h, &cfg, 0.5, seed);
        // The full-scan path's incrementally maintained cut must agree
        // with a from-scratch recount (this also backs the internal
        // debug_assert, which release builds compile out).
        assert_eq!(
            full_cut,
            edge_cut(&g, &full_part),
            "incremental cut drifted"
        );
        // Structured instances: boundary refinement matches or beats the
        // full scan outright. Power-law instances get a small slack — the
        // full scan's exhaustive pass moves interior vertices too, and on
        // dense skewed cores that hill-climb occasionally lucks into a
        // slightly lower cut (a few percent), which boundary restriction
        // deliberately trades away for O(boundary) passes.
        let limit = if powerlaw {
            full_cut + (full_cut / 20).max(2)
        } else {
            full_cut
        };
        assert!(
            boundary_cut <= limit,
            "boundary-driven cut {boundary_cut} worse than full-scan {full_cut} (limit {limit})"
        );
    });
}

#[test]
fn boundary_fm_incremental_cut_matches_edge_cut() {
    run_cases(32, 0xB7, |gen| {
        let (g, _) = boundary_suite_graph(gen);
        let seed = gen.u64();
        let mut part = balanced_random_part(g.n(), seed);
        let cut = fm_refine_frac(&g, &mut part, &FmConfig::default(), 0.5);
        assert_eq!(cut, edge_cut(&g, &part), "incremental cut drifted");
    });
}

#[test]
fn boundary_fm_keeps_the_balance_envelope() {
    run_cases(24, 0xB6, |gen| {
        let (g, _) = boundary_suite_graph(gen);
        let seed = gen.u64();
        let mut part = balanced_random_part(g.n(), seed);
        let cfg = FmConfig::default();
        let cut = fm_refine_frac(&g, &mut part, &cfg, 0.5);
        assert_eq!(cut, edge_cut(&g, &part));
        let total = g.total_vwgt();
        let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1);
        let (w0, w1) = part_weights(&g, &part);
        let bound = ((total as f64 * 0.5 * (1.0 + cfg.epsilon)).ceil() as u64) + max_vwgt;
        assert!(w0.max(w1) <= bound, "weights {w0}/{w1} exceed {bound}");
    });
}

#[test]
fn kway_labels_are_complete_and_bounded() {
    run_cases(32, 0xB4, |gen| {
        let g = connected_graph(gen);
        let k = gen.usize_in(2, 6);
        let seed = gen.u64();
        let r = kway_partition(
            &ExecPolicy::serial(),
            &g,
            k,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            seed,
        );
        assert_eq!(r.part.len(), g.n());
        assert!(r.part.iter().all(|&p| (p as usize) < k));
        assert_eq!(r.cut, edge_cut(&g, &r.part));
        assert_eq!(r.imbalance, kway_imbalance(&g, &r.part, k));
        // Tiny graphs cannot always fill every label; require it only when
        // there is room.
        if g.n() >= 4 * k {
            let mut used: Vec<u32> = r.part.clone();
            used.sort_unstable();
            used.dedup();
            assert!(used.len() > k / 2, "only {} of {k} labels used", used.len());
        }
    });
}
