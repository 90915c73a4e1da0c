//! Property suite for the refinement round engine
//! (`mlcg_partition::kwayref`): direct k-way refinement, its integration
//! into `kway_partition_cfg`, and the `k = 2` split rounds the hybrid
//! bisection driver runs.
//!
//! The explicit matrix covers every test execution policy × 3 fixed
//! seeds × {grid2d, rmat, path} × k ∈ {2, 3, 5, 8} and asserts, for each
//! cell: labels in `0..k`, zero empty parts, reported cut equal to a
//! from-scratch `edge_cut`, the per-part balance envelope never worse
//! than the recursive-bisection entry, and a direct-refined cut at or
//! below the recursive-only cut. A proplite-randomized test stresses the
//! refiner alone from arbitrary (unbalanced) labelings, plus the
//! bisection rounds at part-0 shares 0.5 and 0.6 on unit and weighted
//! edges, with and without the sequential FM polish. Dedicated tests pin
//! cross-policy determinism, crossover engagement, and the serial
//! labelings bit for bit.

use mlcg_coarsen::coarsen;
use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::builder::from_edges_weighted;
use mlcg_graph::cc::largest_component;
use mlcg_graph::metrics::{edge_cut, part_weights};
use mlcg_graph::{generators, suite as corpus, Csr};
use mlcg_par::proplite::run_cases;
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::fm::{
    fm_bisect, fm_refine_boundary_traced, fm_uncoarsen_frac_hybrid, FmConfig,
};
use mlcg_partition::kway::{
    kway_empty_parts, kway_imbalance, kway_partition, kway_partition_cfg, KwayConfig, KwayResult,
};
use mlcg_partition::kwayref::{
    kway_direct_refine, kway_parallel_refine_rounds, KwayRefWorkspace, KwayRefineConfig,
};
use mlcg_partition::spectral::{spectral_bisect, SpectralConfig};

/// The three graph families the issue names, three fixed instances each.
fn suite() -> Vec<(String, Csr)> {
    let mut graphs = Vec::new();
    for (w, h) in [(10usize, 10usize), (13, 9), (16, 16)] {
        graphs.push((format!("grid2d-{w}x{h}"), generators::grid2d(w, h)));
    }
    for seed in [1u64, 2, 3] {
        let g = largest_component(&generators::rmat(7, 6, 0.45, 0.22, 0.22, seed)).0;
        graphs.push((format!("rmat-7-s{seed}"), g));
    }
    for n in [33usize, 40, 64] {
        graphs.push((format!("path-{n}"), generators::path(n)));
    }
    graphs
}

/// Mirror of the refiner's strict per-part cap (`epsilon = 0.02`, no
/// vertex slack) — written out independently so the tests pin the public
/// envelope contract, not the implementation.
fn strict_bound(g: &Csr, k: usize, epsilon: f64) -> u64 {
    let total = g.total_vwgt();
    let target = total as f64 / k as f64;
    ((target * (1.0 + epsilon)).floor() as u64).max(target.ceil() as u64)
}

/// Total weight above the strict cap, summed over parts.
fn excess(g: &Csr, part: &[u32], k: usize, bound: u64) -> u64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p as usize] += g.vwgt()[u];
    }
    w.iter().map(|&x| x.saturating_sub(bound)).sum()
}

/// Weight of the heaviest part.
fn max_part_weight(g: &Csr, part: &[u32], k: usize) -> u64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p as usize] += g.vwgt()[u];
    }
    w.into_iter().max().unwrap_or(0)
}

/// Mirror of the 2-way FM's per-side strict caps for part 0 targeting
/// `frac` of the weight (no vertex slack) — the envelope the bisection
/// rounds share with it.
fn split_bounds(g: &Csr, frac: f64, epsilon: f64) -> [u64; 2] {
    let total = g.total_vwgt();
    let t0 = ((total as f64 * frac).round() as u64).min(total);
    let side = |t: u64, share: f64| {
        (((t as f64) * (1.0 + epsilon)).floor() as u64).max((total as f64 * share).ceil() as u64)
    };
    [side(t0, frac), side(total - t0, 1.0 - frac)]
}

/// A random bisection of a unit-vertex-weight graph with exactly
/// `round(frac · n)` vertices in part 0, so the entry is feasible.
fn split_start(n: usize, frac: f64, seed: u64) -> Vec<u32> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.next_below((i + 1) as u64) as usize);
    }
    let t0 = (n as f64 * frac).round() as usize;
    let mut part = vec![1u32; n];
    for &u in &order[..t0] {
        part[u] = 0;
    }
    part
}

/// `g` with random edge weights in `1..=20`, so the interference terms
/// of simultaneous movers carry weight.
fn reweighted(g: &Csr, seed: u64) -> Csr {
    let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
    let mut edges = Vec::new();
    for u in 0..g.n() as u32 {
        for (v, _) in g.edges(u) {
            if u < v {
                edges.push((u, v, 1 + rng.next_below(20)));
            }
        }
    }
    from_edges_weighted(g.n(), &edges)
}

/// Every vertex with a cut edge.
fn boundary(g: &Csr, part: &[u32]) -> Vec<u32> {
    (0..g.n() as u32)
        .filter(|&u| {
            g.edges(u)
                .any(|(v, _)| part[u as usize] != part[v as usize])
        })
        .collect()
}

fn run(policy: &ExecPolicy, g: &Csr, k: usize, direct: bool, seed: u64) -> KwayResult {
    let cfg = KwayConfig {
        direct_refine: direct,
        ..Default::default()
    };
    kway_partition_cfg(
        policy,
        g,
        k,
        &CoarsenOptions::default(),
        &FmConfig::default(),
        &cfg,
        seed,
        &TraceCollector::disabled(),
    )
}

#[test]
fn matrix_direct_refinement_dominates_recursive_bisection() {
    let eps = FmConfig::default().epsilon;
    for (name, g) in suite() {
        for k in [2usize, 3, 5, 8] {
            let bound = strict_bound(&g, k, eps);
            for seed in [3u64, 11, 42] {
                for policy in ExecPolicy::all_test_policies() {
                    let base = run(&policy, &g, k, false, seed);
                    let refined = run(&policy, &g, k, true, seed);
                    let ctx = format!("{name} k={k} seed={seed} {policy}");

                    assert!(
                        refined.part.iter().all(|&p| (p as usize) < k),
                        "{ctx}: label out of range"
                    );
                    assert_eq!(
                        kway_empty_parts(&refined.part, k),
                        0,
                        "{ctx}: empty part (labels {:?})",
                        refined.part
                    );
                    assert_eq!(
                        refined.cut,
                        edge_cut(&g, &refined.part),
                        "{ctx}: reported cut drifted"
                    );
                    assert_eq!(
                        refined.imbalance,
                        kway_imbalance(&g, &refined.part, k),
                        "{ctx}: reported imbalance drifted"
                    );
                    // Quality contract of the entry-slack post-pass: the
                    // direct-refined cut is at or below the recursive
                    // cut, unconditionally, and no part ever outgrows
                    // max(epsilon cap, heaviest recursive part) — so a
                    // balance-feasible recursive entry stays feasible and
                    // an infeasible one (the bisection cascade compounds
                    // its per-level epsilon) never gets worse.
                    assert!(
                        refined.cut <= base.cut,
                        "{ctx}: refined cut {} worse than recursive {}",
                        refined.cut,
                        base.cut
                    );
                    let cap = bound.max(max_part_weight(&g, &base.part, k));
                    assert!(
                        max_part_weight(&g, &refined.part, k) <= cap,
                        "{ctx}: a part outgrew the envelope (cap {cap})"
                    );
                    if excess(&g, &base.part, k, bound) == 0 {
                        assert_eq!(
                            excess(&g, &refined.part, k, bound),
                            0,
                            "{ctx}: envelope violation (bound {bound})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn refiner_is_sound_from_arbitrary_labelings() {
    // The refiner alone, from random (generally unbalanced) k-labelings,
    // in both balance postures. With entry slack (the default) the cut
    // never ends worse and no part outgrows max(eps cap, entry max);
    // in repair mode (absolute eps cap) the lexicographic (excess, cut)
    // key never ends worse than the entry. Either way the incremental
    // cut stays exact and no part is emptied.
    //
    // Each case also runs the bisection rounds (k = 2 with a part-0
    // share) from a feasible start on the same graph, unit and weighted:
    // seeded with the boundary plus random interior extras, the rounds
    // never worsen the cut, track it exactly, return a frontier that
    // covers the final boundary and keep the strict per-side envelope,
    // with and without the seeded FM polish. One workspace serves every
    // graph and policy; the engine is deterministic, so each result must
    // equal a fresh-workspace serial run bit for bit.
    let eps = FmConfig::default().epsilon;
    let off = TraceCollector::disabled();
    let mut shared = KwayRefWorkspace::new();
    let empty = Csr::empty();
    let out = kway_parallel_refine_rounds(
        &ExecPolicy::host(),
        &empty,
        &mut [],
        2,
        Some(0.5),
        &KwayRefineConfig::default(),
        None,
        &mut shared,
        &off,
    );
    assert_eq!((out.cut, out.rounds), (0, 0), "empty graph");
    run_cases(24, 0xD1, |gen| {
        let pick = gen.usize_in(0, 3);
        let g = match pick {
            0 => generators::grid2d(gen.usize_in(4, 13), gen.usize_in(4, 13)),
            1 => largest_component(&generators::rmat(7, 6, 0.45, 0.22, 0.22, gen.u64())).0,
            _ => generators::path(gen.usize_in(8, 80)),
        };
        let k = gen.usize_in(2, 9);
        let seed = gen.u64();
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
        let part0: Vec<u32> = (0..g.n())
            .map(|_| rng.next_below(k as u64) as u32)
            .collect();
        let bound = strict_bound(&g, k, KwayRefineConfig::default().epsilon);
        let cut0 = edge_cut(&g, &part0);
        let cap = bound.max(max_part_weight(&g, &part0, k));
        let entry = (excess(&g, &part0, k, bound), cut0);
        let empties0 = kway_empty_parts(&part0, k);
        for policy in ExecPolicy::all_test_policies() {
            let cfg = KwayRefineConfig::default();
            let mut p = part0.clone();
            let cut = kway_direct_refine(&policy, &g, &mut p, k, &cfg, &TraceCollector::disabled());
            assert_eq!(cut, edge_cut(&g, &p), "{policy}: incremental cut drifted");
            assert!(cut <= cut0, "{policy}: cut worsened {cut0} -> {cut}");
            assert!(
                max_part_weight(&g, &p, k) <= cap,
                "{policy}: a part outgrew the entry-slack cap {cap}"
            );
            assert!(
                kway_empty_parts(&p, k) <= empties0,
                "{policy}: refinement emptied a part"
            );

            let repair = KwayRefineConfig {
                entry_slack: false,
                ..Default::default()
            };
            let mut p = part0.clone();
            let cut =
                kway_direct_refine(&policy, &g, &mut p, k, &repair, &TraceCollector::disabled());
            assert_eq!(cut, edge_cut(&g, &p), "{policy}: repair-mode cut drifted");
            let key = (excess(&g, &p, k, bound), cut);
            assert!(
                key <= entry,
                "{policy}: repair ended worse than entry ({key:?} > {entry:?})"
            );
            assert!(
                kway_empty_parts(&p, k) <= empties0,
                "{policy}: repair emptied a part"
            );
        }

        for (edges, gs) in [("unit", g.clone()), ("weighted", reweighted(&g, seed))] {
            for frac in [0.5, 0.6] {
                let ctx = format!("{edges} split {frac}");
                let part0 = split_start(gs.n(), frac, seed);
                let before = edge_cut(&gs, &part0);
                let bound = split_bounds(&gs, frac, eps);
                let mut seed_frontier = boundary(&gs, &part0);
                for _ in 0..gs.n() / 4 {
                    seed_frontier.push(rng.next_below(gs.n() as u64) as u32);
                }
                let cfg = KwayRefineConfig {
                    entry_slack: false,
                    ..Default::default()
                };
                let rounds = |policy: &ExecPolicy, p: &mut [u32], ws: &mut KwayRefWorkspace| {
                    kway_parallel_refine_rounds(
                        policy,
                        &gs,
                        p,
                        2,
                        Some(frac),
                        &cfg,
                        Some(&seed_frontier),
                        ws,
                        &off,
                    )
                };
                let mut reference = part0.clone();
                rounds(
                    &ExecPolicy::serial(),
                    &mut reference,
                    &mut KwayRefWorkspace::new(),
                );
                for policy in ExecPolicy::all_test_policies() {
                    let mut p = part0.clone();
                    let out = rounds(&policy, &mut p, &mut shared);
                    assert_eq!(
                        p, reference,
                        "{ctx} {policy}: labels depend on workspace or policy"
                    );
                    assert_eq!(out.cut, edge_cut(&gs, &p), "{ctx} {policy}: cut drifted");
                    assert!(
                        out.cut <= before,
                        "{ctx} {policy}: worsened {before} -> {}",
                        out.cut
                    );
                    let mut in_f = vec![false; gs.n()];
                    for &u in &out.frontier {
                        in_f[u as usize] = true;
                    }
                    assert!(
                        boundary(&gs, &p).iter().all(|&u| in_f[u as usize]),
                        "{ctx} {policy}: frontier misses a boundary vertex"
                    );
                    let (w0, w1) = part_weights(&gs, &p);
                    assert!(
                        w0 <= bound[0] && w1 <= bound[1],
                        "{ctx} {policy}: weights {w0}/{w1} exceed {bound:?}"
                    );

                    let fm = FmConfig::default();
                    let polished = fm_refine_boundary_traced(
                        &gs,
                        &mut p,
                        &fm,
                        frac,
                        Some(&out.frontier),
                        &off,
                    );
                    assert_eq!(
                        polished.cut,
                        edge_cut(&gs, &p),
                        "{ctx} {policy}: polish drifted"
                    );
                    assert!(polished.cut <= out.cut, "{ctx} {policy}: polish worsened");
                    let (w0, w1) = part_weights(&gs, &p);
                    assert!(
                        w0 <= bound[0] && w1 <= bound[1],
                        "{ctx} {policy}: polished weights {w0}/{w1} exceed {bound:?}"
                    );
                }
            }
        }
    });
}

#[test]
fn hybrid_bisection_is_deterministic_across_parallel_policies() {
    // The bisection rounds share the k-way engine's sequential selection,
    // so on one fixed hierarchy (coarsened serially: HEC's CAS races make
    // parallel coarsening itself schedule-dependent) the hybrid driver
    // with the crossover forced on every level must give Host and
    // DeviceSim the same labels. The `kwayref/rounds` counter shows the
    // rounds ran; a serial policy never takes the parallel path.
    let g = generators::grid2d(64, 64);
    let h = coarsen(&ExecPolicy::serial(), &g, &CoarsenOptions::default());
    let fm = FmConfig::default();
    let rounds = KwayRefineConfig {
        crossover_frontier: Some(1),
        ..Default::default()
    };
    for frac in [0.5, 0.6] {
        let run = |policy: &ExecPolicy| {
            let trace = TraceCollector::enabled();
            let part = fm_uncoarsen_frac_hybrid(policy, &h, &fm, &rounds, frac, 42, &trace);
            (part, trace.report().counter("kwayref/rounds"))
        };
        let (host, host_rounds) = run(&ExecPolicy::host());
        let (sim, sim_rounds) = run(&ExecPolicy::device_sim());
        assert!(
            host_rounds > 0,
            "split {frac}: hybrid driver never ran a round"
        );
        assert_eq!(
            host_rounds, sim_rounds,
            "split {frac}: round counts diverged"
        );
        assert_eq!(
            host, sim,
            "split {frac}: Host and DeviceSim labels diverged"
        );

        let cut = edge_cut(&g, &host);
        assert!(
            cut > 0 && cut <= 256,
            "split {frac}: implausible grid cut {cut}"
        );
        let bound = split_bounds(&g, frac, fm.epsilon);
        let (w0, w1) = part_weights(&g, &host);
        assert!(
            w0 <= bound[0] && w1 <= bound[1],
            "split {frac}: weights {w0}/{w1} exceed {bound:?}"
        );

        let (_, serial_rounds) = run(&ExecPolicy::serial());
        assert_eq!(
            serial_rounds, 0,
            "serial policy must not take the parallel path"
        );
    }
}

#[test]
fn kway_partition_is_deterministic_across_parallel_policies() {
    // The round engine's sequential selection phase makes the mover set a
    // pure function of (graph, partition, round) — so with the crossover
    // forced on, Host and DeviceSim must agree bit-for-bit.
    let g = generators::grid2d(32, 32);
    for k in [3usize, 8] {
        let cfg = KwayConfig {
            direct_refine: true,
            refine: KwayRefineConfig {
                crossover_frontier: Some(1),
                ..Default::default()
            },
        };
        let mut results: Vec<KwayResult> = Vec::new();
        for policy in [ExecPolicy::host(), ExecPolicy::device_sim()] {
            results.push(kway_partition_cfg(
                &policy,
                &g,
                k,
                &CoarsenOptions::default(),
                &FmConfig::default(),
                &cfg,
                9,
                &TraceCollector::disabled(),
            ));
        }
        assert_eq!(
            results[0].part, results[1].part,
            "k={k}: Host and DeviceSim labelings diverged"
        );
        assert_eq!(results[0].cut, results[1].cut, "k={k}: cuts diverged");
    }
}

#[test]
fn crossover_runs_kway_rounds_under_a_parallel_policy() {
    let g = generators::grid2d(32, 32);
    let cfg = KwayConfig {
        direct_refine: true,
        refine: KwayRefineConfig {
            crossover_frontier: Some(1),
            ..Default::default()
        },
    };
    let trace = TraceCollector::enabled();
    let r = kway_partition_cfg(
        &ExecPolicy::host(),
        &g,
        8,
        &CoarsenOptions::default(),
        &FmConfig::default(),
        &cfg,
        9,
        &trace,
    );
    let report = trace.report();
    assert!(
        report.counter("kwayref/rounds") > 0,
        "forced crossover must run k-way parallel rounds"
    );
    assert_eq!(report.counter("kway/direct_refine"), 1);
    assert_eq!(r.cut, edge_cut(&g, &r.part));

    // A serial policy must stay on the dispatch-free sequential path.
    let trace_seq = TraceCollector::enabled();
    kway_partition_cfg(
        &ExecPolicy::serial(),
        &g,
        8,
        &CoarsenOptions::default(),
        &FmConfig::default(),
        &cfg,
        9,
        &trace_seq,
    );
    assert_eq!(
        trace_seq.report().counter("kwayref/rounds"),
        0,
        "serial policy must not take the parallel path"
    );
}

/// FNV-1a over the little-endian label bytes: a compact fingerprint for
/// bit-identity pins.
fn label_hash(part: &[u32]) -> u64 {
    part.iter()
        .flat_map(|p| p.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn serial_labelings_are_pinned() {
    // Under `ExecPolicy::serial()` no parallel refinement round ever runs
    // (the crossover needs a parallel backend), so a change to the round
    // engine must leave these labelings bit-identical. The fingerprints
    // cover the 2-way FM driver, recursive k-way with its post-pass
    // (k = 3 splits 2/3 then 1/2), and the FM-polished spectral bisection.
    let policy = ExecPolicy::serial();
    let opts = CoarsenOptions::default();
    let polished = SpectralConfig {
        fm_polish: Some(FmConfig::default()),
        ..Default::default()
    };
    let mut got: Vec<(String, u64)> = Vec::new();
    for ng in corpus::mini_suite(13) {
        let g = &ng.graph;
        let fm = fm_bisect(&policy, g, &opts, &FmConfig::default(), 7);
        got.push((format!("{}/fm_bisect", ng.name), label_hash(&fm.part)));
        for k in [3usize, 8] {
            let kw = kway_partition(&policy, g, k, &opts, &FmConfig::default(), 7);
            got.push((format!("{}/kway{k}", ng.name), label_hash(&kw.part)));
        }
        let sp = spectral_bisect(&policy, g, &opts, &polished, 7);
        got.push((format!("{}/spectral_fm", ng.name), label_hash(&sp.part)));
    }
    let want: Vec<(String, u64)> = [
        ("delaunay/fm_bisect", 0x8332959f0cf2ed65),
        ("delaunay/kway3", 0x1f9b1a6fc2504624),
        ("delaunay/kway8", 0x4f6d85251f7637d6),
        ("delaunay/spectral_fm", 0x2dcb080b22af3695),
        ("kron/fm_bisect", 0x6240310c0b1c6204),
        ("kron/kway3", 0x4c50e37f3e658b74),
        ("kron/kway8", 0xe3d57ba6f1bfa990),
        ("kron/spectral_fm", 0x96c8feab698d45e4),
    ]
    .iter()
    .map(|&(name, h)| (name.to_string(), h))
    .collect();
    assert_eq!(got, want, "serial labelings changed");
}
