//! End-to-end benchmark of the multilevel pipeline the `mlcg` CLI runs:
//! a graph file on disk → streamed ingest → largest component →
//! `kway_partition`, `fm_bisect` or `coarsen` → validated labels or
//! hierarchy.
//!
//! Two kinds of op run the same problem:
//!
//! - [`run_op`] makes the calls the CLI makes, with nothing timed inside;
//!   it gives the end-to-end metrics.
//! - [`run_traced`] makes the public calls one layer at a time and times
//!   each from here, producing a [`Layers`] ledger whose rows plus
//!   [`Layers::residual_s`] add up to its wall time. The program itself
//!   carries no extra spans for this.
//!
//! Validation ([`validate`]) is never inside a timed region.

use mlcg_coarsen::{
    audit_hierarchy, coarsen, CoarsenOptions, ConstructMethod, ConstructOptions, Hierarchy,
    MapMethod,
};
use mlcg_graph::io;
use mlcg_graph::metrics::{edge_cut, imbalance};
use mlcg_graph::stream::{IngestOptions, IngestStats};
use mlcg_graph::{cc, suite, Csr};
use mlcg_par::{mem, ExecPolicy, TraceCollector, TraceConfig};
use mlcg_partition::{
    fm::fm_uncoarsen_frac_traced, fm_bisect, kway_direct_refine, kway_empty_parts, kway_imbalance,
    kway_partition, kway_partition_cfg, FmConfig, KwayConfig, KwayRefineConfig, PartitionResult,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CLI's default `--seed`, used for every op; the workload seed only
/// changes the generated input.
pub const OP_SEED: u64 = 42;

/// What the pipeline produces after the LCC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// `mlcg kway -k <k>`.
    Kway(usize),
    /// `mlcg bisect --refine fm`.
    Bisect,
    /// `mlcg coarsen`: the hierarchy only.
    Coarsen,
}

/// On-disk input format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// METIS `.graph`.
    Metis,
    /// MatrixMarket `.mtx`.
    MatrixMarket,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Metis => "graph",
            Format::MatrixMarket => "mtx",
        }
    }
}

/// One benchmark workload: a corpus graph written to disk, and the CLI
/// command run on it.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// `mlcg_graph::suite::by_name` graph.
    pub graph: &'static str,
    /// Corpus scale (each step doubles `n`).
    pub scale: u32,
    /// Format of the file the pipeline reads.
    pub format: Format,
    /// Command run on the file.
    pub task: Task,
    /// `--method`.
    pub method: MapMethod,
    /// `--construction`.
    pub construction: ConstructMethod,
    /// The CLI command this workload stands for.
    pub command: &'static str,
}

/// Every workload. Why each exists is in `e2ebench/README.md`, which also
/// says why `BENCHMARK.json` leaves `skew-coarsen-gosh` out.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "mesh-kway8",
            graph: "delaunay",
            scale: 3,
            format: Format::Metis,
            task: Task::Kway(8),
            method: MapMethod::Hec,
            construction: ConstructMethod::Hybrid,
            command: "mlcg kway <file>.graph -k 8 --construction hybrid --policy serial",
        },
        Workload {
            name: "skew-bisect",
            graph: "kron",
            scale: 1,
            format: Format::MatrixMarket,
            task: Task::Bisect,
            method: MapMethod::Hec,
            construction: ConstructMethod::Sort,
            command: "mlcg bisect <file>.mtx --refine fm --policy serial",
        },
        Workload {
            name: "skew-coarsen-gosh",
            graph: "kron",
            scale: 0,
            format: Format::MatrixMarket,
            task: Task::Coarsen,
            method: MapMethod::Gosh,
            construction: ConstructMethod::Sort,
            command: "mlcg coarsen <file>.mtx --method gosh --policy serial",
        },
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The options `mlcg` builds from this workload's flags.
    pub fn coarsen_options(&self) -> CoarsenOptions {
        CoarsenOptions {
            method: self.method,
            construction: ConstructOptions::with_method(self.construction),
            seed: OP_SEED,
            ..Default::default()
        }
    }

    /// The same workload on a smaller or larger corpus graph.
    pub fn at_scale(&self, scale: u32) -> Workload {
        Workload {
            scale,
            ..self.clone()
        }
    }
}

/// A generated input file.
#[derive(Clone, Debug)]
pub struct Input {
    /// Where it was written.
    pub path: PathBuf,
    /// Vertices of the generated graph.
    pub n: usize,
    /// Undirected edges of the generated graph.
    pub m: usize,
    /// File size.
    pub bytes: u64,
}

/// Generate the workload's graph from `seed` and write it into `dir`.
pub fn write_input(wl: &Workload, seed: u64, dir: &Path) -> std::io::Result<Input> {
    let g = suite::by_name(wl.graph, wl.scale, seed).expect("workload names a corpus graph");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-{seed}-{}.{}",
        wl.name,
        std::process::id(),
        wl.format.extension()
    ));
    match wl.format {
        Format::Metis => io::write_metis(&g, &path)?,
        Format::MatrixMarket => io::write_matrix_market(&g, &path)?,
    }
    Ok(Input {
        bytes: std::fs::metadata(&path)?.len(),
        path,
        n: g.n(),
        m: g.m(),
    })
}

/// The program's result, kept for validation.
pub enum Output {
    /// Labels from `kway` or `bisect`, with the values the partitioner
    /// reported for them.
    Partition {
        /// Part label per vertex of the LCC.
        part: Vec<u32>,
        /// Number of parts asked for.
        k: usize,
        /// Reported cut.
        cut: u64,
        /// Reported imbalance.
        imbalance: f64,
    },
    /// The hierarchy from `coarsen`.
    Hierarchy(Box<Hierarchy>),
}

/// One finished op: the LCC the output refers to, and the output.
pub struct Done {
    /// The largest component the partitioner or coarsener ran on.
    pub graph: Csr,
    /// What it produced.
    pub output: Output,
}

fn ingest(policy: &ExecPolicy, path: &Path) -> std::io::Result<(Csr, IngestStats)> {
    let opts = IngestOptions {
        policy: policy.clone(),
        ..Default::default()
    };
    io::ingest_auto(path, &opts)
}

/// One untraced op: the calls `mlcg` makes for this workload.
pub fn run_op(policy: &ExecPolicy, wl: &Workload, path: &Path) -> std::io::Result<Done> {
    let (g, _) = ingest(policy, path)?;
    let (lcc, _) = cc::largest_component(&g);
    drop(g);
    let copts = wl.coarsen_options();
    let fm = FmConfig::default();
    let output = match wl.task {
        Task::Kway(k) => {
            let r = kway_partition(policy, &lcc, k, &copts, &fm, OP_SEED);
            Output::Partition {
                part: r.part,
                k,
                cut: r.cut,
                imbalance: r.imbalance,
            }
        }
        Task::Bisect => {
            let r = fm_bisect(policy, &lcc, &copts, &fm, OP_SEED);
            Output::Partition {
                part: r.part,
                k: 2,
                cut: r.cut,
                imbalance: r.imbalance,
            }
        }
        Task::Coarsen => Output::Hierarchy(Box::new(coarsen(policy, &lcc, &copts))),
    };
    Ok(Done { graph: lcc, output })
}

/// Per-layer figures of one traced op. Layers a workload does not run
/// read 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Wall time from file to output.
    pub wall_s: f64,
    /// `ingest_auto` time.
    pub ingest_s: f64,
    /// File bytes over `ingest_s`.
    pub ingest_bytes_per_s: f64,
    /// Heap the calling thread needed above its entry level during ingest.
    pub ingest_peak_bytes: f64,
    /// Raw edges the reader yielded.
    pub ingest_edges_streamed: f64,
    /// `largest_component` time.
    pub lcc_s: f64,
    /// Σ `CoarsenStats::map_seconds`.
    pub map_s: f64,
    /// Level-0 mapping seconds.
    pub map_level0_s: f64,
    /// Σ `Level::map_stats.passes`.
    pub map_passes: f64,
    /// Σ `CoarsenStats::construct_seconds`.
    pub construct_s: f64,
    /// Level-0 construction seconds.
    pub construct_level0_s: f64,
    /// Σ coarse-level `m`.
    pub construct_edges_out: f64,
    /// The `coarsen()` call.
    pub coarsen_s: f64,
    /// `coarsen_s` − `map_s` − `construct_s`: driver clones, and the
    /// mapping and construction of a final level the driver discards.
    pub coarsen_residual_s: f64,
    /// Hierarchy levels.
    pub coarsen_levels: f64,
    /// `Hierarchy::avg_coarsening_ratio`.
    pub coarsen_ratio: f64,
    /// Calling-thread heap peak during `coarsen()`.
    pub coarsen_peak_bytes: f64,
    /// `fm_uncoarsen_frac_traced`: initial partition, then per-level
    /// projection and refinement.
    pub uncoarsen_s: f64,
    /// Calling-thread heap peak during uncoarsening.
    pub uncoarsen_peak_bytes: f64,
    /// Recursive bisection (`kway_partition_cfg` without the post-pass).
    pub kway_recurse_s: f64,
    /// Cut after recursive bisection.
    pub kway_recurse_cut: f64,
    /// `kway_direct_refine` on the recursive labels.
    pub kway_postpass_s: f64,
    /// Cut reduction by the post-pass over the recursive cut.
    pub kway_postpass_gain: f64,
    /// False when the `map`/`construct`/`coarsen` figures come from an
    /// extra top-level `coarsen()` outside the wall time (k-way, whose
    /// recursion hides the sub-bisections' hierarchies).
    pub hierarchy_in_ledger: bool,
}

impl Layers {
    /// The disjoint timed rows inside `wall_s`, in pipeline order.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows = vec![("ingest.s", self.ingest_s), ("lcc.s", self.lcc_s)];
        if self.hierarchy_in_ledger {
            rows.extend([
                ("map.s", self.map_s),
                ("construct.s", self.construct_s),
                ("coarsen.residual_s", self.coarsen_residual_s),
            ]);
        }
        rows.extend([
            ("uncoarsen.s", self.uncoarsen_s),
            ("kway.recurse_s", self.kway_recurse_s),
            ("kway.postpass_s", self.kway_postpass_s),
        ]);
        rows
    }

    /// Wall time not covered by any row.
    pub fn residual_s(&self) -> f64 {
        self.wall_s - self.rows().iter().map(|(_, s)| s).sum::<f64>()
    }

    fn record_hierarchy(&mut self, h: &Hierarchy, coarsen_s: f64, peak_bytes: u64) {
        let st = &h.stats;
        self.map_s = st.map_seconds.iter().sum();
        self.map_level0_s = st.map_seconds.first().copied().unwrap_or(0.0);
        self.map_passes = h.levels.iter().map(|l| l.map_stats.passes as f64).sum();
        self.construct_s = st.construct_seconds.iter().sum();
        self.construct_level0_s = st.construct_seconds.first().copied().unwrap_or(0.0);
        self.construct_edges_out = h.levels.iter().map(|l| l.graph.m() as f64).sum();
        self.coarsen_s = coarsen_s;
        self.coarsen_residual_s = coarsen_s - self.map_s - self.construct_s;
        self.coarsen_levels = h.num_levels() as f64;
        self.coarsen_ratio = h.avg_coarsening_ratio();
        self.coarsen_peak_bytes = peak_bytes as f64;
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn timed_heap<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    let t = Instant::now();
    let (r, heap) = mem::measure(f);
    (r, t.elapsed().as_secs_f64(), heap.peak_bytes)
}

/// One traced op: [`run_op`]'s work, one public call per layer, each
/// timed from here.
pub fn run_traced(
    policy: &ExecPolicy,
    wl: &Workload,
    path: &Path,
) -> std::io::Result<(Done, Layers)> {
    let mut l = Layers {
        hierarchy_in_ledger: !matches!(wl.task, Task::Kway(_)),
        ..Default::default()
    };
    let bytes = std::fs::metadata(path)?.len();
    let copts = wl.coarsen_options();
    let fm = FmConfig::default();
    let off = TraceCollector::disabled();
    let wall = Instant::now();

    let (ingested, ingest_s, ingest_peak) = timed_heap(|| ingest(policy, path));
    let (g, stats) = ingested?;
    l.ingest_s = ingest_s;
    l.ingest_bytes_per_s = bytes as f64 / ingest_s;
    l.ingest_peak_bytes = ingest_peak as f64;
    l.ingest_edges_streamed = stats.edges_streamed as f64;
    let ((lcc, _), lcc_s) = timed(|| cc::largest_component(&g));
    l.lcc_s = lcc_s;
    drop(g);

    let output = match wl.task {
        Task::Kway(k) => {
            let cfg = KwayConfig {
                direct_refine: false,
                refine: KwayRefineConfig {
                    epsilon: fm.epsilon,
                    vertex_slack: fm.vertex_slack,
                    ..Default::default()
                },
            };
            let (r, recurse_s) =
                timed(|| kway_partition_cfg(policy, &lcc, k, &copts, &fm, &cfg, OP_SEED, &off));
            let mut part = r.part;
            let (cut, postpass_s) =
                timed(|| kway_direct_refine(policy, &lcc, &mut part, k, &cfg.refine, &off));
            l.kway_recurse_s = recurse_s;
            l.kway_recurse_cut = r.cut as f64;
            l.kway_postpass_s = postpass_s;
            l.kway_postpass_gain = (r.cut as f64 - cut as f64) / r.cut.max(1) as f64;
            let imbalance = kway_imbalance(&lcc, &part, k);
            Output::Partition {
                part,
                k,
                cut,
                imbalance,
            }
        }
        Task::Bisect => {
            let (h, coarsen_s, coarsen_peak) = timed_heap(|| coarsen(policy, &lcc, &copts));
            l.record_hierarchy(&h, coarsen_s, coarsen_peak);
            let (part, uncoarsen_s, uncoarsen_peak) = timed_heap(|| {
                fm_uncoarsen_frac_traced(policy, &h, &fm, 0.5, OP_SEED, &copts.trace)
            });
            l.uncoarsen_s = uncoarsen_s;
            l.uncoarsen_peak_bytes = uncoarsen_peak as f64;
            let r = PartitionResult::new(&lcc, part, coarsen_s, uncoarsen_s, h.num_levels());
            Output::Partition {
                part: r.part,
                k: 2,
                cut: r.cut,
                imbalance: r.imbalance,
            }
        }
        Task::Coarsen => {
            let (h, coarsen_s, coarsen_peak) = timed_heap(|| coarsen(policy, &lcc, &copts));
            l.record_hierarchy(&h, coarsen_s, coarsen_peak);
            Output::Hierarchy(Box::new(h))
        }
    };
    l.wall_s = wall.elapsed().as_secs_f64();

    if !l.hierarchy_in_ledger {
        // The top-level bisection's hierarchy, rebuilt outside the wall.
        let (h, coarsen_s, coarsen_peak) = timed_heap(|| coarsen(policy, &lcc, &copts));
        l.record_hierarchy(&h, coarsen_s, coarsen_peak);
    }
    Ok((Done { graph: lcc, output }, l))
}

/// Output quality of a validated op.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    /// Cut over total edge weight. For a hierarchy, the cut of the level-1
    /// aggregation: coarse-graph edge weight over fine edge weight.
    pub cut_frac: f64,
    /// Heaviest part over the ideal part weight. For a hierarchy, the
    /// heaviest level-1 aggregate over the mean aggregate weight.
    pub imbalance: f64,
}

/// Check an op's output against recounts; `Err` names the first broken
/// condition.
pub fn validate(policy: &ExecPolicy, done: &Done) -> Result<Quality, String> {
    let g = &done.graph;
    let total_ew = g.total_edge_weight().max(1) as f64;
    match &done.output {
        Output::Partition {
            part,
            k,
            cut,
            imbalance: reported,
        } => {
            let k = *k;
            if part.len() != g.n() {
                return Err(format!("{} labels for {} vertices", part.len(), g.n()));
            }
            if let Some(u) = part.iter().position(|&p| p as usize >= k) {
                return Err(format!("vertex {u} has label {} >= k = {k}", part[u]));
            }
            let empty = kway_empty_parts(part, k);
            if empty > 0 {
                return Err(format!("{empty} of {k} parts are empty"));
            }
            let recount = edge_cut(g, part);
            if *cut != recount {
                return Err(format!("reported cut {cut} != recount {recount}"));
            }
            let imb = if k == 2 {
                imbalance(g, part)
            } else {
                kway_imbalance(g, part, k)
            };
            if *reported != imb {
                return Err(format!("reported imbalance {reported} != recount {imb}"));
            }
            if k == 2 {
                // `fm_bisect_frac`'s balance cap at frac = 0.5.
                let eps = FmConfig::default().epsilon;
                let total = g.total_vwgt().max(1) as f64;
                let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1) as f64;
                let cap = (1.0 + eps) + 2.0 * max_vwgt / total + 1e-9;
                if imb > cap {
                    return Err(format!("imbalance {imb} exceeds the bisection cap {cap}"));
                }
            }
            Ok(Quality {
                cut_frac: recount as f64 / total_ew,
                imbalance: imb,
            })
        }
        Output::Hierarchy(h) => {
            if h.fine.n() != g.n() || h.fine.m() != g.m() {
                return Err("hierarchy's fine graph is not the input LCC".to_string());
            }
            let Some(first) = h.levels.first() else {
                return Err("no coarsening level was produced".to_string());
            };
            let trace = TraceCollector::with_config(TraceConfig {
                enabled: false,
                validate: true,
            });
            audit_hierarchy(policy, &trace, h);
            let report = trace.report();
            if let Some(a) = report.failed_audits().first() {
                return Err(format!("audit {} / {}: {}", a.phase, a.check, a.detail));
            }
            let fine_vw = g.total_vwgt();
            for (i, level) in h.levels.iter().enumerate() {
                let vw = level.graph.total_vwgt();
                if vw != fine_vw {
                    return Err(format!("level {} vertex weight {vw} != {fine_vw}", i + 1));
                }
            }
            let coarse = &first.graph;
            let heaviest = coarse.vwgt().iter().copied().max().unwrap_or(0) as f64;
            Ok(Quality {
                cut_frac: coarse.total_edge_weight() as f64 / total_ew,
                imbalance: heaviest * coarse.n() as f64 / fine_vw.max(1) as f64,
            })
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least 10 samples above it, as
/// `(value, percentile, samples_above)`. With 10 or fewer samples no such
/// statistic exists and the lowest sample is returned, with the count
/// above it that it does have.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    let rank = n.saturating_sub(10).max(1);
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n - rank)
}

/// Whether a metric improves upward or downward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit in the result JSON.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("e2e_s", "s", Better::Lower, 0.25),
    e2e("e2e_tail_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_heap_bytes", "B", Better::Lower, 0.05),
    e2e("cut_frac", "ratio", Better::Lower, 0.15),
    e2e("imbalance", "ratio", Better::Lower, 0.05),
    e2e("pass_frac", "ratio", Better::Higher, 0.01),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("ingest.s", "s", Better::Lower),
    layer("ingest.bytes_per_s", "B/s", Better::Higher),
    layer("ingest.peak_bytes", "B", Better::Lower),
    layer("ingest.edges_streamed", "count", Better::Lower),
    layer("lcc.s", "s", Better::Lower),
    layer("map.s", "s", Better::Lower),
    layer("map.level0_s", "s", Better::Lower),
    layer("map.passes", "count", Better::Lower),
    layer("construct.s", "s", Better::Lower),
    layer("construct.level0_s", "s", Better::Lower),
    layer("construct.edges_out", "count", Better::Lower),
    layer("coarsen.s", "s", Better::Lower),
    layer("coarsen.residual_s", "s", Better::Lower),
    layer("coarsen.levels", "count", Better::Lower),
    layer("coarsen.ratio", "ratio", Better::Higher),
    layer("coarsen.peak_bytes", "B", Better::Lower),
    layer("uncoarsen.s", "s", Better::Lower),
    layer("uncoarsen.peak_bytes", "B", Better::Lower),
    layer("kway.recurse_s", "s", Better::Lower),
    layer("kway.recurse_cut", "count", Better::Lower),
    layer("kway.postpass_s", "s", Better::Lower),
    layer("kway.postpass_gain", "ratio", Better::Higher),
    layer("e2e.residual_s", "s", Better::Lower),
    layer("trace.overhead", "ratio", Better::Lower),
    layer("host.e2e_s", "s", Better::Lower),
    layer("par.speedup", "ratio", Better::Higher),
];

impl Layers {
    /// Value of every [`PER_LAYER`] metric that this op measures itself
    /// (all but `trace.overhead`, `host.e2e_s` and `par.speedup`).
    pub fn metric(&self, name: &str) -> Option<f64> {
        Some(match name {
            "ingest.s" => self.ingest_s,
            "ingest.bytes_per_s" => self.ingest_bytes_per_s,
            "ingest.peak_bytes" => self.ingest_peak_bytes,
            "ingest.edges_streamed" => self.ingest_edges_streamed,
            "lcc.s" => self.lcc_s,
            "map.s" => self.map_s,
            "map.level0_s" => self.map_level0_s,
            "map.passes" => self.map_passes,
            "construct.s" => self.construct_s,
            "construct.level0_s" => self.construct_level0_s,
            "construct.edges_out" => self.construct_edges_out,
            "coarsen.s" => self.coarsen_s,
            "coarsen.residual_s" => self.coarsen_residual_s,
            "coarsen.levels" => self.coarsen_levels,
            "coarsen.ratio" => self.coarsen_ratio,
            "coarsen.peak_bytes" => self.coarsen_peak_bytes,
            "uncoarsen.s" => self.uncoarsen_s,
            "uncoarsen.peak_bytes" => self.uncoarsen_peak_bytes,
            "kway.recurse_s" => self.kway_recurse_s,
            "kway.recurse_cut" => self.kway_recurse_cut,
            "kway.postpass_s" => self.kway_postpass_s,
            "kway.postpass_gain" => self.kway_postpass_gain,
            "e2e.residual_s" => self.residual_s(),
            _ => return None,
        })
    }
}

/// Host and build facts printed with every report.
pub fn provenance() -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        ),
        (
            "pool_workers",
            mlcg_par::pool::configured_workers().to_string(),
        ),
        ("MLCG_THREADS", env("MLCG_THREADS")),
        (
            "MLCG_SPIN_US",
            format!(
                "{} (effective {})",
                env("MLCG_SPIN_US"),
                mlcg_par::pool::spin_us()
            ),
        ),
        ("git_rev", git_revision()),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
