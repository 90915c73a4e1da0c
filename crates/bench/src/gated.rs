//! The gated-experiment harness behind the six `bench-*` experiments.
//!
//! An experiment declares an [`Experiment`]: its graph suite, its
//! variants, and the JSON members each variant records. Its `run` times
//! every variant on every suite graph through one [`Table`] and ends with
//! [`Table::finish`], which prints the long-format table, writes
//! `target/repro/BENCH_<x>.json`, and with `--baseline FILE` runs the
//! regression gate of [`crate::compare`].
//!
//! Timing rule: one untimed warm-up call, then `--runs` samples. A sample
//! times back-to-back calls one by one until they span
//! [`MIN_SAMPLE_SECONDS`] and reports the fastest; the median sample is
//! recorded. Sustained load on a shared host draws CPU steal and pool
//! contention, so a batch's mean or median call runs several times slower
//! than an isolated call and swings with the neighbours, while its fastest
//! call stays near the isolated cost: the recorded seconds per call stay
//! comparable with baselines taken one call per sample. Peak heap comes
//! from one more untimed call in a [`mlcg_par::mem::measure`] scope under
//! [`Experiment::heap_policy`].

use crate::harness::{header, row, Ctx};
use mlcg_graph::cc::largest_component;
use mlcg_graph::generators as gen;
use mlcg_graph::Csr;
use mlcg_par::timer::median;
use mlcg_par::{ExecPolicy, Timer, TraceCollector};
use std::path::Path;

/// Minimum wall time one timed sample spans: calls repeat until their
/// summed wall time reaches it.
pub const MIN_SAMPLE_SECONDS: f64 = 0.020;

/// Floor for recorded timings: the gate is relative
/// (`current > baseline * (1 + noise)`), so a near-zero median in a
/// committed baseline would fail on any positive current value. 10 µs is
/// far below every real suite timing and far above timer noise.
const SECONDS_FLOOR: f64 = 1e-5;

/// A member of a variant's JSON object, in the order the writer emits
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Key {
    /// `cut`: edge cut of the variant's labels.
    Cut,
    /// `imbalance`: heaviest part over the ideal part weight.
    Imbalance,
    /// The timing, under [`Experiment::seconds_key`].
    Seconds,
    /// `peak_bytes` plus `bytes_per_edge` or `bytes_per_vertex`.
    Heap,
    /// `aux_bytes_per_edge`: staging bytes per edge beyond the result.
    AuxBytes,
    /// `chunks`: edge chunks a streamed build consumed.
    Chunks,
}

/// One variant of an experiment: its JSON name and the members it
/// records.
pub struct Variant {
    /// JSON key of the variant object.
    pub name: &'static str,
    /// Members of the variant object, in writer order.
    pub keys: &'static [Key],
}

impl Variant {
    /// A variant recording `keys`.
    pub const fn new(name: &'static str, keys: &'static [Key]) -> Self {
        Variant { name, keys }
    }

    /// Variants that all record the same members.
    pub fn all(names: impl IntoIterator<Item = &'static str>, keys: &'static [Key]) -> Vec<Self> {
        names
            .into_iter()
            .map(|name| Variant::new(name, keys))
            .collect()
    }
}

/// The declaration of one gated experiment.
pub struct Experiment {
    /// `repro` name, `bench-<x>`; results go to `BENCH_<x>.json`.
    pub name: &'static str,
    /// JSON key of every variant's timing: `refine_seconds` or `seconds`.
    pub seconds_key: &'static str,
    /// Normalise heap per vertex (`bytes_per_vertex`) instead of per edge.
    pub per_vertex: bool,
    /// Policy of the untimed heap run. Allocator scopes attribute on the
    /// allocating thread only, so a serial run captures worker-side
    /// allocations a host-policy run would drop.
    pub heap_policy: ExecPolicy,
    /// Full-suite grid side (see [`Experiment::names`]).
    pub grid: usize,
    /// Full-suite rmat scale (largest component of `rmat(scale, 8)`).
    pub rmat: usize,
    /// When set, the suite adds the star graph, tags grid and path
    /// `regular`, and tags rmat and star with this class.
    pub skewed: Option<&'static str>,
    /// Variants, in the order each graph's measures are pushed.
    pub variants: Vec<Variant>,
}

/// The per-graph `speedup` figure: `base` seconds over `new` seconds.
pub fn speedup(base: &Measure, new: &Measure) -> (&'static str, String) {
    let ratio = base.seconds / new.seconds.max(1e-12);
    ("speedup", format!("{ratio:.3}"))
}

/// One generated suite graph.
pub struct SuiteGraph {
    /// Name recorded in the results (`grid2d-64x64`, `rmat-10`, ...).
    pub name: String,
    /// Class recorded in the results, for classed suites.
    pub class: Option<&'static str>,
    /// The graph.
    pub g: Csr,
}

impl Experiment {
    /// Names and classes of the suite `--quick` selects. The quick suite
    /// is the same for every experiment: grid2d-64x64, path-4096, rmat-10
    /// and, when classed, star-8192; the full suite's path has 65536
    /// vertices and its star 262144. A name is `<generator>-<size>`, the
    /// recipe [`Experiment::graphs`] builds.
    pub fn names(&self, quick: bool) -> Vec<(String, Option<&'static str>)> {
        let (grid, path, rmat, star) = if quick {
            (64, 4096, 10, 8192)
        } else {
            (self.grid, 65536, self.rmat, 262144)
        };
        let regular = self.skewed.map(|_| "regular");
        let mut out = vec![
            (format!("grid2d-{grid}x{grid}"), regular),
            (format!("path-{path}"), regular),
            (format!("rmat-{rmat}"), self.skewed),
        ];
        if self.skewed.is_some() {
            out.push((format!("star-{star}"), self.skewed));
        }
        out
    }

    /// Generate the suite `ctx` selects (`--quick`, `--seed`).
    pub fn graphs(&self, ctx: &Ctx) -> Vec<SuiteGraph> {
        let graph = |name: &str| {
            let (generator, size) = name.split_once('-').expect("<generator>-<size>");
            let num = |s: &str| s.parse::<usize>().expect("numeric size");
            match generator {
                "grid2d" => {
                    let side = num(size.split('x').next().expect("side"));
                    gen::grid2d(side, side)
                }
                "path" => gen::path(num(size)),
                "rmat" => {
                    let scale = num(size) as u32;
                    largest_component(&gen::rmat(scale, 8, 0.57, 0.19, 0.19, ctx.seed)).0
                }
                _ => gen::star(num(size)),
            }
        };
        self.names(ctx.quick)
            .into_iter()
            .map(|(name, class)| SuiteGraph {
                g: graph(&name),
                name,
                class,
            })
            .collect()
    }

    /// An empty results table for this experiment.
    pub fn table<'a>(&'a self, ctx: &'a Ctx) -> Table<'a> {
        Table {
            exp: self,
            ctx,
            graphs: Vec::new(),
            rows: Vec::new(),
        }
    }
}

/// What one variant measured on one graph. `seconds` is always recorded;
/// each `Some` field adds its member.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measure {
    /// Seconds per call: the median sample of the timing rule.
    pub seconds: f64,
    /// Peak heap of the untimed scoped run.
    pub peak_bytes: Option<u64>,
    /// Edge cut.
    pub cut: Option<u64>,
    /// Part imbalance.
    pub imbalance: Option<f64>,
    /// Auxiliary staging bytes per edge.
    pub aux_bytes_per_edge: Option<f64>,
    /// Edge chunks consumed.
    pub chunks: Option<u64>,
}

impl Measure {
    /// The JSON members, each tagged with its [`Key`], in writer order.
    fn members(&self, exp: &Experiment, n: usize, m: usize) -> Vec<(Key, String)> {
        let mut out = Vec::new();
        if let Some(c) = self.cut {
            out.push((Key::Cut, format!("\"cut\": {c}")));
        }
        if let Some(i) = self.imbalance {
            out.push((Key::Imbalance, format!("\"imbalance\": {i:.4}")));
        }
        let secs = format!("\"{}\": {:.6}", exp.seconds_key, self.seconds);
        out.push((Key::Seconds, secs));
        if let Some(p) = self.peak_bytes {
            let (unit, count) = if exp.per_vertex {
                ("vertex", n)
            } else {
                ("edge", m)
            };
            let per = p as f64 / count.max(1) as f64;
            let heap = format!("\"peak_bytes\": {p}, \"bytes_per_{unit}\": {per:.2}");
            out.push((Key::Heap, heap));
        }
        if let Some(a) = self.aux_bytes_per_edge {
            out.push((Key::AuxBytes, format!("\"aux_bytes_per_edge\": {a:.2}")));
        }
        if let Some(c) = self.chunks {
            out.push((Key::Chunks, format!("\"chunks\": {c}")));
        }
        out
    }
}

/// Results of one experiment run: the one timer, printer, writer and
/// gate of every `bench-*` experiment.
pub struct Table<'a> {
    exp: &'a Experiment,
    ctx: &'a Ctx,
    /// One rendered JSON object per graph.
    graphs: Vec<String>,
    /// Printed rows: graph, variant, members.
    rows: Vec<[String; 3]>,
}

impl Table<'_> {
    /// Warm up, then take `--runs` samples of `call` (module docs).
    /// `reported` replaces a call's wall time with the seconds its output
    /// reports for itself. Returns the last output and a measure carrying
    /// the median sample as its seconds.
    pub fn time<T>(
        &self,
        mut call: impl FnMut() -> T,
        reported: Option<fn(&T) -> f64>,
    ) -> (T, Measure) {
        let mut out = call();
        let mut samples = Vec::with_capacity(self.ctx.runs);
        for _ in 0..self.ctx.runs {
            let (mut fastest, mut spanned) = (f64::INFINITY, 0.0);
            while spanned < MIN_SAMPLE_SECONDS {
                let t = Timer::start();
                out = call();
                let wall = t.seconds();
                spanned += wall;
                fastest = fastest.min(reported.map_or(wall, |r| r(&out)));
            }
            samples.push(fastest);
        }
        let seconds = median(&mut samples).max(SECONDS_FLOOR);
        let m = Measure {
            seconds,
            ..Default::default()
        };
        (out, m)
    }

    /// Time `call` under the host policy, then record its peak heap from
    /// one untimed scoped call under the experiment's heap policy. With
    /// `reported`, the call times its own measured part and `reported`
    /// extracts those seconds from its output.
    pub fn measure<T>(
        &self,
        mut call: impl FnMut(&ExecPolicy) -> T,
        reported: Option<fn(&T) -> f64>,
    ) -> (T, Measure) {
        let host = self.ctx.host();
        let (out, mut m) = self.time(|| call(&host), reported);
        let (_, mem) = mlcg_par::mem::measure(|| call(&self.exp.heap_policy));
        m.peak_bytes = Some(mem.peak_bytes);
        (out, m)
    }

    /// With tracing on, run `traced` once under a fresh collector with the
    /// dispatch profiler installed, print `counter` when given, and emit
    /// the report as `<experiment>/<graph>`.
    pub fn trace(
        &self,
        graph: &SuiteGraph,
        counter: Option<&str>,
        traced: impl FnOnce(&TraceCollector),
    ) {
        if !self.ctx.trace_enabled() {
            return;
        }
        let trace = self.ctx.trace_collector();
        let _p = mlcg_par::profile::install(&trace);
        traced(&trace);
        let report = trace.report();
        let label = format!("{}/{}", self.exp.name, graph.name);
        if let Some(c) = counter {
            println!("{label}: {c} = {}", report.counter(c));
        }
        self.ctx.emit_trace(&label, &report);
    }

    /// Record one graph: a measure per declared variant, in order, plus
    /// derived per-graph figures. Panics when a measure's members differ
    /// from its variant's declaration: the declaration is what the schema
    /// test checks against the committed baselines.
    pub fn push(&mut self, graph: &SuiteGraph, measures: Vec<Measure>, notes: Vec<(&str, String)>) {
        let variants = &self.exp.variants;
        assert_eq!(measures.len(), variants.len(), "one measure per variant");
        let (n, m) = (graph.g.n(), graph.g.m());
        let mut fields = vec![format!("\"name\": \"{}\"", graph.name)];
        if let Some(class) = graph.class {
            fields.push(format!("\"class\": \"{class}\""));
        }
        fields.push(format!("\"n\": {n}, \"m\": {m}"));
        for (v, measure) in variants.iter().zip(&measures) {
            let (keys, members): (Vec<Key>, Vec<String>) =
                measure.members(self.exp, n, m).into_iter().unzip();
            assert_eq!(keys, v.keys, "{}: members differ from declaration", v.name);
            let members = members.join(", ");
            fields.push(format!("\"{}\": {{{members}}}", v.name));
            let text = members.replace('"', "");
            self.rows
                .push([graph.name.clone(), v.name.to_string(), text]);
        }
        for (key, value) in notes {
            fields.push(format!("\"{key}\": {value}"));
            self.rows.push([graph.name.clone(), key.to_string(), value]);
        }
        self.graphs.push(format!("    {{{}}}", fields.join(", ")));
    }

    /// The results document (hand-rolled JSON: the workspace is
    /// dependency-free), with `params` — constants the run used, such as
    /// `k` — as top-level fields.
    pub fn to_json(&self, params: &[(&str, usize)]) -> String {
        let mut json = format!(
            "{{\n  \"experiment\": \"{}\",\n  \"quick\": {},\n  \"seed\": {},\n  \"runs\": {},\n",
            self.exp.name, self.ctx.quick, self.ctx.seed, self.ctx.runs
        );
        for (key, value) in params {
            json.push_str(&format!("  \"{key}\": {value},\n"));
        }
        json.push_str(&format!(
            "  \"graphs\": [\n{}\n  ]\n}}\n",
            self.graphs.join(",\n")
        ));
        json
    }

    /// Print the long-format table (graph | variant | members), write the
    /// results file with `params` (see [`Table::to_json`]), and with
    /// `--baseline` gate it. Returns the process exit code (nonzero on
    /// regression).
    pub fn finish(self, params: &[(&str, usize)]) -> i32 {
        header(&["graph", "variant", "members"]);
        for r in &self.rows {
            row(r);
        }
        let json = self.to_json(params);
        let dir = Path::new("target/repro");
        std::fs::create_dir_all(dir).expect("create the results directory");
        let short = self.exp.name.trim_start_matches("bench-");
        let path = dir.join(format!("BENCH_{short}.json"));
        std::fs::write(&path, &json).expect("write the results file");
        println!("{}: results written to {}", self.exp.name, path.display());
        match &self.ctx.baseline {
            Some(baseline) => crate::compare::run_baseline_gate(baseline, &json, self.ctx.noise),
            None => 0,
        }
    }
}
