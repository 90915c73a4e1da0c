//! `mlcg` — command-line driver for the multilevel-coarsen library.
//!
//! ```text
//! mlcg stats    <graph>                         degree statistics
//! mlcg coarsen  <graph> [opts]                  multilevel coarsening report
//! mlcg bisect   <graph> [opts]                  2-way partition
//! mlcg kway     <graph> -k <k> [opts]           k-way partition
//! mlcg generate <name> --out <file> [opts]      corpus graph to file
//! mlcg convert  <in> <out>                      format conversion
//!
//! graphs: .mtx (MatrixMarket), .graph/.metis (METIS), else edge list
//! opts:   --method hec|hec2|hec3|hem|mtmetis|gosh|goshec|mis2|suitor
//!         --construction sort|hash|spgemm|global-sort|hybrid
//!         --refine fm|spectral               (bisect only)
//!         --policy serial|host|device        (default host)
//!         --cutoff <n>  --seed <s>  -k <k>
//!         --out <file>                       write partition labels / graph
//! ```

use multilevel_coarsen::coarsen::{
    coarsen, CoarsenOptions, ConstructMethod, ConstructOptions, MapMethod,
};
use multilevel_coarsen::graph::{cc, io, metrics::DegreeStats, Csr};
use multilevel_coarsen::par::ExecPolicy;
use multilevel_coarsen::partition::{
    fm_bisect, kway_partition, spectral_bisect, FmConfig, SpectralConfig,
};
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mlcg <stats|coarsen|bisect|kway|generate|convert> <args> \
         (see `mlcg help` or the binary's doc comment)"
    );
    exit(2);
}

#[derive(Default)]
struct Opts {
    method: Option<MapMethod>,
    construction: Option<ConstructMethod>,
    refine: Option<String>,
    policy: Option<String>,
    cutoff: Option<usize>,
    seed: u64,
    k: usize,
    scale: u32,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        seed: 42,
        k: 2,
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                exit(2);
            })
        };
        match a.as_str() {
            "--method" => {
                let v = next("--method");
                o.method = Some(MapMethod::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown method {v}");
                    exit(2);
                }));
            }
            "--construction" => {
                let v = next("--construction");
                o.construction = Some(ConstructMethod::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown construction {v}");
                    exit(2);
                }));
            }
            "--refine" => o.refine = Some(next("--refine").clone()),
            "--policy" => o.policy = Some(next("--policy").clone()),
            "--cutoff" => o.cutoff = next("--cutoff").parse().ok(),
            "--seed" => o.seed = next("--seed").parse().unwrap_or(42),
            "-k" => o.k = next("-k").parse().unwrap_or(2),
            "--scale" => o.scale = next("--scale").parse().unwrap_or(0),
            "--out" => o.out = Some(PathBuf::from(next("--out"))),
            other if !other.starts_with('-') => o.positional.push(other.to_string()),
            other => {
                eprintln!("unknown option {other}");
                exit(2);
            }
        }
    }
    o
}

fn policy_of(o: &Opts) -> ExecPolicy {
    match o.policy.as_deref() {
        Some("serial") => ExecPolicy::serial(),
        Some("device") => ExecPolicy::device_sim(),
        None | Some("host") => ExecPolicy::host(),
        Some(other) => {
            eprintln!("unknown policy {other}");
            exit(2);
        }
    }
}

fn coarsen_opts(o: &Opts) -> CoarsenOptions {
    let mut c = CoarsenOptions {
        seed: o.seed,
        ..Default::default()
    };
    if let Some(m) = o.method {
        c.method = m;
    }
    if let Some(cm) = o.construction {
        c.construction = ConstructOptions::with_method(cm);
    }
    if let Some(cut) = o.cutoff {
        c.cutoff = cut;
    }
    c
}

fn load(path: &str) -> Csr {
    let g = io::read_auto(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let (lcc, _) = cc::largest_component(&g);
    if lcc.n() < g.n() {
        eprintln!(
            "note: extracted largest connected component ({} of {} vertices)",
            lcc.n(),
            g.n()
        );
    }
    lcc
}

fn write_labels(path: &Path, labels: &[u32]) {
    let body: String = labels.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        exit(1);
    });
    println!("wrote labels to {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "stats" => {
            let [path] = &o.positional[..] else { usage() };
            let g = load(path);
            let s = DegreeStats::of(&g);
            println!("n = {}", s.n);
            println!("m = {}", s.m);
            println!("max degree = {}", s.max_degree);
            println!("avg degree = {:.2}", s.avg_degree);
            println!(
                "skew Δ/avg = {:.2} ({})",
                s.skew,
                if s.is_skewed() { "skewed" } else { "regular" }
            );
            println!("total edge weight = {}", g.total_edge_weight());
        }
        "coarsen" => {
            let [path] = &o.positional[..] else { usage() };
            let g = load(path);
            let policy = policy_of(&o);
            let h = coarsen(&policy, &g, &coarsen_opts(&o));
            println!("levels = {}", h.num_levels());
            println!(
                "coarsest n = {}, m = {}",
                h.coarsest().n(),
                h.coarsest().m()
            );
            println!("avg coarsening ratio = {:.2}", h.avg_coarsening_ratio());
            println!(
                "time = {:.1} ms ({:.0}% construction)",
                h.stats.total_seconds() * 1e3,
                h.stats.construction_fraction() * 100.0
            );
            for (i, level) in h.levels.iter().enumerate() {
                println!(
                    "  level {:>2}: n = {:>9}, m = {:>10}",
                    i + 1,
                    level.graph.n(),
                    level.graph.m()
                );
            }
            if let Some(out) = &o.out {
                io::write_metis(h.coarsest(), out).expect("write coarsest graph");
                println!("wrote coarsest graph to {}", out.display());
            }
        }
        "bisect" => {
            let [path] = &o.positional[..] else { usage() };
            let g = load(path);
            let policy = policy_of(&o);
            let copts = coarsen_opts(&o);
            let r = match o.refine.as_deref().unwrap_or("fm") {
                "fm" => fm_bisect(&policy, &g, &copts, &FmConfig::default(), o.seed),
                "spectral" => {
                    spectral_bisect(&policy, &g, &copts, &SpectralConfig::default(), o.seed)
                }
                other => {
                    eprintln!("unknown refinement {other}");
                    exit(2);
                }
            };
            println!("cut = {}", r.cut);
            println!("imbalance = {:.4}", r.imbalance);
            println!(
                "time = {:.1} ms (coarsen {:.1} ms, refine {:.1} ms, {} levels)",
                r.total_seconds() * 1e3,
                r.coarsen_seconds * 1e3,
                r.refine_seconds * 1e3,
                r.levels
            );
            if let Some(out) = &o.out {
                write_labels(out, &r.part);
            }
        }
        "kway" => {
            let [path] = &o.positional[..] else { usage() };
            let g = load(path);
            let policy = policy_of(&o);
            let r = kway_partition(
                &policy,
                &g,
                o.k,
                &coarsen_opts(&o),
                &FmConfig::default(),
                o.seed,
            );
            println!("k = {}", o.k);
            println!("cut = {}", r.cut);
            println!("imbalance = {:.4}", r.imbalance);
            println!(
                "time = {:.1} ms (k-way refine {:.1} ms)",
                r.seconds * 1e3,
                r.refine_seconds * 1e3
            );
            if let Some(out) = &o.out {
                write_labels(out, &r.part);
            }
        }
        "generate" => {
            let [name] = &o.positional[..] else { usage() };
            let Some(out) = &o.out else {
                eprintln!("generate requires --out <file>");
                exit(2);
            };
            let g = multilevel_coarsen::graph::suite::by_name(name, o.scale, o.seed)
                .unwrap_or_else(|| {
                    eprintln!(
                        "unknown corpus graph '{name}'; known: {} / {}",
                        multilevel_coarsen::graph::suite::REGULAR.join(" "),
                        multilevel_coarsen::graph::suite::SKEWED.join(" ")
                    );
                    exit(2);
                });
            write_graph(&g, out);
            println!("generated {name}: {}", g.summary());
        }
        "convert" => {
            let [input, output] = &o.positional[..] else {
                usage()
            };
            let g = io::read_auto(Path::new(input)).unwrap_or_else(|e| {
                eprintln!("cannot read {input}: {e}");
                exit(1);
            });
            write_graph(&g, Path::new(output));
            println!("converted {input} -> {output} ({})", g.summary());
        }
        "help" | "--help" | "-h" => {
            println!("see the doc comment at the top of src/bin/mlcg.rs or README.md");
        }
        _ => usage(),
    }
}

fn write_graph(g: &Csr, out: &Path) {
    let res = match out.extension().and_then(|e| e.to_str()) {
        Some("mtx") => io::write_matrix_market(g, out),
        Some("graph") | Some("metis") => io::write_metis(g, out),
        _ => io::write_edge_list(g, out),
    };
    res.unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    });
}
