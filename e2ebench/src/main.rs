//! `mlcg-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets up the workload's input files from `--seed` (each: generate +
//! write + one warm-up op), then runs ops for `--seconds`, cycling over
//! the inputs.
//! Measured ops run under `ExecPolicy::serial()` (`mlcg ... --policy
//! serial`); see `e2ebench/README.md` for why. With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it runs a few reference ops
//! under the default pool, alternates untraced and traced ops, and reports
//! the per-layer ledger. Every op is validated outside its timed region.
//! The last stdout line is the JSON result; the lines before it carry
//! provenance and the ledger.

use mlcg_e2ebench::{
    median, provenance, run_op, run_traced, tail, validate, workload, workloads, write_input,
    Input, Layers, Quality, Workload, END_TO_END, PER_LAYER,
};
use mlcg_par::{mem, ExecPolicy};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Input graphs per run, each from its own seed derived from `--seed` and
/// set up on its own; `setup_s` and `peak_heap_bytes` are medians over
/// the set-ups. Op cost and quality differ between graphs of one corpus
/// family, so `e2e_s` is the mean of the per-input medians and `cut_frac`
/// and `imbalance` the median of them: one graph does not set a run.
const INPUTS: u64 = 3;
/// Fewest untraced+traced pairs per traced run. An untraced run makes at
/// least one op per input.
const MIN_PAIRS: usize = 2;
/// Default-pool reference ops in a traced run; `host.e2e_s` is their
/// median, so the first op's pool spawn does not set it.
const HOST_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("mlcg-e2ebench: {msg}");
    exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut wl, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                wl = Some(workload(value).unwrap_or_else(|| {
                    let names: Vec<_> = workloads().iter().map(|w| w.name).collect();
                    fail(&format!(
                        "unknown workload {value:?}; known: {}",
                        names.join(" ")
                    ))
                }))
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad value {value:?} for {flag}")))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| fail(&format!("bad value {value:?} for {flag}")))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail(&format!("bad value {value:?} for {flag}")),
                }
            }
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: wl.unwrap_or_else(|| fail("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Validation tally over every op the run makes, warm-ups included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<Quality, String>) -> Option<Quality> {
        self.attempted += 1;
        match outcome {
            Ok(q) => Some(q),
            Err(e) => {
                self.failed += 1;
                println!("# FAILED {what}: {e}");
                None
            }
        }
    }
}

fn io_fail(e: std::io::Error) -> ! {
    eprintln!("mlcg-e2ebench: I/O error: {e}");
    exit(1);
}

/// Set up each of the `INPUTS` inputs: generate + write it and run one
/// untimed, validated warm-up op on it. Returns the inputs, set-up seconds
/// and warm-up heap peaks.
fn set_up(
    args: &Args,
    dir: &Path,
    policy: &ExecPolicy,
    tally: &mut Tally,
) -> (Vec<Input>, Vec<f64>, Vec<f64>) {
    let (mut inputs, mut times, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    for j in 0..INPUTS {
        let t = Instant::now();
        let seed = args.seed.wrapping_mul(INPUTS).wrapping_add(j);
        let input = write_input(&args.workload, seed, dir).unwrap_or_else(|e| io_fail(e));
        let (done, heap) = mem::measure(|| run_op(policy, &args.workload, &input.path));
        let done = done.unwrap_or_else(|e| io_fail(e));
        times.push(t.elapsed().as_secs_f64());
        peaks.push(heap.peak_bytes as f64);
        tally.record(&format!("warm-up op {j}"), validate(policy, &done));
        inputs.push(input);
    }
    (inputs, times, peaks)
}

fn main() {
    let args = parse_args();
    let wl = &args.workload;
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    let policy = ExecPolicy::serial();
    let mut tally = Tally::default();

    println!("# workload {} : {}", wl.name, wl.command);
    println!("# input {} scale {} seed {}", wl.graph, wl.scale, args.seed);
    for (k, v) in provenance() {
        println!("# {k} = {v}");
    }
    println!("# measured ops: ExecPolicy::serial()");

    let (inputs, setup_times, peaks) = set_up(&args, &dir, &policy, &mut tally);
    for (j, input) in inputs.iter().enumerate() {
        println!(
            "# input file {j}: n = {} m = {} bytes = {}",
            input.n, input.m, input.bytes
        );
    }
    let path = |op: usize| &inputs[op % inputs.len()].path;

    let budget = args.seconds;
    let start = Instant::now();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        let host = ExecPolicy::host();
        let mut host_times = Vec::new();
        for i in 0..HOST_OPS {
            let t = Instant::now();
            let done = run_op(&host, wl, path(i)).unwrap_or_else(|e| io_fail(e));
            host_times.push(t.elapsed().as_secs_f64());
            tally.record(&format!("default-pool op {i}"), validate(&host, &done));
        }
        let host_s = median(&host_times);

        let (mut plain, mut traced): (Vec<f64>, Vec<Layers>) = (Vec::new(), Vec::new());
        loop {
            let input = path(traced.len());
            let t = Instant::now();
            let done = run_op(&policy, wl, input).unwrap_or_else(|e| io_fail(e));
            plain.push(t.elapsed().as_secs_f64());
            tally.record("untraced op", validate(&policy, &done));
            drop(done);
            let (done, layers) = run_traced(&policy, wl, input).unwrap_or_else(|e| io_fail(e));
            tally.record("traced op", validate(&policy, &done));
            drop(done);
            traced.push(layers);
            let pair =
                median(&plain) + median(&traced.iter().map(|l| l.wall_s).collect::<Vec<_>>());
            if traced.len() >= MIN_PAIRS && start.elapsed().as_secs_f64() + pair > budget {
                break;
            }
        }
        traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let rep = &traced[(traced.len() - 1) / 2];
        let plain_s = median(&plain);
        print_ledger(rep, traced.len());
        println!(
            "# untraced e2e median {plain_s:.4} s over {} ops; default-pool ops ({} workers) {}",
            plain.len(),
            host.threads,
            host_times
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for m in PER_LAYER {
            let v = match m.name {
                "trace.overhead" => rep.wall_s / plain_s,
                "host.e2e_s" => host_s,
                "par.speedup" => plain_s / host_s,
                name => rep
                    .metric(name)
                    .expect("every other metric is a layer field"),
            };
            metrics.push((m.name, v, m.unit));
        }
    } else {
        // Op times and output quality, per input.
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
        let mut quality: Vec<Vec<Quality>> = vec![Vec::new(); inputs.len()];
        let mut all = Vec::new();
        loop {
            let j = all.len() % inputs.len();
            let t = Instant::now();
            let done = run_op(&policy, wl, path(j)).unwrap_or_else(|e| io_fail(e));
            let s = t.elapsed().as_secs_f64();
            times[j].push(s);
            all.push(s);
            if let Some(q) = tally.record("timed op", validate(&policy, &done)) {
                quality[j].push(q);
            }
            drop(done);
            if all.len() >= inputs.len() && start.elapsed().as_secs_f64() + median(&all) > budget {
                break;
            }
        }
        let quality_of = |f: fn(&Quality) -> f64| -> Vec<Vec<f64>> {
            quality
                .iter()
                .map(|qs| qs.iter().map(f).collect())
                .collect()
        };
        let op_s = input_medians(&times);
        let cut = input_medians(&quality_of(|q| q.cut_frac));
        let imb = input_medians(&quality_of(|q| q.imbalance));
        for (j, ts) in times.iter().enumerate() {
            let listed: Vec<String> = ts.iter().map(|t| format!("{t:.3}")).collect();
            println!(
                "# input {j} op seconds: {} (median {:.4} s; cut_frac {} imbalance {})",
                listed.join(" "),
                op_s[j],
                cut[j],
                imb[j]
            );
        }
        let (tail_s, pct, above) = tail(&all);
        println!(
            "# e2e over {} ops: mean of per-input medians {:.4} s; tail = p{pct:.1} ({above} samples above it) {tail_s:.4} s",
            all.len(),
            mean(&op_s)
        );
        let pass = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
        println!(
            "# fail_frac = {}/{} = {}",
            tally.failed,
            tally.attempted,
            tally.failed as f64 / tally.attempted as f64
        );
        for m in END_TO_END {
            let v = match m.name {
                "e2e_s" => mean(&op_s),
                "e2e_tail_s" => tail_s,
                "setup_s" => median(&setup_times),
                "peak_heap_bytes" => median(&peaks),
                "cut_frac" => median(&cut),
                "imbalance" => median(&imb),
                "pass_frac" => pass,
                other => unreachable!("no source for metric {other}"),
            };
            metrics.push((m.name, v, m.unit));
        }
    }
    for input in &inputs {
        let _ = std::fs::remove_file(&input.path);
    }

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// The median of each input's samples; NaN for an input with none.
fn input_medians(per_input: &[Vec<f64>]) -> Vec<f64> {
    per_input
        .iter()
        .map(|xs| if xs.is_empty() { f64::NAN } else { median(xs) })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn print_ledger(l: &Layers, ops: usize) {
    println!("# ledger of the traced op with the median wall time ({ops} traced ops):");
    let share = |s: f64| 100.0 * s / l.wall_s;
    for (name, s) in l.rows() {
        if s != 0.0 {
            println!("#   {name:<20} {s:>9.4} s {:>6.1}%", share(s));
        }
    }
    let r = l.residual_s();
    println!("#   {:<20} {r:>9.4} s {:>6.1}%", "e2e.residual_s", share(r));
    println!("#   {:<20} {:>9.4} s  100.0%", "= wall", l.wall_s);
    if !l.hierarchy_in_ledger {
        println!("#   top-level hierarchy (one extra coarsen() of the LCC, outside the wall):");
        for (name, s) in [
            ("map.s", l.map_s),
            ("construct.s", l.construct_s),
            ("coarsen.residual_s", l.coarsen_residual_s),
            ("coarsen.s", l.coarsen_s),
        ] {
            println!("#     {name:<18} {s:>9.4} s");
        }
    }
}
