//! The reproduction driver: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run --release -p mlcg-bench --bin repro -- table2 --scale 0 --runs 3
//! cargo run --release -p mlcg-bench --bin repro -- all --fast
//! ```

use mlcg_bench::{exp, Ctx};

/// Print the usage lines and exit with status 2.
fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--scale k] [--runs r] [--seed s] [--fast] [--quick] \
         [--trace] [--trace-out FILE] [--baseline BENCH_x.json] [--noise x]"
    );
    eprintln!("experiments: {} all", exp::ALL.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else { usage() };
    let ctx = match Ctx::from_args(&args[1..]) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("repro: {e}");
            usage()
        }
    };
    eprintln!(
        "repro {name}: scale={} runs={} seed={} fast={} pool-workers={} spin-us={} heap-peak={}",
        ctx.scale,
        ctx.runs,
        ctx.seed,
        ctx.fast,
        // Configured size, not `global().workers()`: the banner must not be
        // the thing that spawns the pool.
        mlcg_par::pool::configured_workers(),
        mlcg_par::pool::spin_us(),
        // Process-global high-water at banner time (startup allocations);
        // the exit line below reports the peak over the whole experiment.
        mlcg_par::mem::fmt_bytes(mlcg_par::mem::peak_bytes() as u64)
    );
    match exp::run(name, &ctx) {
        Some(0) => {
            eprintln!(
                "repro {name}: heap-peak={} live={} allocs={}",
                mlcg_par::mem::fmt_bytes(mlcg_par::mem::peak_bytes() as u64),
                mlcg_par::mem::fmt_bytes(mlcg_par::mem::live_bytes() as u64),
                mlcg_par::mem::alloc_count()
            );
        }
        Some(code) => std::process::exit(code),
        None => {
            eprintln!(
                "unknown experiment '{name}'. known: {} all",
                exp::ALL.join(" ")
            );
            std::process::exit(2);
        }
    }
}
