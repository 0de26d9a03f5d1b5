//! The mapro benchmark: one binary, two workloads, one JSON result line.
//!
//! ```text
//! mapro-benchmark --workload forward|churn --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! * `forward` — steady-state datapath: a Zipf trace replayed closed-loop
//!   through the cube-keyed megaflow cache of a normalized GWLB program.
//! * `churn` — packets at a fixed offered rate beside a Poisson stream of
//!   controller intents, each compiled, applied, re-proven incrementally
//!   and only then installed in the running engine. Before the churn, the
//!   spec goes through the offline toolchain: lint → normalize → check →
//!   compile, with a planted non-equivalent mutant the check must refute.
//!
//! Every workload checks its outputs against `mapro_core::Pipeline::run`.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records spans around every layer call and reports the
//! per-layer ledger (span self times, counter deltas, shadow timings) and
//! the tracing overhead. `--smoke` shrinks every size for the self-test.

mod churn;
mod forward;
mod ledger;
mod toolchain;

use ledger::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {val}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mapro-benchmark: {e}");
            eprintln!(
                "usage: mapro-benchmark --workload forward|churn --seed N \
                 --seconds S --trace 0|1 [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "forward" => forward::run(&args),
        "churn" => churn::run(&args),
        other => {
            eprintln!("mapro-benchmark: unknown workload {other:?} (forward|churn)");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = mapro_par::configured_threads();
    report.note("host.nproc", nproc);
    report.note("host.pool_threads", pool);
    if args.trace {
        report.layer("host.nproc", nproc as f64);
        report.layer("host.pool_threads", pool as f64);
    }
    print(&args, &report);
}

fn print(args: &Args, r: &Report) {
    println!(
        "# mapro-benchmark workload={} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    for n in &r.notes {
        println!("# {n}");
    }
    let metrics = r.metrics(args.trace);
    for m in &metrics {
        println!("# {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let share = ledger::ratio(r.failed, r.attempted);
    println!(
        "# attempted = {}, failed = {}, failed_share = {share}",
        r.attempted, r.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        ledger::metrics_json(&metrics)
    );
}

/// Write a traced region's spans to `out/spans-<workload>.csv` in the
/// benchmark's directory, noting where they went.
pub fn write_spans(r: &mut Report, tr: &ledger::Tracer, workload: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.csv"));
    match tr.write(&path) {
        Ok(()) => r.note("spans", path.display()),
        Err(e) => r.note("spans", format!("not written: {e}")),
    }
}
