//! The COGENT benchmark: one command for the generator and the daemon.
//!
//! ```text
//! perfbench --workload <tccg_cold|serve_warm|serve_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! the per-layer metrics, timed from outside by calling each layer's
//! public functions. It checks the program's outputs either way, writes
//! a run report (run facts, sample counts, failures) under `out/`, and
//! prints the result as the last line of standard output.

mod cold;
mod join;
mod report;
mod rng;
mod serve;
mod stats;

use report::{out_dir, result_line, run_report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be in 1..=60".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: creating {}: {err}", out_dir().display());
        std::process::exit(1);
    }
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload, args.trace) {
        (Workload::TccgCold, false) => cold::run(seed, seconds),
        (Workload::TccgCold, true) => cold::run_traced(seed, seconds),
        (Workload::ServeWarm, false) => serve::run(serve::Mix::Warm, seed, seconds),
        (Workload::ServeWarm, true) => serve::run_traced(serve::Mix::Warm, seed, seconds),
        (Workload::ServeChurn, false) => serve::run(serve::Mix::Churn, seed, seconds),
        (Workload::ServeChurn, true) => serve::run_traced(serve::Mix::Churn, seed, seconds),
    };
    let (line, not_measured) = result_line(&outcome, args.trace);
    let report = run_report(
        args.workload,
        seed,
        seconds,
        args.trace,
        &outcome,
        &not_measured,
    );
    let path = out_dir().join(format!(
        "{}-seed{seed}-trace{}.json",
        args.workload.name(),
        u8::from(args.trace)
    ));
    if let Err(err) = std::fs::write(&path, report.to_string()) {
        eprintln!("perfbench: writing {}: {err}", path.display());
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{report}");
    println!("{line}");
}
