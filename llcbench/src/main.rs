//! `llcbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its result as the last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.

use std::time::Duration;

use llcbench::report::Report;
use llcbench::serve::Flavor;
use llcbench::{matrix, serve};

const USAGE: &str = "usage: llcbench --workload matrix-cold|serve-warm|serve-store \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => traced = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let seconds = Duration::from_secs(args.seconds);
    match (args.workload.as_str(), args.traced) {
        ("matrix-cold", false) => Ok(matrix::run(args.seed, seconds)),
        ("matrix-cold", true) => Ok(matrix::run_traced(args.seed)),
        ("serve-warm", false) => serve::run(Flavor::Warm, args.seed, seconds),
        ("serve-warm", true) => serve::run_traced(Flavor::Warm, args.seed, seconds),
        ("serve-store", false) => serve::run(Flavor::Store, args.seed, seconds),
        ("serve-store", true) => serve::run_traced(Flavor::Store, args.seed, seconds),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// Total and steal jiffies of all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("llcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let before = cpu_jiffies();
    let result = run(&args);
    // A virtual machine's host can take CPU time away for minutes at a
    // time; the share it took explains an outlying run.
    if let (Some(a), Some(b)) = (before, cpu_jiffies()) {
        let total = b.0.saturating_sub(a.0).max(1);
        eprintln!(
            "llcbench: steal {:.1} % of CPU time during the run",
            100.0 * b.1.saturating_sub(a.1) as f64 / total as f64
        );
    }
    match result {
        Ok(report) => {
            for problem in &report.broken {
                eprintln!("llcbench: incorrect: {problem}");
            }
            println!("{}", report.to_json(args.traced));
        }
        Err(e) => {
            eprintln!("llcbench: {e}");
            std::process::exit(1);
        }
    }
}
