//! The serving benchmark.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process measures one workload (see [`workload`]). It generates its
//! inputs from the seed, serves for `S` seconds (and at least 100
//! epochs), checks the results, and prints a human-readable report
//! followed by one JSON line:
//!
//! ```text
//! {"correct": true, "attempted": 612, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from spans the benchmark records around its calls
//! into each layer plus the engine's public counters. Spans are written
//! to `out/trace-NAME-sN.jsonl` beside this package's manifest. WAL and
//! checkpoint files live in a fresh scratch directory under `out/`,
//! removed when the run ends. Any failed correctness check exits 1.

mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Outcome, Spec, WORKLOADS};

const USAGE: &str = "usage: servebench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                spec = Some(*found.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A scratch directory removed when dropped, on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = args.spec.name;
    let scratch = Scratch(out_dir.join(format!("scratch-{name}-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("servebench: creating {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let trace_file = out_dir.join(format!("trace-{name}-s{}.jsonl", args.seed));
    let trace = args.trace.then_some(trace_file.as_path());
    let outcome = workload::run(&args.spec, args.seed, args.seconds, trace, &scratch.0);
    drop(scratch);
    report(name, &outcome);
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the human-readable report, then the JSON result as the last
/// line of standard output.
fn report(name: &str, out: &Outcome) {
    println!("servebench {name}");
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!(
            "  {:<32} {:>16.6} {:<6} ({})",
            m.name, m.value, m.unit, m.base
        );
    }
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
