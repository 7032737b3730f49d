//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable account of the run, then, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when any check
//! fails.

#![forbid(unsafe_code)]

use perfbench::host::{self, Host};
use perfbench::metrics::{result_json, table};
use perfbench::run::{self, Options};
use perfbench::workload::{Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".perfbench"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("seconds"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            WORKLOADS.join(", ")
        ));
    }
    opts.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    opts.seconds = seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?;
    opts.trace = trace.ok_or_else(|| format!("--trace is required\n{USAGE}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if opts.trace { "trace" } else { "counters" };
    if let Err(e) = host::check_environment(mode) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let host = Host::probe(mode);
    println!("{}", host.line());
    let outcome = match run::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    if let Some(e2e) = &outcome.end_to_end {
        println!("end-to-end, from the counters-mode half of this traced run:");
        print!("{}", table(e2e));
        println!("per-layer, from the traced half:");
    }
    print!("{}", table(&outcome.metrics));
    let report = opts.out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    let result = result_json(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"released_digest\": \"{}\", \
         \"reference_digest\": \"{}\", \"gate_epsilon\": {:?}, \"eval_loss\": {:?}, \
         \"trace_file\": {:?}, \"result\": {result}}}\n",
        opts.workload,
        opts.seed,
        host.json(),
        outcome.gate.measured.hex(),
        outcome.gate.reference.hex(),
        outcome.gate.epsilon,
        outcome.gate.eval_loss,
        outcome
            .trace_file
            .as_ref()
            .map_or_else(String::new, |p| p.display().to_string()),
    );
    match std::fs::write(&report, body) {
        Ok(()) => println!("report: {}", report.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", report.display()),
    }
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
