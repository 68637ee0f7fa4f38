//! `graybox-perfbench`: the end-to-end and per-layer benchmark of the
//! graybox workspace.
//!
//! ```text
//! graybox-perfbench --workload <verdict|certify|campaign|scale>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A timed run (`--trace 0`) builds the workload's inputs from the seed,
//! then issues the workload's ops back to back (a closed loop, one
//! client) for `--seconds`, checks every op's outputs, and prints the
//! end-to-end metrics. A traced run (`--trace 1`) feeds every workload's
//! seeded inputs through the public functions of each layer in turn and
//! prints the per-layer metrics; the timed runs never execute that code.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run record with the worker count and the machine fingerprint.
//! Diagnostics go to standard error.

mod campaign;
mod certify;
mod checks;
mod harness;
mod scale;
mod seeds;
mod trace;
mod verdict;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Args, Outcome};

const USAGE: &str = "usage: graybox-perfbench --workload <verdict|certify|campaign|scale> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !harness::WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = if args.trace {
        trace::run(&args)
    } else {
        match args.workload.as_str() {
            "verdict" => harness::run::<verdict::Verdict>(&args),
            "certify" => harness::run::<certify::Certify>(&args),
            "campaign" => harness::run::<campaign::Campaign>(&args),
            "scale" => harness::run::<scale::Scale>(&args),
            _ => unreachable!("workload names are validated while parsing"),
        }
    };
    outcome.print(&args, started.elapsed());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(line: &str) -> Result<super::Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn accepts_a_full_command_line() {
        let args = parse("--workload scale --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, "scale");
        assert_eq!(args.seed, 7);
        assert!((args.seconds - 10.0).abs() < f64::EPSILON);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_flags_loudly() {
        for line in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload scale --seed -1 --seconds 1 --trace 0",
            "--workload scale --seed 1 --seconds 0 --trace 0",
            "--workload scale --seed 1 --seconds 1 --trace 2",
            "--workload scale --seed 1 --seconds 1",
            "--workload scale --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload scale --seed",
        ] {
            assert!(parse(line).is_err(), "accepted `{line}`");
        }
    }
}
