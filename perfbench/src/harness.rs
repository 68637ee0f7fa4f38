//! The closed-loop timing harness, the run record, and the JSON output.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["verdict", "certify", "campaign", "scale"];

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One benchmark workload: inputs built from the seed, ops timed one at
/// a time, and every op's output checked outside the timed span.
pub trait Workload {
    /// Everything the ops read, generated from the seed.
    type Inputs;
    /// What one op returns for checking.
    type Output;

    /// Builds the run's inputs: models, schedules, fault plans, configs.
    fn setup(seed: u64) -> Self::Inputs;

    /// Ops in one round; a run attempts whole rounds.
    fn round_len(_inputs: &Self::Inputs) -> usize {
        1
    }

    /// Runs op `index` of the round. `Err` means the program reported a
    /// failure (the op counts as failed).
    fn op(inputs: &Self::Inputs, index: usize) -> Result<Self::Output, String>;

    /// Checks op `index`'s output; `Err` names the first wrong answer.
    fn check(inputs: &Self::Inputs, index: usize, output: &Self::Output) -> Result<(), String>;

    /// Work units op `index` stands for, fixed by the inputs alone.
    fn work(inputs: &Self::Inputs, index: usize) -> f64;
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints the run record (with the machine fingerprint) and then, as
    /// the last line, the result object.
    pub fn print(&self, args: &Args, wall: Duration) {
        let mut metrics = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        metrics.push('}');
        let (nproc, cpu_model) = (nproc(), cpu_model());
        println!(
            "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"workers\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \
             \"wall_s\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"metrics\": {metrics}}}}}",
            json_str(&args.workload),
            args.seed,
            json_num(args.seconds),
            u8::from(args.trace),
            graybox_core::sweep::available_workers(),
            json_str(&cpu_model),
            json_str(env!("PERFBENCH_RUSTC")),
            json_num(wall.as_secs_f64()),
            self.attempted,
            self.failed,
            self.correct,
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// Runs workload `W` for `args.seconds` and reports the end-to-end
/// metrics: `setup_s`, `op_ms`, `work_per_s`, `peak_rss_mb`.
pub fn run<W: Workload>(args: &Args) -> Outcome {
    let (mut setup, inputs) = SetupClock::new(|| W::setup(args.seed));
    let round = W::round_len(&inputs);
    assert!(round > 0, "a round holds at least one op");

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut op_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut work = 0.0;
    // Whole rounds: the first always runs; another starts only if a
    // round as long as the last one still ends within the run length.
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    loop {
        let round_start = Instant::now();
        for index in 0..round {
            outcome.attempted += 1;
            let start = Instant::now();
            let result = black_box(W::op(&inputs, index));
            let took = start.elapsed();
            match result {
                Ok(output) => {
                    op_ms.push(took.as_secs_f64() * 1e3);
                    busy += took;
                    work += W::work(&inputs, index);
                    if let Err(message) = W::check(&inputs, index, &output) {
                        eprintln!("{}: op {index} is wrong: {message}", args.workload);
                        outcome.correct = false;
                    }
                }
                Err(message) => {
                    eprintln!("{}: op {index} failed: {message}", args.workload);
                    outcome.failed += 1;
                }
            }
        }
        setup.sample_if_due();
        if loop_start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }

    outcome.push("setup_s", setup.median(), "s");
    if op_ms.is_empty() {
        // Every op failed: there is no timing to report.
        outcome.correct = false;
    } else {
        outcome.push("op_ms", median(op_ms), "ms");
        outcome.push("work_per_s", work / busy.as_secs_f64(), "1/s");
    }
    outcome.push("peak_rss_mb", peak_rss_mb(), "MB");
    outcome
}

/// Times a workload's setup. Each sample is a batch of calls long
/// enough to take [`SetupClock::BATCH`], reported per call. Samples are
/// spread over the run — a few before the first op, then one between
/// rounds at most every [`SetupClock::EVERY`] — so the median does not
/// hang on how busy the machine was during the first fraction of a
/// second.
pub struct SetupClock<T, F: FnMut() -> T> {
    setup: F,
    batch: u32,
    samples: Vec<f64>,
    last: Instant,
}

impl<T, F: FnMut() -> T> SetupClock<T, F> {
    const BATCH: Duration = Duration::from_millis(20);
    const EVERY: Duration = Duration::from_secs(1);
    const FIRST: usize = 3;
    const MIN_SAMPLES: usize = 9;

    /// Calibrates the batch size and takes the first samples; returns
    /// the clock and the inputs of one setup call.
    pub fn new(mut setup: F) -> (Self, T) {
        let mut batch = 1u32;
        let mut inputs = setup();
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                inputs = black_box(setup());
            }
            if start.elapsed() >= Self::BATCH || batch >= 1 << 16 {
                break;
            }
            batch *= 2;
        }
        let mut clock = SetupClock {
            setup,
            batch,
            samples: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..Self::FIRST {
            clock.sample();
        }
        (clock, inputs)
    }

    fn sample(&mut self) {
        let start = Instant::now();
        for _ in 0..self.batch {
            black_box((self.setup)());
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / f64::from(self.batch));
        self.last = Instant::now();
    }

    /// Takes a sample if [`SetupClock::EVERY`] has passed since the last.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.sample();
        }
    }

    /// The median seconds per setup call, over at least
    /// [`SetupClock::MIN_SAMPLES`] samples.
    pub fn median(mut self) -> f64 {
        while self.samples.len() < Self::MIN_SAMPLES {
            self.sample();
        }
        median(self.samples)
    }
}

/// Median of `samples` (upper median for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Peak resident set of this process (`VmHWM`), in MB of 2^20 bytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
