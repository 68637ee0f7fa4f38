//! `scale`: wrapped RA at n=512 and wrapped Lamport at n=256 under
//! W′(θ=64), a burst of message drops, run quiet until drained.

use std::sync::OnceLock;

use graybox_clock::ProcessId;
use graybox_faults::{build_sim, FaultKind, InjectorRegistry, RunConfig, Wrapped};
use graybox_rng::rngs::SmallRng;
use graybox_rng::SeedableRng;
use graybox_simnet::{SimStats, SimTime, Simulation};
use graybox_tme::{Implementation, Workload as Schedule, WorkloadConfig};
use graybox_wrapper::WrapperConfig;

use crate::checks;
use crate::harness::Workload;
use crate::seeds;

/// The wrapper timeout θ of W′.
pub const THETA: u64 = 64;
/// Client requests per process, mean think time and eating time.
pub const REQUESTS: usize = 2;
pub const MEAN_THINK: u64 = 200;
pub const EAT_FOR: u64 = 5;
/// The drop burst: this many `DropMessage` injections at this time.
pub const DROPS: usize = 40;
pub const BURST_AT: u64 = 300;
/// The drain is checked every this many ticks.
pub const DRAIN_STEP: u64 = 100;
/// A run not drained by this time has failed.
pub const DRAIN_LIMIT: u64 = 1_000_000;

/// One simulated system of the op.
pub struct ScaleRun {
    pub config: RunConfig,
    pub schedule: Schedule,
    pub drop_seed: u64,
}

impl ScaleRun {
    fn new(seed: u64, implementation: Implementation, n: usize, streams: (u64, u64)) -> Self {
        let schedule_seed = seeds::derive(seed, streams.0);
        let schedule = Schedule::generate(
            WorkloadConfig {
                n,
                requests_per_process: REQUESTS,
                mean_think: MEAN_THINK,
                eat_for: EAT_FOR,
                start: 1,
            },
            schedule_seed,
        );
        ScaleRun {
            config: RunConfig::new(n, implementation)
                .seed(schedule_seed)
                .wrapper(WrapperConfig::timeout(THETA)),
            schedule,
            drop_seed: seeds::derive(seed, streams.1),
        }
    }

    /// The simulation with the client schedule installed.
    pub fn build(&self) -> Simulation<Wrapped> {
        let mut sim = build_sim(&self.config);
        self.schedule.apply(&mut sim);
        sim
    }

    /// Injects the drop burst; returns how many messages were dropped.
    pub fn burst(&self, sim: &mut Simulation<Wrapped>) -> u64 {
        let registry = InjectorRegistry::standard();
        let mut rng = SmallRng::seed_from_u64(self.drop_seed);
        let site = FaultKind::DropMessage.site();
        let before = sim.failpoints().hits(site);
        for _ in 0..DROPS {
            registry.inject(site, sim, &mut rng);
        }
        sim.failpoints().hits(site) - before
    }

    /// Runs quiet from the burst until every process is thinking and
    /// every channel is empty after the last request; returns the drain
    /// time and the events run, or `None` past [`DRAIN_LIMIT`].
    pub fn drain(&self, sim: &mut Simulation<Wrapped>) -> Option<(u64, u64)> {
        let last_request = self.schedule.last_request_at().ticks();
        let mut limit = BURST_AT;
        let mut events = 0;
        loop {
            limit += DRAIN_STEP;
            events += sim.run_until_quiet(SimTime::from(limit));
            if limit > last_request
                && sim.in_flight() == 0
                && sim.processes().all(|p| p.inner().mode().is_thinking())
            {
                return Some((limit, events));
            }
            if limit >= DRAIN_LIMIT {
                return None;
            }
        }
    }
}

/// What one drained run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    pub stats: SimStats,
    pub drops: u64,
    pub drain_ticks: u64,
    pub events: u64,
    pub thinking: usize,
    pub nonempty_channels: usize,
    pub entries: u64,
    pub resends: u64,
    pub firings: u64,
}

/// Runs one system of the op: build, schedule, quiet run to the burst,
/// burst, drain.
pub fn run_one(run: &ScaleRun) -> Result<RunReport, String> {
    let mut sim = run.build();
    let events = sim.run_until_quiet(SimTime::from(BURST_AT - 1));
    finish(run, sim, events)
}

fn finish(run: &ScaleRun, mut sim: Simulation<Wrapped>, events: u64) -> Result<RunReport, String> {
    let drops = run.burst(&mut sim);
    let (drain_ticks, drain_events) = run.drain(&mut sim).ok_or_else(|| {
        format!(
            "{} n={} not drained by t={DRAIN_LIMIT}",
            run.config.implementation.label(),
            run.config.n
        )
    })?;
    Ok(RunReport {
        stats: sim.stats(),
        drops,
        drain_ticks,
        events: events + drain_events,
        thinking: sim
            .processes()
            .filter(|p| p.inner().mode().is_thinking())
            .count(),
        nonempty_channels: sim.nonempty_channels().count(),
        entries: sim.processes().map(|p| p.inner().entries()).sum(),
        resends: sim.processes().map(Wrapped::resends).sum(),
        firings: sim.processes().map(Wrapped::firings).sum(),
    })
}

/// The untimed verification pass: steps the same run one recorded event
/// at a time up to the burst, requiring one eater at most after every
/// step, then finishes it exactly as [`run_one`] does.
pub fn verify_one(run: &ScaleRun) -> Result<RunReport, String> {
    let mut sim = run.build();
    let mut eating = vec![false; run.config.n];
    let mut eaters = 0usize;
    let mut steps = Vec::new();
    let mut events = 0;
    while sim.peek_time().is_some_and(|t| t.ticks() < BURST_AT) {
        let record = sim.step().expect("an event is pending");
        events += 1;
        let ProcessId(pid) = record.pid;
        let pid = pid as usize;
        let now = sim.process(record.pid).inner().mode().is_eating();
        if now != eating[pid] {
            eating[pid] = now;
            eaters = if now { eaters + 1 } else { eaters - 1 };
        }
        steps.push((record.time.ticks(), eaters));
    }
    checks::no_overlapping_eaters(steps, 0)?;
    finish(run, sim, events)
}

pub struct Scale;

pub struct Inputs {
    pub runs: [ScaleRun; 2],
    /// The verification pass's reports, computed at the first check.
    verified: OnceLock<Result<Vec<RunReport>, String>>,
}

impl Workload for Scale {
    type Inputs = Inputs;
    type Output = Vec<RunReport>;

    fn setup(seed: u64) -> Inputs {
        Inputs {
            runs: [
                ScaleRun::new(
                    seed,
                    Implementation::RicartAgrawala,
                    256,
                    (seeds::SCALE_RA_SCHEDULE, seeds::SCALE_RA_DROPS),
                ),
                ScaleRun::new(
                    seed,
                    Implementation::Lamport,
                    128,
                    (seeds::SCALE_LAMPORT_SCHEDULE, seeds::SCALE_LAMPORT_DROPS),
                ),
            ],
            verified: OnceLock::new(),
        }
    }

    fn op(inputs: &Inputs, _index: usize) -> Result<Vec<RunReport>, String> {
        inputs.runs.iter().map(run_one).collect()
    }

    fn check(inputs: &Inputs, _index: usize, reports: &Vec<RunReport>) -> Result<(), String> {
        let verified = inputs
            .verified
            .get_or_init(|| inputs.runs.iter().map(verify_one).collect())
            .as_ref()
            .map_err(|e| format!("verification pass: {e}"))?;
        for ((run, report), reference) in inputs.runs.iter().zip(reports).zip(verified) {
            let what = format!("{} n={}", run.config.implementation.label(), run.config.n);
            let tag = |e: String| format!("{what}: {e}");
            checks::quiescent(run.config.n, report.thinking, report.nonempty_channels)
                .map_err(tag)?;
            checks::conservation(report.stats, report.drops).map_err(tag)?;
            if (report.stats, report.events) != (reference.stats, reference.events) {
                return Err(tag(format!(
                    "stats {:?} after {} events differ from the verification pass's {:?} after {}",
                    report.stats, report.events, reference.stats, reference.events
                )));
            }
        }
        Ok(())
    }

    /// Client requests the schedules issue per op.
    fn work(inputs: &Inputs, _index: usize) -> f64 {
        inputs
            .runs
            .iter()
            .map(|r| r.schedule.events().len() as f64)
            .sum()
    }
}
