//! `campaign`: the record → text → replay → shrink debugging loop on
//! seeded fault scenarios at n=8.

use graybox_faults::{
    failed, replay_campaign, run_campaign, run_tme, shrink, CampaignRun, FaultKind, FaultPlan,
    RunConfig, RunOutcome, ShrinkOutcome,
};
use graybox_simnet::OpLog;
use graybox_spec::Trace;
use graybox_tme::{Implementation, WorkloadConfig};
use graybox_wrapper::WrapperConfig;

use crate::checks;
use crate::harness::Workload;
use crate::seeds;

/// Processes per scenario.
pub const N: usize = 8;
/// Client requests per process.
pub const REQUESTS: usize = 10;
/// Fault events per plan, drawn over [`FAULT_WINDOW`] from
/// [`FAULT_KINDS`]. Process-state corruption breaks every unwrapped twin,
/// so every scenario runs the whole loop, shrink included, and ops cost
/// alike whatever the seed (a mix of all nine kinds leaves about a third
/// of the twins unbroken and op times three modes apart; see the README).
pub const FAULTS: usize = 12;
pub const FAULT_WINDOW: (u64, u64) = (100, 600);
pub const FAULT_KINDS: [FaultKind; 1] = [FaultKind::CorruptProcess];
/// The wrapper timeout θ of W′.
pub const THETA: u64 = 8;
/// Scenarios per round.
pub const ROUND: usize = 16;
/// The two implementations every scenario runs.
pub const IMPLEMENTATIONS: [Implementation; 2] =
    [Implementation::RicartAgrawala, Implementation::Lamport];

pub struct Campaign;

/// One seeded fault scenario: a wrapped configuration per
/// implementation and its unwrapped twin (same seed, same plan).
pub struct Scenario {
    pub wrapped: [RunConfig; 2],
    pub twins: [RunConfig; 2],
}

/// The scenario of stream `index` under the workload seed.
pub fn scenario(seed: u64, index: usize) -> Scenario {
    let stream = seeds::CAMPAIGN_SCENARIO + index as u64;
    let scenario_seed = seeds::derive(seed, stream);
    let plan = FaultPlan::random_mix(scenario_seed, FAULT_WINDOW, FAULTS, &FAULT_KINDS);
    let workload = WorkloadConfig {
        n: N,
        requests_per_process: REQUESTS,
        ..WorkloadConfig::default()
    };
    let twin = |implementation| {
        RunConfig::new(N, implementation)
            .seed(scenario_seed)
            .workload(workload)
            .faults(plan.clone())
    };
    let twins = IMPLEMENTATIONS.map(twin);
    let wrapped = twins
        .clone()
        .map(|config| config.wrapper(WrapperConfig::timeout(THETA)));
    Scenario { wrapped, twins }
}

/// A wrapped campaign recorded, written as text, parsed back and
/// replayed.
pub struct Recorded {
    pub run: CampaignRun,
    pub parsed: OpLog,
    pub replayed: CampaignRun,
}

pub struct Output {
    pub recorded: Vec<Recorded>,
    /// Each unwrapped twin's outcome, and its shrink when it failed.
    pub twins: Vec<(RunOutcome, Option<ShrinkOutcome>)>,
}

/// Record, text round trip, verified replay.
pub fn record_and_replay(config: &RunConfig) -> Result<Recorded, String> {
    let run = run_campaign(config);
    let text = run.oplog.to_text();
    let parsed = OpLog::parse(&text).map_err(|e| format!("oplog text does not parse: {e:?}"))?;
    let replayed =
        replay_campaign(config, &parsed).map_err(|e| format!("replay diverged: {e:?}"))?;
    Ok(Recorded {
        run,
        parsed,
        replayed,
    })
}

impl Workload for Campaign {
    type Inputs = Vec<Scenario>;
    type Output = Output;

    fn setup(seed: u64) -> Vec<Scenario> {
        (0..ROUND).map(|i| scenario(seed, i)).collect()
    }

    fn round_len(inputs: &Vec<Scenario>) -> usize {
        inputs.len()
    }

    fn op(inputs: &Vec<Scenario>, index: usize) -> Result<Output, String> {
        let scenario = &inputs[index];
        let recorded = scenario
            .wrapped
            .iter()
            .map(record_and_replay)
            .collect::<Result<_, _>>()?;
        let twins = scenario
            .twins
            .iter()
            .map(|config| {
                let outcome = run_tme(config);
                let shrunk = failed(&outcome).then(|| shrink(config, failed)).flatten();
                (outcome, shrunk)
            })
            .collect();
        Ok(Output { recorded, twins })
    }

    fn check(inputs: &Vec<Scenario>, index: usize, out: &Output) -> Result<(), String> {
        let scenario = &inputs[index];
        for (config, rec) in scenario.wrapped.iter().zip(&out.recorded) {
            let what = config.implementation.label();
            let tag = |e: String| format!("{what}: {e}");
            checks::stabilized(&rec.run.outcome).map_err(tag)?;
            let converged_at = converged_at(&rec.run.trace, &rec.run.outcome)
                .ok_or_else(|| tag("stabilized without a convergence time".into()))?;
            checks::no_overlapping_eaters(eaters(&rec.run.trace), converged_at).map_err(tag)?;
            checks::text_round_trip(&rec.run.oplog, &rec.parsed).map_err(tag)?;
            checks::replay_matches(&rec.run, &rec.replayed).map_err(tag)?;
            let wrong_seed = config.clone().seed(config.seed ^ 1);
            if replay_campaign(&wrong_seed, &rec.parsed).is_ok() {
                return Err(tag("replay under a wrong seed was accepted".into()));
            }
        }
        for ((twin, wrapped), (outcome, shrunk)) in
            scenario.twins.iter().zip(&scenario.wrapped).zip(&out.twins)
        {
            let what = twin.implementation.label();
            match (failed(outcome), shrunk) {
                (false, None) => {}
                (true, Some(s)) => {
                    let still_fails = failed(&run_tme(&twin.clone().faults(s.minimal.clone())));
                    let wrapped_twin = run_tme(&wrapped.clone().faults(s.minimal.clone()));
                    checks::shrunk(s.original_len, s.minimal.len(), still_fails, &wrapped_twin)
                        .map_err(|e| format!("{what} twin: {e}"))?;
                }
                (true, None) => return Err(format!("{what} twin failed but did not shrink")),
                (false, Some(_)) => return Err(format!("{what} twin passed but was shrunk")),
            }
        }
        Ok(())
    }

    /// One fault scenario completed per op.
    fn work(_inputs: &Vec<Scenario>, _index: usize) -> f64 {
        1.0
    }
}

/// The time from which the run is reported converged.
pub fn converged_at(trace: &Trace, outcome: &RunOutcome) -> Option<u64> {
    let last_fault = trace.last_fault_time().map_or(0, |t| t.ticks());
    Some(last_fault + outcome.verdict.convergence_ticks?)
}

/// `(time, processes eating)` after every recorded step.
pub fn eaters(trace: &Trace) -> impl Iterator<Item = (u64, usize)> + '_ {
    trace.steps().iter().map(|step| {
        let eating = step.snapshots.iter().filter(|s| s.mode.is_eating()).count();
        (step.time.ticks(), eating)
    })
}
