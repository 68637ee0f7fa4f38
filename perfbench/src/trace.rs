//! The traced run: feeds every workload's seeded inputs through the
//! public functions of each layer in turn, timing the calls from
//! outside, and reports the per-layer metrics. The timed runs never
//! execute this module.

use std::hint::black_box;
use std::time::Instant;

use graybox_analyze::stair::check_stair;
use graybox_analyze::{lint_tme, param, tme_stair_certificate, PairDynamics};
use graybox_core::gcl::{GclError, Program, State, VarRef};
use graybox_core::sweep::available_workers;
use graybox_core::tme_abstract::{nproc_symmetry, program_nproc, program_nproc_ir};
use graybox_faults::{failed, replay_campaign, run_campaign, run_tme, shrink};
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};
use graybox_simnet::{EventQueue, OpLog, PackedEvent, TimerWheel};
use graybox_spec::convergence;

use crate::harness::{median, Args, Outcome};
use crate::{campaign, certify, checks, scale, seeds, verdict};

/// Repetitions of each cheap probe; the median is reported.
const REPEAT: usize = 5;
/// Campaign scenarios the traced run walks through the layers.
const TRACE_SCENARIOS: usize = 4;
/// States in the `sym.canonicalize_ns` sample.
const CANON_SAMPLE: usize = 100_000;
/// Pops (each followed by a push) per `simnet.queue_hold_ns` probe.
const HOLD_OPS: u64 = 2_000_000;

type Probe = fn(u64, &mut Outcome) -> Result<(), String>;

/// Runs every layer probe, workload by workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let probes: [(&str, Probe); 4] = [
        ("verdict", verdict_layers),
        ("certify", certify_layers),
        ("campaign", campaign_layers),
        ("scale", scale_layers),
    ];
    for (name, probe) in probes {
        outcome.attempted += 1;
        if let Err(message) = probe(args.seed, &mut outcome) {
            eprintln!("traced {name}: {message}");
            outcome.correct = false;
        }
    }
    outcome
}

/// Median wall time of `REPEAT` calls, in ms, with the last result.
fn median_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPEAT);
    let mut last = None;
    for _ in 0..REPEAT {
        let (ms, value) = once_ms(&mut f);
        times.push(ms);
        last = Some(value);
    }
    (median(times), last.expect("REPEAT > 0"))
}

/// Wall time of one call, in ms, with its result.
fn once_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, value)
}

fn gcl(e: GclError) -> String {
    e.to_string()
}

fn expect(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

/// The n-process model's initial state is the all-zero word; its
/// orbit closure under relabeling frees the last variable, `ord`.
/// Variable references are declaration positions, so a scratch program
/// with the same arity supplies them.
fn zero_except_last(num_vars: usize) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync {
    let mut scratch = Program::new();
    let vars: Vec<VarRef> = (0..num_vars)
        .map(|i| scratch.var(format!("v{i}"), 2))
        .collect();
    move |s| vars[..vars.len() - 1].iter().all(|&v| s.get(v) == 0)
}

fn verdict_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let n = verdict::N;
    let workers = available_workers();
    let (unwrapped, unwrapped_init) = program_nproc(n, false);
    let (wrapped, wrapped_init) = program_nproc(n, true);

    let (serial_ms, serial) = once_ms(|| wrapped.compile_on(1, &wrapped_init));
    let serial_edges = serial.map_err(gcl)?.system().edge_count();
    let (compile_ms, compiled) = once_ms(|| wrapped.compile_on(workers, &wrapped_init));
    let compiled = compiled.map_err(gcl)?;
    let system = compiled.system();
    expect(
        system.edge_count() == serial_edges,
        "compile differs by worker count",
    )?;
    out.push("gcl.compile_ms", compile_ms, "ms");
    out.push("gcl.compile_serial_ms", serial_ms, "ms");
    out.push("gcl.edges", system.edge_count() as f64, "count");
    let (scc_ms, (_ids, scc_count)) = once_ms(|| system.sccs_on(workers));
    out.push("par.scc_ms", scc_ms, "ms");
    out.push("par.scc_count", scc_count as f64, "count");
    let (reach_ms, reached) = once_ms(|| system.reachable_from_on(workers, system.init().iter()));
    out.push("par.reach_ms", reach_ms, "ms");
    let legitimate = reached.len();
    drop(compiled);

    let (ms, report) = once_ms(|| unwrapped.fair_self_check_on(workers, &unwrapped_init));
    expect(
        !report.map_err(gcl)?.holds(),
        "unwrapped full check stabilizes",
    )?;
    out.push("gcl.fair_check.unwrapped_ms", ms, "ms");
    let (ms, report) = once_ms(|| wrapped.fair_self_check_on(workers, &wrapped_init));
    let report = report.map_err(gcl)?;
    expect(report.holds(), "wrapped full check does not stabilize")?;
    expect(
        report.num_legitimate() == legitimate,
        "legitimate count differs from BFS",
    )?;
    out.push("gcl.fair_check.wrapped_ms", ms, "ms");

    let sym_init = zero_except_last(wrapped.variables().len());
    let sym_unwrapped = nproc_symmetry(n, false);
    let sym_wrapped = nproc_symmetry(n, true);
    let (ms, report) =
        once_ms(|| unwrapped.fair_self_check_sym_on(workers, &sym_unwrapped, &sym_init));
    expect(
        !report.map_err(gcl)?.holds(),
        "unwrapped quotient stabilizes",
    )?;
    out.push("sym.fair_check.unwrapped_ms", ms, "ms");
    let (ms, report) = once_ms(|| wrapped.fair_self_check_sym_on(workers, &sym_wrapped, &sym_init));
    let report = report.map_err(gcl)?;
    expect(report.holds(), "wrapped quotient does not stabilize")?;
    expect(
        report.num_canonical() * checks::factorial(n) == checks::tme_num_states(n),
        "canonical count times n! is not the state count",
    )?;
    out.push("sym.fair_check.wrapped_ms", ms, "ms");
    out.push(
        "sym.canonical_states",
        report.num_canonical() as f64,
        "count",
    );

    let mut rng = SmallRng::seed_from_u64(seeds::derive(seed, seeds::CANON_SAMPLE));
    let total = checks::tme_num_states(n);
    let sample: Vec<usize> = (0..CANON_SAMPLE).map(|_| rng.gen_range(0..total)).collect();
    let (ms, ()) = median_ms(|| {
        for &state in &sample {
            black_box(
                wrapped
                    .canonicalize(&sym_wrapped, state)
                    .expect("state in domain"),
            );
        }
    });
    out.push("sym.canonicalize_ns", ms * 1e6 / CANON_SAMPLE as f64, "ns");
    Ok(())
}

fn certify_layers(_seed: u64, out: &mut Outcome) -> Result<(), String> {
    // The certifier discharges its parametric side conditions at n=3.
    const PARAM_N: usize = 3;
    let (pair, _) = program_nproc_ir(2, true);
    let (nproc, _) = program_nproc_ir(PARAM_N, true);
    let (ms, dynamics) = median_ms(|| PairDynamics::from_pair_program(&pair));
    let dynamics = dynamics?;
    out.push("stair.dynamics_ms", ms, "ms");
    let cert = tme_stair_certificate();
    let (ms, (failures, stats)) = median_ms(|| check_stair(&dynamics, &cert));
    expect(failures.is_empty(), "flagship stair obligations fail")?;
    out.push("stair.check_ms", ms, "ms");
    out.push("stair.obligations", stats.obligations as f64, "count");

    let (ms, failures) = median_ms(|| param::check_pair_transitivity(PARAM_N));
    expect(failures.is_empty(), "transitivity fails")?;
    out.push("param.transitivity_ms", ms, "ms");
    let (ms, (failures, reduction)) =
        median_ms(|| param::check_projection_reduction(PARAM_N, &nproc, &dynamics));
    expect(failures.is_empty(), "projection reduction fails")?;
    out.push("param.reduction_ms", ms, "ms");
    let (ms, failures) = median_ms(|| param::check_order_preservation(PARAM_N, &nproc));
    expect(failures.is_empty(), "order preservation fails")?;
    out.push("param.order_ms", ms, "ms");
    let (ms, failures) = median_ms(|| param::check_counting_case(PARAM_N, &nproc));
    expect(failures.is_empty(), "counting case fails")?;
    out.push("param.counting_ms", ms, "ms");
    out.push("param.cone_points", reduction.total_points as f64, "count");

    let (ms, report) = median_ms(|| lint_tme(certify::LINT_N, true));
    expect(report.num_errors() == 0, "lint reports errors")?;
    out.push("lint.passes_ms", ms, "ms");
    Ok(())
}

fn campaign_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let (mut run_ms, mut record_ms, mut replay_ms, mut text_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut analyze_ms, mut shrink_ms) = (0.0, 0.0);
    let (mut ops, mut text_bytes, mut steps, mut candidates, mut ticks) = (0, 0, 0, 0, 0);
    for index in 0..TRACE_SCENARIOS {
        let scenario = campaign::scenario(seed, index);
        for config in &scenario.wrapped {
            // The recording cost is a difference of two runs, so both are
            // repeated, interleaved, and their medians compared. Both
            // timings include freeing the run's trace, which `run_tme`
            // does before it returns.
            let (mut tme_times, mut campaign_times) = (Vec::new(), Vec::new());
            for _ in 0..REPEAT {
                tme_times.push(once_ms(|| run_tme(config)).0);
                campaign_times.push(once_ms(|| run_campaign(config).outcome).0);
            }
            let (tme_ms, campaign_ms) = (median(tme_times), median(campaign_times));
            let outcome = run_tme(config);
            let run = run_campaign(config);
            expect(
                run.outcome.verdict == outcome.verdict,
                "recording changed the verdict",
            )?;
            run_ms += tme_ms;
            record_ms += campaign_ms - tme_ms;
            let (ms, (text, parsed)) = once_ms(|| {
                let text = run.oplog.to_text();
                let parsed = OpLog::parse(&text);
                (text, parsed)
            });
            text_ms += ms;
            let parsed = parsed.map_err(|e| format!("{e:?}"))?;
            let (ms, replayed) = once_ms(|| replay_campaign(config, &parsed));
            replay_ms += ms;
            checks::replay_matches(&run, &replayed.map_err(|e| format!("{e:?}"))?)?;
            let (ms, report) = once_ms(|| convergence::analyze(&run.trace, config.grace));
            analyze_ms += ms;
            expect(report.stabilized(), "wrapped campaign does not stabilize")?;
            ops += run.oplog.len();
            text_bytes += text.len();
            steps += run.trace.steps().len();
            ticks += run.outcome.verdict.convergence_ticks.unwrap_or(0);
        }
        for twin in &scenario.twins {
            if failed(&run_tme(twin)) {
                let (ms, shrunk) = once_ms(|| shrink(twin, failed));
                shrink_ms += ms;
                candidates += shrunk.ok_or("failing twin does not shrink")?.campaigns_run;
            }
        }
    }
    let per_op = |x: f64| x / TRACE_SCENARIOS as f64;
    out.push("faults.run_ms", per_op(run_ms), "ms");
    out.push("simnet.oplog.record_ms", per_op(record_ms), "ms");
    out.push("simnet.oplog.replay_ms", per_op(replay_ms), "ms");
    out.push("simnet.oplog.text_ms", per_op(text_ms), "ms");
    out.push("simnet.oplog.ops", per_op(ops as f64), "count");
    out.push(
        "simnet.oplog.text_bytes",
        per_op(text_bytes as f64),
        "bytes",
    );
    out.push("spec.analyze_ms", per_op(analyze_ms), "ms");
    out.push("spec.trace_steps", per_op(steps as f64), "count");
    out.push("faults.shrink_ms", per_op(shrink_ms), "ms");
    out.push(
        "faults.shrink_candidates",
        per_op(candidates as f64),
        "count",
    );
    out.push("spec.convergence_ticks", per_op(ticks as f64), "ticks");
    Ok(())
}

fn scale_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let inputs = <scale::Scale as crate::harness::Workload>::setup(seed);
    let mut reports = Vec::new();
    for (run, name) in inputs.runs.iter().zip(["tme.ra_ms", "tme.lamport_ms"]) {
        let (ms, report) = once_ms(|| scale::run_one(run));
        out.push(name, ms, "ms");
        reports.push((ms, report?));
    }
    let sum = |f: fn(&scale::RunReport) -> u64| reports.iter().map(|(_, r)| f(r)).sum::<u64>();
    let wall_ms: f64 = reports.iter().map(|(ms, _)| ms).sum();
    let events = sum(|r| r.events);
    let sent = sum(|r| r.stats.sent);
    let entries = sum(|r| r.entries);
    out.push("simnet.events", events as f64, "count");
    out.push("simnet.ns_per_event", wall_ms * 1e6 / events as f64, "ns");
    let pending = 2 * inputs.runs[0].config.n as u64;
    let (ms, _) = median_ms(|| queue_hold::<TimerWheel>(pending, HOLD_OPS));
    out.push("simnet.queue_hold_ns", ms * 1e6 / HOLD_OPS as f64, "ns");
    out.push("simnet.sent", sent as f64, "count");
    out.push(
        "simnet.delivered",
        sum(|r| r.stats.delivered) as f64,
        "count",
    );
    out.push("simnet.skipped", sum(|r| r.stats.skipped) as f64, "count");
    out.push("tme.entries", entries as f64, "count");
    out.push("tme.msgs_per_entry", sent as f64 / entries as f64, "count");
    let resends = sum(|r| r.resends);
    out.push("wrapper.resends", resends as f64, "count");
    out.push("wrapper.firings", sum(|r| r.firings) as f64, "count");
    out.push(
        "wrapper.resend_share",
        resends as f64 / sent as f64,
        "ratio",
    );
    out.push("scale.drain_ticks", sum(|r| r.drain_ticks) as f64, "ticks");
    Ok(())
}

/// Drives a queue alone on a hold pattern: `pending` timers armed, each
/// pop followed by a push a small seeded offset ahead, as when every
/// process of a large system keeps a heartbeat and a wrapper timer
/// armed. Returns a checksum over the pops so the work is kept.
fn queue_hold<Q: EventQueue>(pending: u64, ops: u64) -> u64 {
    let mut queue = Q::default();
    let mut rng = SmallRng::seed_from_u64(pending);
    let mut seq = 0;
    for i in 0..pending {
        queue.push(i % 128, seq, PackedEvent::timer(0, 0));
        seq += 1;
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (time, popped, _) = queue.pop().expect("a hold queue never empties");
        checksum = checksum.wrapping_mul(31).wrapping_add(time ^ popped);
        queue.push(
            time + rng.gen_range(1..=64u64),
            seq,
            PackedEvent::timer(0, 0),
        );
        seq += 1;
    }
    checksum
}
