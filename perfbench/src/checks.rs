//! Output checks. Each is a computation made apart from the program, or
//! a property the method must have — never a stored copy of an earlier
//! output. The tests at the bottom feed every check a wrong answer.

use graybox_core::tme_abstract::{TmeReducedVerdicts, TmeVerdicts};
use graybox_faults::{CampaignRun, RunOutcome};
use graybox_simnet::{OpLog, SimStats};

/// `n!`.
pub fn factorial(n: usize) -> usize {
    (2..=n).product()
}

/// Size of the n-process abstraction's state space, from its shape:
/// `3ⁿ` modes, `3^{n(n-1)}` channels, `2^{n(n-1)}` beliefs and `n!`
/// ground-truth orders.
pub fn tme_num_states(n: usize) -> usize {
    let pairs = u32::try_from(n * (n - 1)).expect("small n");
    let n32 = u32::try_from(n).expect("small n");
    3usize.pow(n32) * 3usize.pow(pairs) * 2usize.pow(pairs) * factorial(n)
}

/// The `verdict` checks: the paper's predictions, the state count, the
/// quotient agreeing field for field, the free action of relabeling, and
/// the legitimate count of an independent breadth-first search.
pub fn verdict(
    n: usize,
    full: &TmeVerdicts,
    reduced: &TmeReducedVerdicts,
    bfs_legitimate: usize,
) -> Result<(), String> {
    if !full.as_predicted() {
        return Err(format!(
            "full verdicts are not as the paper predicts: {full:?}"
        ));
    }
    let expected = tme_num_states(n);
    if full.num_states != expected {
        return Err(format!(
            "num_states {} but the shape gives {expected}",
            full.num_states
        ));
    }
    if reduced.verdicts != *full {
        return Err(format!(
            "quotient verdicts {:?} differ from full verdicts {full:?}",
            reduced.verdicts
        ));
    }
    let order = factorial(n);
    if reduced.group_order != order || reduced.num_canonical * order != full.num_states {
        return Err(format!(
            "{} canonical states × group order {} is not {} states",
            reduced.num_canonical, reduced.group_order, full.num_states
        ));
    }
    if full.num_legitimate != bfs_legitimate {
        return Err(format!(
            "{} legitimate states, but breadth-first search reaches {bfs_legitimate}",
            full.num_legitimate
        ));
    }
    Ok(())
}

/// Finds the first step at or after `from` where more than one process
/// is eating, from `(time, eaters)` pairs.
pub fn no_overlapping_eaters(
    steps: impl IntoIterator<Item = (u64, usize)>,
    from: u64,
) -> Result<(), String> {
    match steps
        .into_iter()
        .find(|&(time, eaters)| time >= from && eaters > 1)
    {
        Some((time, eaters)) => Err(format!("{eaters} processes eating at t={time}")),
        None => Ok(()),
    }
}

/// A recorded wrapped campaign must stabilize with nobody starved.
pub fn stabilized(outcome: &RunOutcome) -> Result<(), String> {
    if outcome.verdict.stabilized && outcome.verdict.starved == 0 {
        Ok(())
    } else {
        Err(format!(
            "wrapped campaign did not stabilize: {:?}",
            outcome.verdict
        ))
    }
}

/// The oplog survives its text round trip.
pub fn text_round_trip(log: &OpLog, parsed: &OpLog) -> Result<(), String> {
    if log == parsed {
        Ok(())
    } else {
        Err(format!(
            "oplog changed in its text round trip ({} ops became {})",
            log.len(),
            parsed.len()
        ))
    }
}

/// A replay reproduces the recorded verdict, entries, messages sent and
/// failpoint counters.
pub fn replay_matches(recorded: &CampaignRun, replayed: &CampaignRun) -> Result<(), String> {
    let (a, b) = (&recorded.outcome, &replayed.outcome);
    if a.verdict != b.verdict {
        return Err(format!("replay verdict {:?} vs {:?}", b.verdict, a.verdict));
    }
    if a.entries != b.entries || a.messages_sent != b.messages_sent {
        return Err(format!(
            "replay entries/sent {:?}/{} vs {:?}/{}",
            b.entries, b.messages_sent, a.entries, a.messages_sent
        ));
    }
    if recorded.failpoints != replayed.failpoints {
        return Err(format!(
            "replay failpoints {} vs {}",
            replayed.failpoints.summary(),
            recorded.failpoints.summary()
        ));
    }
    Ok(())
}

/// A shrunk schedule is strictly smaller than the original, still fails,
/// and its wrapped twin stabilizes.
pub fn shrunk(
    original_len: usize,
    minimal_len: usize,
    still_fails: bool,
    wrapped_twin: &RunOutcome,
) -> Result<(), String> {
    if minimal_len >= original_len {
        return Err(format!(
            "shrunk schedule has {minimal_len} events, not fewer than {original_len}"
        ));
    }
    if !still_fails {
        return Err("shrunk schedule no longer fails".to_string());
    }
    stabilized(wrapped_twin).map_err(|e| format!("on the shrunk schedule, {e}"))
}

/// Message conservation at quiescence: every message sent was delivered
/// or found dropped, and no more were found dropped than were dropped.
pub fn conservation(stats: SimStats, drops: u64) -> Result<(), String> {
    if stats.sent != stats.delivered + stats.skipped {
        return Err(format!(
            "sent {} != delivered {} + skipped {}",
            stats.sent, stats.delivered, stats.skipped
        ));
    }
    if stats.skipped > drops {
        return Err(format!(
            "{} deliveries skipped but only {drops} messages dropped",
            stats.skipped
        ));
    }
    Ok(())
}

/// A drained simulation is quiescent: every process thinking, every
/// channel empty.
pub fn quiescent(n: usize, thinking: usize, nonempty_channels: usize) -> Result<(), String> {
    if thinking == n && nonempty_channels == 0 {
        Ok(())
    } else {
        Err(format!(
            "not quiescent: {thinking} of {n} thinking, {nonempty_channels} channels non-empty"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_core::tme_abstract::build_n;
    use graybox_faults::{
        failed, replay_campaign, run_campaign, run_tme, FaultKind, FaultPlan, RunConfig,
    };
    use graybox_tme::Implementation;
    use graybox_wrapper::WrapperConfig;

    fn two_process_verdicts() -> (TmeVerdicts, TmeReducedVerdicts, usize) {
        let tme = build_n(2).unwrap();
        let full = tme.check().unwrap();
        let reduced = tme.reduced_check().unwrap();
        let legit = full.num_legitimate;
        (full, reduced, legit)
    }

    #[test]
    fn state_count_matches_the_shape() {
        assert_eq!(tme_num_states(3), 7_558_272);
        assert_eq!(tme_num_states(2), build_n(2).unwrap().num_states());
    }

    #[test]
    fn verdict_check_accepts_the_true_answer() {
        let (full, reduced, legit) = two_process_verdicts();
        verdict(2, &full, &reduced, legit).unwrap();
    }

    #[test]
    fn verdict_check_rejects_a_flipped_verdict() {
        let (mut full, reduced, legit) = two_process_verdicts();
        full.unwrapped_stabilizes = !full.unwrapped_stabilizes;
        assert!(verdict(2, &full, &reduced, legit).is_err());
        let (full, mut reduced, legit) = two_process_verdicts();
        reduced.verdicts.deadlock_quiescent = !reduced.verdicts.deadlock_quiescent;
        assert!(verdict(2, &full, &reduced, legit).is_err());
    }

    #[test]
    fn verdict_check_rejects_a_canonical_count_off_by_one() {
        let (full, mut reduced, legit) = two_process_verdicts();
        reduced.num_canonical += 1;
        assert!(verdict(2, &full, &reduced, legit).is_err());
    }

    #[test]
    fn verdict_check_rejects_a_wrong_legitimate_count() {
        let (full, reduced, legit) = two_process_verdicts();
        assert!(verdict(2, &full, &reduced, legit + 1).is_err());
    }

    #[test]
    fn eater_scan_rejects_an_overlapping_eaters_snapshot() {
        let steps = [(5, 2), (10, 1), (20, 2), (30, 0)];
        assert!(no_overlapping_eaters(steps, 21).is_ok());
        assert!(no_overlapping_eaters(steps, 11).is_err());
        assert!(no_overlapping_eaters(steps, 0).is_err());
    }

    fn small_campaign(seed: u64) -> RunConfig {
        RunConfig::new(3, Implementation::RicartAgrawala)
            .wrapper(WrapperConfig::timeout(8))
            .faults(FaultPlan::random_mix(seed, (40, 200), 6, &FaultKind::ALL))
            .seed(seed)
    }

    #[test]
    fn replay_checks_reject_a_tampered_oplog() {
        let config = small_campaign(3);
        let run = run_campaign(&config);
        let text = run.oplog.to_text();
        let parsed = OpLog::parse(&text).unwrap();
        text_round_trip(&run.oplog, &parsed).unwrap();
        let replayed = replay_campaign(&config, &parsed).unwrap();
        replay_matches(&run, &replayed).unwrap();

        // Change the value of the first recorded draw.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let draw = lines
            .iter()
            .position(|l| l.starts_with("d "))
            .expect("a recorded run draws");
        let (head, value) = lines[draw].rsplit_once(' ').unwrap();
        let bumped = value.parse::<u64>().unwrap() + 1;
        lines[draw] = format!("{head} {bumped}");
        let tampered = OpLog::parse(&(lines.join("\n") + "\n")).unwrap();
        assert!(text_round_trip(&run.oplog, &tampered).is_err());
        match replay_campaign(&config, &tampered) {
            Err(_) => {}
            Ok(replayed) => assert!(replay_matches(&run, &replayed).is_err()),
        }
    }

    #[test]
    fn replay_check_rejects_a_different_run() {
        let run = run_campaign(&small_campaign(3));
        let other = run_campaign(&small_campaign(4));
        assert!(replay_matches(&run, &other).is_err());
    }

    #[test]
    fn stabilization_and_shrink_checks_reject_failures() {
        let scenario = crate::campaign::scenario(1, 0);
        let outcome = run_tme(&scenario.twins[0]);
        assert!(failed(&outcome), "the unwrapped twin fails");
        assert!(stabilized(&outcome).is_err());
        let wrapped = run_tme(&scenario.wrapped[0]);
        stabilized(&wrapped).unwrap();
        shrunk(6, 2, true, &wrapped).unwrap();
        assert!(shrunk(6, 6, true, &wrapped).is_err());
        assert!(shrunk(6, 2, false, &wrapped).is_err());
        assert!(shrunk(6, 2, true, &outcome).is_err());
    }

    #[test]
    fn conservation_check_rejects_a_mismatch() {
        let good = SimStats {
            sent: 10,
            delivered: 8,
            skipped: 2,
        };
        conservation(good, 2).unwrap();
        let lost = SimStats {
            delivered: 7,
            ..good
        };
        assert!(conservation(lost, 2).is_err());
        assert!(conservation(good, 1).is_err());
    }

    #[test]
    fn quiescence_check_rejects_busy_ends() {
        quiescent(4, 4, 0).unwrap();
        assert!(quiescent(4, 3, 0).is_err());
        assert!(quiescent(4, 4, 1).is_err());
    }
}
