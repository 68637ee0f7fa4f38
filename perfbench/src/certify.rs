//! `certify`: the static convergence certifier on the flagship stair
//! certificate and its two seeded mutants, plus the n=3 lint passes.

use std::sync::OnceLock;

use graybox_analyze::{certify_tme, run_all_passes, CertifyTarget, ModelShape, Report};
use graybox_core::gcl::Program;
use graybox_core::tme_abstract::{build_n, nproc_shape, program_nproc_ir};

use crate::harness::Workload;

/// Processes in the linted model.
pub const LINT_N: usize = 3;

pub struct Certify;

pub struct Inputs {
    /// The wrapped n=3 IR model and its ownership shape, for the lint.
    lint_model: Program,
    lint_shape: ModelShape,
    /// Whether the exhaustive n=2 check finds the wrapped model
    /// stabilizing, computed at the first check.
    exhaustive_converges: OnceLock<bool>,
}

pub struct Output {
    flagship: Report,
    dropped_guard: Report,
    bad_rank: Report,
    lint: Report,
}

impl Workload for Certify {
    type Inputs = Inputs;
    type Output = Output;

    fn setup(_seed: u64) -> Inputs {
        let (lint_model, lint_shape) = lint_inputs();
        Inputs {
            lint_model,
            lint_shape,
            exhaustive_converges: OnceLock::new(),
        }
    }

    fn op(inputs: &Inputs, _index: usize) -> Result<Output, String> {
        Ok(Output {
            flagship: certify_tme(CertifyTarget::Flagship),
            dropped_guard: certify_tme(CertifyTarget::MutantDroppedGuard),
            bad_rank: certify_tme(CertifyTarget::MutantBadRank),
            lint: lint(&inputs.lint_model, &inputs.lint_shape)?,
        })
    }

    fn check(inputs: &Inputs, _index: usize, out: &Output) -> Result<(), String> {
        let exhaustive = *inputs.exhaustive_converges.get_or_init(|| {
            build_n(2)
                .and_then(|tme| tme.check())
                .expect("the n=2 model checks")
                .wrapped_stabilizes
        });
        check_reports(out, exhaustive)
    }

    /// Certifications per op: three stair certifications and one lint.
    fn work(_inputs: &Inputs, _index: usize) -> f64 {
        4.0
    }
}

/// The model `lint_tme(LINT_N, true)` builds before it runs the passes.
pub fn lint_inputs() -> (Program, ModelShape) {
    let (program, _init) = program_nproc_ir(LINT_N, true);
    let shape = ModelShape::for_nproc(&nproc_shape(LINT_N, true));
    (program, shape)
}

/// The passes of `lint_tme(LINT_N, true)` on a prebuilt model.
pub fn lint(program: &Program, shape: &ModelShape) -> Result<Report, String> {
    run_all_passes(program, shape, "tme-n3-wrapped").map_err(|e| format!("{e:?}"))
}

/// The certify checks: the flagship is clean and agrees with the
/// exhaustive verdict, each mutant is rejected by the obligation its
/// mutation breaks, and the lint finds no error.
fn check_reports(out: &Output, exhaustive_converges: bool) -> Result<(), String> {
    if !out.flagship.is_clean() {
        return Err(format!("flagship rejected: {:?}", out.flagship.findings));
    }
    if out.flagship.is_clean() != exhaustive_converges {
        return Err("certificate and exhaustive n=2 check disagree".to_string());
    }
    let noinc_on_wrapper = out.dropped_guard.findings.iter().any(|f| {
        f.message.contains("obligation noinc")
            && f.command
                .as_deref()
                .is_some_and(|c| c.starts_with("wrapper"))
    });
    if out.dropped_guard.is_clean() || !noinc_on_wrapper {
        return Err(
            "dropped-guard mutant not rejected by a noinc obligation on a wrapper command"
                .to_string(),
        );
    }
    let progress = out
        .bad_rank
        .findings
        .iter()
        .any(|f| f.message.contains("obligation progress"));
    if out.bad_rank.is_clean() || !progress {
        return Err("bad-rank mutant not rejected by a progress obligation".to_string());
    }
    if out.lint.num_errors() != 0 {
        return Err(format!("lint errors: {:?}", out.lint.findings));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports() -> Output {
        Certify::op(&Certify::setup(0), 0).unwrap()
    }

    #[test]
    fn accepts_the_true_reports() {
        check_reports(&reports(), true).unwrap();
    }

    #[test]
    fn rejects_a_flipped_verdict() {
        // The exhaustive engine saying "does not converge" contradicts a
        // clean certificate.
        assert!(check_reports(&reports(), false).is_err());
        // A mutant that comes back clean is a flipped verdict too.
        let mut out = reports();
        out.bad_rank.findings.clear();
        assert!(check_reports(&out, true).is_err());
        let mut out = reports();
        out.dropped_guard = out.flagship.clone();
        assert!(check_reports(&out, true).is_err());
    }
}
