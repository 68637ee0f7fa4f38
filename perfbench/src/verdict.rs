//! `verdict`: the exhaustive and symmetry-quotient fair self-checks of
//! the n=3 TME model, unwrapped and wrapped.

use std::collections::VecDeque;
use std::sync::OnceLock;

use graybox_core::gcl::Program;
use graybox_core::tme_abstract::{build_n, AbstractTmeN, TmeReducedVerdicts, TmeVerdicts};

use crate::checks;
use crate::harness::Workload;

/// Processes in the model.
pub const N: usize = 3;

pub struct Verdict;

pub struct Inputs {
    tme: AbstractTmeN,
    /// Legitimate states found by the benchmark's own search, computed
    /// at the first check.
    bfs_legitimate: OnceLock<usize>,
}

impl Workload for Verdict {
    type Inputs = Inputs;
    type Output = (TmeVerdicts, TmeReducedVerdicts);

    fn setup(_seed: u64) -> Inputs {
        Inputs {
            tme: build_n(N).expect("the n=3 model builds"),
            bfs_legitimate: OnceLock::new(),
        }
    }

    fn op(inputs: &Inputs, _index: usize) -> Result<Self::Output, String> {
        let full = inputs.tme.check().map_err(|e| e.to_string())?;
        let reduced = inputs.tme.reduced_check().map_err(|e| e.to_string())?;
        Ok((full, reduced))
    }

    fn check(inputs: &Inputs, _index: usize, (full, reduced): &Self::Output) -> Result<(), String> {
        let legit = *inputs
            .bfs_legitimate
            .get_or_init(|| bfs_reachable(inputs.tme.wrapped_program(), 0));
        checks::verdict(N, full, reduced, legit)
    }

    /// States decided per op: the full space once by the exhaustive
    /// engine and once by the quotient engine.
    fn work(_inputs: &Inputs, _index: usize) -> f64 {
        2.0 * checks::tme_num_states(N) as f64
    }
}

/// Number of states reachable from `init` by a plain breadth-first
/// search over [`Program::step`].
pub fn bfs_reachable(program: &Program, init: usize) -> usize {
    let total = program.state_space().expect("the model's space is bounded");
    let mut seen = vec![false; total];
    let mut queue = VecDeque::from([init]);
    seen[init] = true;
    let mut count = 1;
    while let Some(state) = queue.pop_front() {
        for next in program.step(state).expect("the model steps in domain") {
            if !seen[next] {
                seen[next] = true;
                count += 1;
                queue.push_back(next);
            }
        }
    }
    count
}
