//! Output checks applied to every mapped report: the report's own
//! invariants (`cgra_sim::validate_report`), then a machine-simulator
//! run that must execute every route, then a comparison against the
//! reference interpreter. The last differs legitimately for kernels
//! with racy memory accesses, so it is counted, not failed.

use cgra_arch::Cgra;
use cgra_dfg::{Dfg, Operation};
use cgra_sim::{interpret, validate_report, MachineSimulator, SimEnv};
use monomap_core::api::{MapOutcome, MapReport};

use crate::rng::Rng;

/// Iterations each mapped loop is simulated for.
const SIM_ITERATIONS: usize = 6;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Valid, and the machine agrees with the interpreter.
    Ok,
    /// Valid and executed, but outputs or memory differ from the
    /// interpreter (`sim.reference_mismatch`).
    Mismatch,
    /// Not mapped, invalid, or the machine could not execute it.
    Failed(String),
}

/// A seeded environment with one input stream per input channel.
pub fn env_for(dfg: &Dfg, rng: &mut Rng) -> SimEnv {
    let channels = dfg
        .nodes()
        .filter_map(|n| match dfg.op(n) {
            Operation::Input(ch) => Some(ch as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut value = || (rng.below(2001) as i64) - 1000;
    let memory: Vec<i64> = (0..64).map(|_| value()).collect();
    let mut env = SimEnv::new(64).with_memory(memory);
    for _ in 0..channels {
        env = env.with_input_stream((0..SIM_ITERATIONS).map(|_| value()).collect());
    }
    env
}

pub fn check(dfg: &Dfg, cgra: &Cgra, report: &MapReport, env: &SimEnv) -> Verdict {
    if !matches!(report.outcome, MapOutcome::Mapped { .. }) {
        return Verdict::Failed(format!("{}: not mapped: {:?}", dfg.name(), report.outcome));
    }
    if let Err(e) = validate_report(dfg, cgra, report) {
        return Verdict::Failed(format!("{}: {e}", dfg.name()));
    }
    let mapping = report
        .mapping
        .as_ref()
        .expect("validated Mapped report has a mapping");
    let machine = MachineSimulator::new(cgra, dfg, mapping)
        .with_max_route_hops(mapping.declared_route_bound())
        .run(env, SIM_ITERATIONS);
    let machine = match machine {
        Ok(m) => m,
        Err(e) => return Verdict::Failed(format!("{}: machine run failed: {e}", dfg.name())),
    };
    match interpret(dfg, env, SIM_ITERATIONS) {
        Ok(r) if r.outputs == machine.outputs && r.memory == machine.memory => Verdict::Ok,
        Ok(_) => Verdict::Mismatch,
        Err(e) => Verdict::Failed(format!("{}: reference run failed: {e}", dfg.name())),
    }
}

/// Tally of verdicts over one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub checked: usize,
    pub failed: usize,
    pub mismatched: usize,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn add(&mut self, verdict: Verdict) {
        self.checked += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Mismatch => self.mismatched += 1,
            Verdict::Failed(why) => self.fail(why),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monomap_core::api::{EngineId, MapRequest, MappingService};

    #[test]
    fn a_solved_kernel_checks_and_a_corrupted_one_fails() {
        let cgra = Cgra::new(4, 4).unwrap();
        let dfg = cgra_dfg::suite::generate("bitcount");
        let env = env_for(&dfg, &mut Rng::new(5));
        let report =
            MappingService::new(&cgra).map(&MapRequest::new(EngineId::Decoupled, dfg.clone()));
        assert!(!matches!(
            check(&dfg, &cgra, &report, &env),
            Verdict::Failed(_)
        ));
        let other = cgra_dfg::suite::generate("crc32");
        assert!(matches!(
            check(&other, &cgra, &report, &env),
            Verdict::Failed(_)
        ));
    }
}
