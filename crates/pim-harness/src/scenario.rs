//! The [`Scenario`] trait, the unit-of-work decomposition ([`ScenarioPlan`]) and the
//! deterministic per-scenario seed derivation.

use crate::cache::UnitKey;
use crate::exec::{RunHooks, UnitPool};
use crate::report::ScenarioReport;
use crate::DEFAULT_SEED;
use serde::{Deserialize, Serialize, Value};
use std::any::Any;

/// Derives each scenario's RNG stream from a single base seed.
///
/// The stream depends only on the base seed and the scenario *name* — never on thread
/// scheduling, submission order, or which other scenarios run in the same batch — so
/// artifacts are byte-identical across `--jobs` settings and across runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedPolicy {
    /// The batch-wide base seed.
    pub base_seed: u64,
}

impl Default for SeedPolicy {
    fn default() -> Self {
        SeedPolicy {
            base_seed: DEFAULT_SEED,
        }
    }
}

impl SeedPolicy {
    /// Policy with an explicit base seed.
    pub fn new(base_seed: u64) -> SeedPolicy {
        SeedPolicy { base_seed }
    }

    /// The seed for one scenario: FNV-1a over the name, mixed with the base seed
    /// through the workspace's shared SplitMix64 mixer so nearby base seeds still
    /// decorrelate.
    pub(crate) fn scenario_seed(&self, name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        desim::random::mix_seed(h, self.base_seed)
    }
}

/// Type-erased output of one [`ScenarioPlan`] work unit.
pub(crate) type UnitOutput = Box<dyn Any + Send>;

type UnitFn<'s> = Box<dyn FnOnce() -> UnitOutput + Send + 's>;
type AssembleFn<'s> = Box<dyn FnOnce(Vec<UnitOutput>) -> ScenarioReport + Send + 's>;
type EncodeFn = Box<dyn Fn(&dyn Any) -> Value + Send>;
type DecodeFn = Box<dyn Fn(&Value) -> Option<UnitOutput> + Send>;

/// The serde bridge that lets the executor persist one unit's type-erased output and
/// resurrect it on a later run. Built generically by the `cached_*` plan
/// constructors; the unit output type stays invisible to the executor.
pub(crate) struct UnitCodec {
    /// Serialize a produced output (downcast internally) into a cache payload.
    pub(crate) encode: EncodeFn,
    /// Rebuild an output from a verified cache payload; `None` means the payload's
    /// shape does not match the unit's type (stale entry → recompute).
    pub(crate) decode: DecodeFn,
}

impl UnitCodec {
    fn for_type<U: Serialize + Deserialize + Send + 'static>() -> UnitCodec {
        UnitCodec {
            encode: Box::new(|any| {
                any.downcast_ref::<U>()
                    // audit:allow(unwrap-in-library): the plan pairs every unit with the codec of its own output type
                    .expect("unit output type matches the plan")
                    .to_value()
            }),
            decode: Box::new(|value| U::from_value(value).ok().map(|u| Box::new(u) as UnitOutput)),
        }
    }
}

/// One schedulable unit of work: the closure, plus the content-address identity
/// and serde codec the unit-result cache needs.
pub(crate) struct PlanUnit<'s> {
    pub(crate) run: UnitFn<'s>,
    pub(crate) key: UnitKey,
    pub(crate) codec: UnitCodec,
}

/// A scenario decomposed into independently runnable **units of work** plus an
/// assembly step.
///
/// The units are the scheduling granularity of the whole harness: the batch runner
/// flattens every requested scenario's units into one global list and lets workers
/// steal from it, so a scenario with one expensive grid no longer serializes the tail
/// of a batch behind a single thread. Units must be independent (no ordering between
/// them) and derive any randomness from values captured at plan time — typically the
/// unit's grid index mixed with the scenario seed — never from execution order.
///
/// `assemble` receives the unit outputs **in unit order**, whatever order they
/// executed in, which is what keeps artifacts byte-identical across thread counts.
///
/// Every unit carries a [`UnitKey`], making its output persistable in the
/// content-addressed unit cache (see [`crate::cache`]): on a warm batch the
/// executor serves units from disk instead of running them.
pub struct ScenarioPlan<'s> {
    units: Vec<PlanUnit<'s>>,
    assemble: AssembleFn<'s>,
}

impl<'s> ScenarioPlan<'s> {
    /// A plan with one unit: the whole scenario runs as a single task whose
    /// report is persistable in the unit-result cache under `key`. The right
    /// choice for scenarios that finish in milliseconds (closed forms, tables).
    pub(crate) fn cached_single(
        key: UnitKey,
        run: impl FnOnce() -> ScenarioReport + Send + 's,
    ) -> ScenarioPlan<'s> {
        ScenarioPlan::cached_map_reduce(vec![(key, run)], |mut reports: Vec<ScenarioReport>| {
            // audit:allow(unwrap-in-library): a single-unit plan yields exactly one output
            reports.pop().expect("single-unit plan produced one output")
        })
    }

    /// A plan of homogeneous units whose outputs `assemble` folds into the report.
    ///
    /// Each unit is typically one grid point of a parameter sweep. The unit closures
    /// are type-erased internally; `assemble` gets the strongly-typed outputs back in
    /// unit order. Every unit carries a [`UnitKey`] and a serializable output, which
    /// makes it eligible for the unit-result cache. The key must identify
    /// everything the unit's output depends on — build it with
    /// [`crate::cache::UnitKeyer`] so the scenario config fingerprint, resolved seed
    /// and grid/replication indices are all folded in.
    pub(crate) fn cached_map_reduce<U, F, A>(
        units: Vec<(UnitKey, F)>,
        assemble: A,
    ) -> ScenarioPlan<'s>
    where
        U: Serialize + Deserialize + Send + 'static,
        F: FnOnce() -> U + Send + 's,
        A: FnOnce(Vec<U>) -> ScenarioReport + Send + 's,
    {
        ScenarioPlan {
            units: units
                .into_iter()
                .map(|(key, f)| PlanUnit {
                    run: Box::new(move || Box::new(f()) as UnitOutput),
                    key,
                    codec: UnitCodec::for_type::<U>(),
                })
                .collect(),
            assemble: Box::new(move |outputs| {
                let typed: Vec<U> = outputs
                    .into_iter()
                    .map(|o| {
                        *o.downcast::<U>()
                            // audit:allow(unwrap-in-library): the plan pairs every unit with the codec of its own output type
                            .expect("unit output type matches the plan")
                    })
                    .collect();
                assemble(typed)
            }),
        }
    }

    /// Number of units in the plan.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Split the plan into its units and assembly step (executor use).
    pub(crate) fn into_parts(self) -> (Vec<PlanUnit<'s>>, AssembleFn<'s>) {
        (self.units, self.assemble)
    }
}

/// One registered experiment: a paper figure, table, validation study or ablation.
///
/// Implementations must be pure functions of `(self, seeds)`: two calls with the same
/// policy must produce identical reports (the determinism suite enforces this
/// byte-for-byte on the JSON rendering), whatever thread count executes the plan.
pub trait Scenario: Send + Sync {
    /// Stable, unique scenario name (used for registry lookup, artifact file names
    /// and seed derivation). Built-in scenarios return a literal; spec-compiled
    /// scenarios ([`crate::spec`]) return the user-chosen name from the spec file,
    /// which is why the lifetime is tied to `self` rather than `'static`.
    fn name(&self) -> &str;

    /// One-line description of what the scenario reproduces.
    fn description(&self) -> &str;

    /// The scenario's parameter grid / configuration as a free-form JSON tree,
    /// embedded in the report for provenance.
    fn params(&self) -> serde::Value {
        serde::Value::Map(vec![])
    }

    /// Decompose the experiment into a [`ScenarioPlan`] under the given seed policy.
    ///
    /// Sweep-style scenarios should return one unit per grid point so batch workers
    /// can interleave them with other scenarios' points; trivially cheap scenarios
    /// return a plan of one cached unit.
    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s>;

    /// Run the experiment under the given seed policy, executing the plan's units
    /// across the available cores. The report is identical to executing the plan on
    /// any other worker count.
    fn run(&self, seeds: &SeedPolicy) -> ScenarioReport {
        let outcome = UnitPool::new(0)
            .run(vec![self.plan(seeds)], None, &RunHooks::default())
            .ok()
            .and_then(|mut outcomes| outcomes.pop());
        // audit:allow(unwrap-in-library): uncached and unhooked, only a panicking unit fails the run, and one plan yields one outcome
        outcome.expect("uncached plan runs").report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_uses_the_report_seed() {
        assert_eq!(SeedPolicy::default().base_seed, DEFAULT_SEED);
    }

    #[test]
    fn seeds_differ_across_scenarios_and_bases() {
        let p = SeedPolicy::default();
        assert_ne!(p.scenario_seed("figure5"), p.scenario_seed("figure6"));
        assert_ne!(
            p.scenario_seed("figure5"),
            SeedPolicy::new(DEFAULT_SEED + 1).scenario_seed("figure5")
        );
    }

    #[test]
    fn seed_derivation_is_stable() {
        // Pin the derivation: changing it would silently invalidate every golden file.
        let p = SeedPolicy::default();
        let s = p.scenario_seed("figure5");
        assert_eq!(s, p.scenario_seed("figure5"));
        assert_ne!(s, 0);
    }
}
