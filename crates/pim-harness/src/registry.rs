//! The catalog of registered scenarios.

use crate::scenario::Scenario;
use crate::scenarios::{analytic, memory, parcels, partition};

/// An ordered, name-indexed collection of scenarios.
pub struct Registry {
    scenarios: Vec<Box<dyn Scenario>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            scenarios: Vec::new(),
        }
    }

    /// The built-in registry: every figure, table, validation study and ablation of
    /// the paper, sorted by name.
    pub fn builtin() -> Registry {
        let mut r = Registry::new();
        let builtins: Vec<Box<dyn Scenario>> = vec![
            Box::new(partition::Figure5),
            Box::new(partition::Figure6),
            Box::new(analytic::Figure7),
            Box::new(parcels::Figure11),
            Box::new(parcels::Figure12),
            Box::new(partition::Table1),
            Box::new(partition::Validation),
            Box::new(partition::ReplicationCi),
            Box::new(partition::AblationImbalance),
            Box::new(analytic::AblationNb),
            Box::new(parcels::AblationNetwork),
            Box::new(parcels::AblationOverhead),
            Box::new(memory::BandwidthClaims),
        ];
        for scenario in builtins {
            #[expect(
                clippy::expect_used,
                reason = "the builtin scenario list carries no duplicate names"
            )]
            r.register(scenario)
                .expect("builtin scenario names are unique");
        }
        r
    }

    /// Add a scenario, keeping the catalog sorted by name.
    ///
    /// Rejects duplicate names — they would make artifact files and seed streams
    /// collide. User-defined spec scenarios ([`crate::spec`]) can collide with a
    /// builtin or with each other, so this surfaces as an `Err` the caller (e.g.
    /// `pim-tradeoffs run --spec`) reports, never as a panic.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) -> Result<(), String> {
        match self
            .scenarios
            .binary_search_by(|s| s.name().cmp(scenario.name()))
        {
            Ok(_) => Err(format!(
                "duplicate scenario name '{}': already registered",
                scenario.name()
            )),
            Err(pos) => {
                self.scenarios.insert(pos, scenario);
                Ok(())
            }
        }
    }

    /// Look up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.scenarios
            .binary_search_by(|s| s.name().cmp(name))
            .ok()
            .map(|i| self.scenarios[i].as_ref())
    }

    /// All scenario names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// Iterate over the scenarios in name order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.scenarios.iter().map(|s| s.as_ref())
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registers_every_legacy_binary() {
        let r = Registry::builtin();
        assert_eq!(r.len(), 13);
        for name in [
            "figure5",
            "figure6",
            "figure7",
            "figure11",
            "figure12",
            "table1",
            "validation",
            "replication_ci",
            "ablation_imbalance",
            "ablation_nb",
            "ablation_network",
            "ablation_overhead",
            "bandwidth_claims",
        ] {
            assert!(r.get(name).is_some(), "missing scenario '{name}'");
        }
    }

    #[test]
    fn names_are_sorted_and_unique() {
        let registry = Registry::builtin();
        let names = registry.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(Registry::builtin().get("figure99").is_none());
    }

    #[test]
    fn duplicate_registration_is_an_error_not_a_panic() {
        let mut r = Registry::builtin();
        let before = r.len();
        let err = r
            .register(Box::new(crate::scenarios::partition::Table1))
            .unwrap_err();
        assert!(err.contains("duplicate scenario name 'table1'"), "{err}");
        // The rejected scenario must not have been inserted.
        assert_eq!(r.len(), before);
        // The registry stays usable after the rejection.
        assert!(r.get("table1").is_some());
        assert!(r
            .register(Box::new(crate::scenarios::partition::Table1))
            .is_err());
    }
}
