//! Resource limits and tuning knobs for the solver.

use std::time::Duration;

/// Configuration for a [`crate::Solver`].
///
/// The defaults are sized for the paper's benchmark suite (secret spaces of up to ~10¹³ points
/// with linear queries); the limits exist so that a malformed query cannot hang a deployment —
/// hitting one surfaces as [`crate::SolverError::BudgetExhausted`], mirroring the 10-second Z3
/// timeout the paper uses per synthesis call (§6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum number of search nodes (boxes) explored by a single query.
    pub max_nodes: u64,
    /// Wall-clock budget for a single query.
    pub time_budget: Duration,
}

impl SolverConfig {
    /// Default limits (5 million nodes, 10 seconds).
    pub fn new() -> Self {
        SolverConfig { max_nodes: 5_000_000, time_budget: Duration::from_secs(10) }
    }

    /// A configuration with a different node budget.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// A configuration with a different time budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = budget;
        self
    }

    /// A tight configuration for unit tests (fast failure on runaway searches).
    pub fn for_tests() -> Self {
        SolverConfig { max_nodes: 200_000, time_budget: Duration::from_secs(2) }
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_nonzero() {
        let c = SolverConfig::default();
        assert!(c.max_nodes > 0);
        assert!(c.time_budget > Duration::ZERO);
    }

    #[test]
    fn builders_override_fields() {
        let c = SolverConfig::new().with_max_nodes(10).with_time_budget(Duration::from_millis(5));
        assert_eq!(c.max_nodes, 10);
        assert_eq!(c.time_budget, Duration::from_millis(5));
    }

    #[test]
    fn test_config_is_tighter_than_default() {
        assert!(SolverConfig::for_tests().max_nodes < SolverConfig::new().max_nodes);
    }
}
