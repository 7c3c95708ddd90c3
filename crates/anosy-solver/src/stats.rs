//! Search statistics, for reporting and ablation studies.

use std::fmt;
use std::time::Duration;

/// Counters accumulated by a [`crate::Solver`] across queries.
///
/// Statistics are purely informational: they never influence results. They are reported by the
/// benchmark harness so that synthesis-cost comparisons (Fig. 5) can be explained in terms of
/// search effort rather than raw seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of boxes popped from the search queue / visited by recursion.
    pub nodes_explored: u64,
    /// Number of boxes discarded by constraint propagation or abstract evaluation.
    pub nodes_pruned: u64,
    /// Number of top-level queries answered.
    pub queries: u64,
    /// Total time spent inside the solver.
    pub total_time: Duration,
}

impl SolverStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        SolverStats::default()
    }

    /// Fraction of explored nodes that were pruned, in `[0, 1]`; `0` when nothing was explored.
    pub fn prune_ratio(&self) -> f64 {
        if self.nodes_explored == 0 {
            0.0
        } else {
            self.nodes_pruned as f64 / self.nodes_explored as f64
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries, {} nodes ({} pruned), {:.3}s",
            self.queries,
            self.nodes_explored,
            self.nodes_pruned,
            self.total_time.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_ratio_handles_empty() {
        assert_eq!(SolverStats::new().prune_ratio(), 0.0);
        let s = SolverStats { nodes_explored: 10, nodes_pruned: 5, ..SolverStats::new() };
        assert!((s.prune_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_queries() {
        let s = SolverStats { queries: 3, ..SolverStats::new() };
        assert!(s.to_string().contains("3 queries"));
    }
}
