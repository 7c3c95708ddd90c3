//! Deployment configuration.

use crate::journal::JournalConfig;
use anosy_solver::SolverConfig;
use anosy_synth::SynthConfig;

/// Configuration of a [`crate::Deployment`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker threads in the deployment's shard pool, which runs the parallel solver
    /// driver (clamped to at least one).
    pub workers: usize,
    /// Synthesis configuration used for cache misses (its solver config also drives
    /// verification and the parallel solver driver).
    pub synth: SynthConfig,
    /// Override of the shared term store's `(id, box)` memo depth threshold
    /// ([`anosy_logic::TermStore::with_min_memo_depth`]); `None` keeps the
    /// [`anosy_logic::BOX_MEMO_MIN_DEPTH`] default. Purely a performance knob — answers are
    /// identical at any setting. `report_fig5 --json` prints a depth-bucket-derived suggestion
    /// ([`anosy_logic::suggested_min_memo_depth`]) for retuning it.
    pub box_memo_min_depth: Option<u8>,
    /// Cap on retained connection-failure log entries across a whole deployment (clamped to at
    /// least one). A reactor pool divides this cap among its shards and
    /// [`crate::merge_io_logs`] re-applies it to the merged log, so the global bound holds at
    /// any reactor count.
    pub io_log_cap: usize,
    /// Append-only synthesis journal ([`crate::journal`]); `None` (the default) disables
    /// journaling. The journal itself is opened by [`crate::Deployment::open_journal`] — the
    /// config only carries the intent (path, flush policy, compaction cadence).
    pub journal: Option<JournalConfig>,
}

impl ServeConfig {
    /// Defaults: workers = available parallelism (or 4 when unknown), default synthesis limits,
    /// default memo threshold.
    pub fn new() -> Self {
        let workers =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4);
        ServeConfig {
            workers,
            synth: SynthConfig::default(),
            box_memo_min_depth: None,
            io_log_cap: crate::server::IO_LOG_CAP,
            journal: None,
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the synthesis configuration.
    pub fn with_synth(mut self, synth: SynthConfig) -> Self {
        self.synth = synth;
        self
    }

    /// Overrides the shared store's `(id, box)` memo depth threshold.
    pub fn with_box_memo_min_depth(mut self, depth: u8) -> Self {
        self.box_memo_min_depth = Some(depth);
        self
    }

    /// Overrides the deployment-wide connection-failure log cap (clamped to at least one).
    pub fn with_io_log_cap(mut self, cap: usize) -> Self {
        self.io_log_cap = cap.max(1);
        self
    }

    /// Enables the append-only synthesis journal ([`crate::journal`]).
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The solver configuration shards and verifiers run with.
    pub fn solver(&self) -> &SolverConfig {
        &self.synth.solver
    }

    /// A tight configuration for tests: few workers, fast-failing solver budgets.
    pub fn for_tests() -> Self {
        ServeConfig {
            workers: 4,
            synth: SynthConfig::new().with_solver(SolverConfig::for_tests()),
            box_memo_min_depth: None,
            io_log_cap: crate::server::IO_LOG_CAP,
            journal: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_defaults() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        let c = ServeConfig::new().with_workers(0);
        assert_eq!(c.workers, 1, "worker count clamps to one");
        let c = ServeConfig::for_tests().with_synth(SynthConfig::new());
        assert_eq!(c.solver().max_nodes, SolverConfig::new().max_nodes);
        assert_eq!(c.box_memo_min_depth, None);
        assert_eq!(ServeConfig::for_tests().with_box_memo_min_depth(3).box_memo_min_depth, Some(3));
        assert_eq!(c.io_log_cap, crate::server::IO_LOG_CAP);
        assert_eq!(ServeConfig::for_tests().with_io_log_cap(0).io_log_cap, 1, "cap clamps to one");
        assert!(c.journal.is_none(), "journaling is opt-in");
        let journal = JournalConfig::new("/tmp/t.journal")
            .with_flush(crate::journal::FlushPolicy::OnTick)
            .with_compact_every(0);
        let c = ServeConfig::for_tests().with_journal(journal);
        let journal = c.journal.unwrap();
        assert_eq!(journal.compact_every, Some(1), "compaction cadence clamps to one tick");
        assert_eq!(journal.snapshot_path(), std::path::PathBuf::from("/tmp/t.journal.snapshot"));
    }
}
