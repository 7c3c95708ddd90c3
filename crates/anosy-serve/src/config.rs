//! Deployment configuration.

use crate::journal::JournalConfig;
use anosy_solver::SolverConfig;
use anosy_synth::SynthConfig;

/// Configuration of a [`crate::Deployment`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker threads in the deployment's shard pool, which runs each `count`/`valid`
    /// request as one sequential solver job (clamped to at least one). Answers do not depend
    /// on it.
    pub workers: usize,
    /// Synthesis configuration used for cache misses (its solver config also bounds each
    /// `count`/`valid` request as a whole; verification runs under the verifier's default
    /// budget, so an entry verifies the same on every path into the cache).
    pub synth: SynthConfig,
    /// Append-only synthesis journal ([`crate::journal`]); `None` (the default) disables
    /// journaling. The journal itself is opened by [`crate::Deployment::open_journal`] — the
    /// config only carries the intent (path, flush policy, compaction cadence).
    pub journal: Option<JournalConfig>,
}

impl ServeConfig {
    /// Defaults: workers = available parallelism (or 4 when unknown), default synthesis limits.
    pub fn new() -> Self {
        let workers =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4);
        ServeConfig { workers, synth: SynthConfig::default(), journal: None }
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

    /// Enables the append-only synthesis journal ([`crate::journal`]).
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The solver configuration synthesis and `count`/`valid` jobs run with.
    pub fn solver(&self) -> &SolverConfig {
        &self.synth.solver
    }

    /// A tight configuration for tests: few workers, fast-failing solver budgets.
    pub fn for_tests() -> Self {
        ServeConfig {
            workers: 4,
            synth: SynthConfig::new().with_solver(SolverConfig::for_tests()),
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
        assert!(c.journal.is_none(), "journaling is opt-in");
        let journal = JournalConfig::new("/tmp/t.journal")
            .with_flush(crate::journal::FlushPolicy::EveryEntryFsync)
            .with_compact_every(0);
        let c = ServeConfig::for_tests().with_journal(journal);
        let journal = c.journal.unwrap();
        assert_eq!(journal.compact_every, Some(1), "compaction cadence clamps to one record");
        assert_eq!(journal.flush, crate::journal::FlushPolicy::EveryEntryFsync);
        assert_eq!(journal.snapshot_path(), std::path::PathBuf::from("/tmp/t.journal.snapshot"));
    }
}
