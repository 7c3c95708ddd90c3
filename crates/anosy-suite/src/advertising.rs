//! The secure-advertising case study (§6.2, Fig. 6).
//!
//! A restaurant chain asks a sequence of `nearby` queries (one per branch) about a user's secret
//! location. The AnosyT session tracks the attacker's knowledge with under-approximated
//! powersets and refuses the first query whose posterior could shrink the knowledge to at most
//! 100 locations. The experiment measures, for each powerset size `k`, how many queries each
//! randomized execution still gets authorized — the curves of Fig. 6.

use anosy_core::{AnosyError, AnosySession, PolicySpec};
use anosy_domains::PowersetDomain;
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_synth::{ApproxKind, QueryDef, SynthConfig, Synthesizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the advertising experiment.
#[derive(Debug, Clone)]
pub struct AdvertisingConfig {
    /// The secret location ranges over `[0, space_side] × [0, space_side]`.
    pub space_side: i64,
    /// Manhattan radius of each `nearby` query.
    pub radius: i64,
    /// Number of restaurant branches, i.e. of sequential queries per execution.
    pub num_queries: usize,
    /// Number of randomized executions (each with a fresh secret location).
    pub runs: usize,
    /// The policy threshold: knowledge must keep strictly more than this many locations.
    pub policy_min_size: u128,
    /// The powerset sizes `k` to compare.
    pub powerset_sizes: Vec<usize>,
    /// RNG seed, so runs are reproducible.
    pub seed: u64,
    /// Synthesis configuration.
    pub synth: SynthConfig,
}

impl AdvertisingConfig {
    /// The configuration used in the paper: 400×400 space, radius 100, 50 queries, 20 runs,
    /// policy `size > 100`, k ∈ {1, 3, 5, 7, 10}.
    pub fn paper() -> Self {
        AdvertisingConfig {
            space_side: 400,
            radius: 100,
            num_queries: 50,
            runs: 20,
            policy_min_size: 100,
            powerset_sizes: vec![1, 3, 5, 7, 10],
            seed: 0x0a05_417e,
            synth: SynthConfig::default(),
        }
    }

    /// A scaled-down configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        AdvertisingConfig {
            space_side: 120,
            radius: 40,
            num_queries: 8,
            runs: 4,
            policy_min_size: 60,
            powerset_sizes: vec![1, 3],
            seed: 7,
            synth: SynthConfig::default(),
        }
    }

    /// The secret layout of the experiment.
    pub fn layout(&self) -> SecretLayout {
        SecretLayout::builder()
            .field("x", 0, self.space_side)
            .field("y", 0, self.space_side)
            .build()
    }
}

impl Default for AdvertisingConfig {
    fn default() -> Self {
        AdvertisingConfig::paper()
    }
}

/// The outcome of the experiment for one powerset size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvertisingOutcome {
    /// The powerset size `k` this outcome corresponds to.
    pub k: usize,
    /// For each run, how many queries were authorized before the first policy violation (or the
    /// total number of queries if none was refused).
    pub authorized_per_run: Vec<usize>,
}

impl AdvertisingOutcome {
    /// Number of runs still authorized at the `i`-th query (1-based), i.e. the Y value plotted at
    /// X = `i` in Fig. 6.
    pub fn survivors_at(&self, i: usize) -> usize {
        self.authorized_per_run.iter().filter(|&&n| n >= i).count()
    }

    /// The full survivor curve for X = 1 ..= `num_queries`.
    pub fn survivor_curve(&self, num_queries: usize) -> Vec<usize> {
        (1..=num_queries).map(|i| self.survivors_at(i)).collect()
    }

    /// The largest number of queries any run got authorized (the "maximum of N queries" numbers
    /// quoted in §6.2).
    pub fn max_authorized(&self) -> usize {
        self.authorized_per_run.iter().copied().max().unwrap_or(0)
    }

    /// Mean number of authorized queries across runs.
    pub fn mean_authorized(&self) -> f64 {
        if self.authorized_per_run.is_empty() {
            0.0
        } else {
            self.authorized_per_run.iter().sum::<usize>() as f64
                / self.authorized_per_run.len() as f64
        }
    }
}

/// Runs the full experiment: synthesizes the query approximations once per powerset size, then
/// replays the query sequence for every randomized secret location.
///
/// # Errors
///
/// Propagates synthesis, verification and solver failures. Policy violations are *not* errors —
/// they are the measured quantity.
pub fn run_advertising(config: &AdvertisingConfig) -> Result<Vec<AdvertisingOutcome>, AnosyError> {
    let layout = config.layout();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // One restaurant location per query, shared by every run and every k (as in the paper, the
    // query sequence is the restaurant chain's branches).
    let restaurants: Vec<(i64, i64)> = (0..config.num_queries)
        .map(|_| (rng.gen_range(0..=config.space_side), rng.gen_range(0..=config.space_side)))
        .collect();
    let user_locations: Vec<Point> = (0..config.runs)
        .map(|_| {
            Point::new(vec![
                rng.gen_range(0..=config.space_side),
                rng.gen_range(0..=config.space_side),
            ])
        })
        .collect();

    let queries: Vec<QueryDef> = restaurants
        .iter()
        .enumerate()
        .map(|(i, (x, y))| {
            let pred =
                ((IntExpr::var(0) - *x).abs() + (IntExpr::var(1) - *y).abs()).le(config.radius);
            QueryDef::new(format!("nearby_{i}_{x}_{y}"), layout.clone(), pred)
                .expect("generated query is well-formed")
        })
        .collect();

    let mut outcomes = Vec::with_capacity(config.powerset_sizes.len());
    for &k in &config.powerset_sizes {
        let mut synth = Synthesizer::with_config(config.synth.clone());
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout.clone(), PolicySpec::MinSize(config.policy_min_size));
        for query in &queries {
            session.register_synthesized(&mut synth, query, ApproxKind::Under, Some(k))?;
        }
        let mut authorized_per_run = Vec::with_capacity(config.runs);
        for user in &user_locations {
            session.reset_knowledge();
            let secret = Protected::new(user.clone());
            let mut authorized = 0;
            for query in &queries {
                match session.downgrade(&secret, query.name()) {
                    Ok(_) => authorized += 1,
                    Err(AnosyError::PolicyViolation { .. }) => break,
                    Err(other) => return Err(other),
                }
            }
            authorized_per_run.push(authorized);
        }
        outcomes.push(AdvertisingOutcome { k, authorized_per_run });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_solver::SolverConfig;

    fn quick_config() -> AdvertisingConfig {
        let mut c = AdvertisingConfig::quick();
        c.synth = SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(1);
        c
    }

    #[test]
    fn paper_configuration_matches_section_6_2() {
        let c = AdvertisingConfig::paper();
        assert_eq!(c.space_side, 400);
        assert_eq!(c.num_queries, 50);
        assert_eq!(c.runs, 20);
        assert_eq!(c.policy_min_size, 100);
        assert_eq!(c.powerset_sizes, vec![1, 3, 5, 7, 10]);
        assert_eq!(c.layout().space_size(), 401 * 401);
        assert_eq!(AdvertisingConfig::default().num_queries, 50);
    }

    #[test]
    fn quick_experiment_runs_and_larger_powersets_authorize_at_least_as_many_queries() {
        let config = quick_config();
        let outcomes = run_advertising(&config).unwrap();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert_eq!(o.authorized_per_run.len(), config.runs);
            // Survivor curves are non-increasing in the query index.
            let curve = o.survivor_curve(config.num_queries);
            assert_eq!(curve[0], o.survivors_at(1));
            assert!(curve.windows(2).all(|w| w[0] >= w[1]));
            assert!(o.max_authorized() <= config.num_queries);
        }
        // Precision is monotone in k on average (the Fig. 6 trend).
        let k1 = &outcomes[0];
        let k3 = &outcomes[1];
        assert!(k3.mean_authorized() >= k1.mean_authorized());
        // Every run authorizes at least one query: the first posterior keeps far more than the
        // policy threshold of locations.
        assert!(k1.authorized_per_run.iter().all(|&n| n >= 1));
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let config = quick_config();
        let a = run_advertising(&config).unwrap();
        let b = run_advertising(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn survivor_accounting() {
        let o = AdvertisingOutcome { k: 3, authorized_per_run: vec![0, 2, 5, 5] };
        assert_eq!(o.survivors_at(1), 3);
        assert_eq!(o.survivors_at(3), 2);
        assert_eq!(o.survivors_at(6), 0);
        assert_eq!(o.max_authorized(), 5);
        assert!((o.mean_authorized() - 3.0).abs() < 1e-12);
        assert_eq!(o.survivor_curve(5), vec![3, 3, 2, 2, 2]);
        let empty = AdvertisingOutcome { k: 1, authorized_per_run: vec![] };
        assert_eq!(empty.mean_authorized(), 0.0);
        assert_eq!(empty.max_authorized(), 0);
    }
}
