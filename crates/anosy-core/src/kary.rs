//! Queries with finitely many outputs (the §5.1 "supporting other query classes" extension).
//!
//! The paper notes that non-boolean queries with finitely many outputs can be handled by
//! computing one ind. set per possible output. [`KaryQuery`] represents such a query as an
//! ordered list of boolean cases with first-match semantics plus an implicit "otherwise" output.
//! A boolean query is the query of one case: output 0 is `true`, output 1 `false`. A
//! [`crate::QInfo`] pairs a query with one ind. set per output.

use anosy_logic::{Point, Pred, SecretLayout};
use anosy_synth::{QueryDef, SynthError};
use std::fmt;

/// A query with `cases.len() + 1` possible outputs: output `i < cases.len()` is taken by the
/// first case whose predicate holds, and the final output is the implicit "none of the above".
#[derive(Debug, Clone, PartialEq)]
pub struct KaryQuery {
    name: String,
    layout: SecretLayout,
    cases: Vec<Pred>,
}

impl KaryQuery {
    /// Creates a k-ary query from its ordered cases.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidQuery`] when a case mentions a field outside the layout or
    /// when there are no cases at all.
    pub fn new(
        name: impl Into<String>,
        layout: SecretLayout,
        cases: Vec<Pred>,
    ) -> Result<Self, SynthError> {
        let name = name.into();
        if cases.is_empty() {
            return Err(SynthError::InvalidQuery {
                name,
                reason: "a k-ary query needs at least one case".into(),
            });
        }
        for (i, case) in cases.iter().enumerate() {
            if let Some(max) = case.free_vars().into_iter().max() {
                if max >= layout.arity() {
                    return Err(SynthError::InvalidQuery {
                        name,
                        reason: format!("case {i} mentions field v{max} outside the layout"),
                    });
                }
            }
        }
        Ok(KaryQuery { name, layout, cases })
    }

    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The secret layout.
    pub fn layout(&self) -> &SecretLayout {
        &self.layout
    }

    /// Number of distinct outputs (`cases + 1` for the implicit otherwise).
    pub fn output_count(&self) -> usize {
        self.cases.len() + 1
    }

    /// The output index produced by a concrete secret.
    pub fn output(&self, secret: &Point) -> usize {
        for (i, case) in self.cases.iter().enumerate() {
            if case.eval(secret).unwrap_or(false) {
                return i;
            }
        }
        self.cases.len()
    }

    /// The *effective* predicate of output `i` under first-match semantics: case `i` holds and no
    /// earlier case does (for the final output: no case holds).
    pub fn output_pred(&self, output: usize) -> Pred {
        assert!(output < self.output_count(), "output index out of range");
        let mut conjuncts: Vec<Pred> =
            self.cases[..output.min(self.cases.len())].iter().map(|c| c.clone().negate()).collect();
        if output < self.cases.len() {
            conjuncts.push(self.cases[output].clone());
        }
        Pred::and(conjuncts)
    }
}

/// The boolean query as the query of one case.
impl From<QueryDef> for KaryQuery {
    fn from(query: QueryDef) -> Self {
        KaryQuery {
            name: query.name().to_string(),
            layout: query.layout().clone(),
            cases: vec![query.pred().clone()],
        }
    }
}

impl fmt::Display for KaryQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} outputs)", self.name, self.output_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnosyError, AnosySession, PolicySpec, QInfo, SessionStats};
    use anosy_domains::{AbstractDomain, PowersetDomain};
    use anosy_ifc::Protected;
    use anosy_logic::IntExpr;
    use anosy_solver::SolverConfig;
    use anosy_synth::{ApproxKind, SynthConfig, Synthesizer};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("age", 0, 120).build()
    }

    /// Age bands: minor (< 18), adult (< 65), otherwise senior.
    fn age_bands() -> KaryQuery {
        KaryQuery::new("age_band", layout(), vec![IntExpr::var(0).lt(18), IntExpr::var(0).lt(65)])
            .unwrap()
    }

    fn synthesizer() -> Synthesizer {
        Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()))
    }

    /// The age bands' synthesized under-approximate powerset ind. sets.
    fn synthesized(synth: &mut Synthesizer) -> QInfo<PowersetDomain> {
        let mut session = AnosySession::new(layout(), PolicySpec::AllowAll);
        session
            .register_synthesized_cases(synth, &age_bands(), ApproxKind::Under, Some(2))
            .unwrap();
        session.query_info("age_band").unwrap().clone()
    }

    #[test]
    fn outputs_follow_first_match_semantics() {
        let q = age_bands();
        assert_eq!(q.output_count(), 3);
        assert_eq!(q.output(&Point::new(vec![3])), 0);
        assert_eq!(q.output(&Point::new(vec![30])), 1);
        assert_eq!(q.output(&Point::new(vec![80])), 2);
        // Effective predicates partition the space.
        let space = layout().space();
        for p in space.points() {
            let matching: Vec<usize> =
                (0..q.output_count()).filter(|&i| q.output_pred(i).eval(&p).unwrap()).collect();
            assert_eq!(matching, vec![q.output(&p)], "at {p}");
        }
    }

    #[test]
    fn a_boolean_query_is_the_query_of_one_case() {
        let query = QueryDef::new("minor", layout(), IntExpr::var(0).lt(18)).unwrap();
        let boolean = KaryQuery::from(query.clone());
        assert_eq!(boolean.output_count(), 2);
        for p in layout().space().points() {
            assert_eq!(boolean.output(&p) == 0, query.ask(&p), "at {p}");
        }
    }

    #[test]
    fn construction_is_validated() {
        assert!(KaryQuery::new("empty", layout(), vec![]).is_err());
        assert!(KaryQuery::new("bad", layout(), vec![IntExpr::var(3).le(0)]).is_err());
    }

    #[test]
    fn synthesized_kary_indsets_give_sound_posteriors() {
        let q = age_bands();
        let ind = synthesized(&mut synthesizer());
        assert_eq!(ind.sets().len(), 3);
        assert_eq!(ind.kind(), ApproxKind::Under);
        // Every point of every synthesized set really produces that output.
        for (i, set) in ind.sets().iter().enumerate() {
            for p in layout().space().points() {
                if set.contains(&p) {
                    assert_eq!(q.output(&p), i, "point {p} in set {i}");
                }
            }
        }
        // Posteriors refine the prior.
        let prior = PowersetDomain::top(&layout());
        assert!(ind.sets().iter().all(|set| prior.intersect(set).size() <= prior.size()));
    }

    #[test]
    fn registering_a_kary_query_again_is_k_cache_hits() {
        let mut synth = synthesizer();
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), PolicySpec::AllowAll);
        let q = age_bands();
        session.register_synthesized_cases(&mut synth, &q, ApproxKind::Under, Some(2)).unwrap();
        assert_eq!((session.stats().synth_cache_hits, session.stats().synth_cache_misses), (0, 3));
        let nodes = synth.solver_stats().nodes_explored;
        assert!(nodes > 0, "the first registration searches");
        session.register_synthesized_cases(&mut synth, &q, ApproxKind::Under, Some(2)).unwrap();
        assert_eq!((session.stats().synth_cache_hits, session.stats().synth_cache_misses), (3, 3));
        assert_eq!(synth.solver_stats().nodes_explored, nodes, "hits touch no solver");
        assert_eq!(session.synth_cache_len(), 3);
    }

    #[test]
    fn kary_downgrade_enforces_the_policy_on_every_output() {
        let q = age_bands();
        let ind = synthesized(&mut synthesizer());

        // Permissive policy: all three outputs keep at least 10 candidates, so the downgrade runs.
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), PolicySpec::MinSize(10));
        session.register(ind.clone());
        let secret = Protected::new(Point::new(vec![70]));
        assert_eq!(session.downgrade_output(&secret, "age_band").unwrap(), 2);
        assert!(session.knowledge_of(&Point::new(vec![70])).size() <= 121);

        // The same sets marked over-approximate: a size policy cannot decide on them, so the
        // downgrade is refused unevaluated and counts as neither authorized nor refused.
        let over = QInfo::with_cases(q.clone(), ApproxKind::Over, ind.sets().to_vec());
        let mut unsound: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), PolicySpec::MinSize(10));
        unsound.register(over.clone());
        assert_eq!(
            unsound.downgrade_output(&secret, "age_band"),
            Err(AnosyError::UnsoundApproximation { kind: ApproxKind::Over })
        );
        assert_eq!(unsound.stats(), SessionStats::default());
        assert_eq!(unsound.tracked_secrets(), 0);
        let mut open: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), PolicySpec::AllowAll);
        open.register(over);
        assert_eq!(open.downgrade_output(&secret, "age_band").unwrap(), 2);

        // Strict policy: the minor band has only 18 candidates, so the query is refused for
        // everyone — even secrets that would fall in a large band. The refusal names the minor
        // band's output and its posterior's size.
        let mut strict: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), PolicySpec::MinSize(20));
        strict.register(ind.clone());
        let adult = Protected::new(Point::new(vec![30]));
        let minors = ind.sets()[0].size();
        assert!(minors < 20);
        let refusal = strict.downgrade_output(&adult, "age_band").unwrap_err();
        assert_eq!(
            refusal,
            AnosyError::OutputViolation {
                query: "age_band".into(),
                policy: "min-size:20".into(),
                output: 0,
                posterior_size: minors,
            }
        );
        assert!(refusal.to_string().contains(&format!("output 0: {minors}")), "{refusal}");
        assert!(matches!(
            strict.downgrade_output(&adult, "missing"),
            Err(AnosyError::UnknownQuery { .. })
        ));
        // A boolean downgrade of a k-ary query answers whether the output is the first.
        assert_eq!(open.downgrade(&adult, "age_band"), Ok(false));
    }

    #[test]
    fn display_reports_output_count() {
        assert_eq!(age_bands().to_string(), "age_band (3 outputs)");
    }
}
