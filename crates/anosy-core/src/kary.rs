//! Queries with finitely many outputs (the §5.1 "supporting other query classes" extension).
//!
//! The paper notes that non-boolean queries with finitely many outputs can be handled by
//! computing one ind. set per possible output. [`KaryQuery`] represents such a query as an
//! ordered list of boolean cases with first-match semantics plus an implicit "otherwise" output;
//! [`KaryIndSets`] holds one abstract-domain element per output and computes per-output
//! posteriors exactly like the boolean [`anosy_synth::IndSets`].

use crate::session::SynthesizeInto;
use anosy_domains::AbstractDomain;
use anosy_logic::{Point, Pred, SecretLayout};
use anosy_synth::{ApproxKind, QueryDef, SynthError, Synthesizer};
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

impl fmt::Display for KaryQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} outputs)", self.name, self.output_count())
    }
}

/// One abstract-domain element per output of a [`KaryQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct KaryIndSets<D> {
    kind: ApproxKind,
    sets: Vec<D>,
}

impl<D: AbstractDomain> KaryIndSets<D> {
    /// Packages per-output ind. sets.
    pub fn new(kind: ApproxKind, sets: Vec<D>) -> Self {
        KaryIndSets { kind, sets }
    }

    /// Synthesizes the per-output ind. sets of a k-ary query by synthesizing each output's
    /// effective predicate as an ordinary boolean query and keeping its True set.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures.
    pub fn synthesize(
        synth: &mut Synthesizer,
        query: &KaryQuery,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<Self, SynthError>
    where
        D: SynthesizeInto,
    {
        let mut sets = Vec::with_capacity(query.output_count());
        for output in 0..query.output_count() {
            let case_query = QueryDef::new(
                format!("{}#{}", query.name(), output),
                query.layout().clone(),
                query.output_pred(output),
            )?;
            let indsets = D::synthesize(synth, &case_query, kind, members)?;
            sets.push(indsets.truthy().clone());
        }
        Ok(KaryIndSets { kind, sets })
    }

    /// The approximation direction.
    pub fn kind(&self) -> ApproxKind {
        self.kind
    }

    /// The per-output ind. sets.
    pub fn sets(&self) -> &[D] {
        &self.sets
    }

    /// The posterior knowledge for every possible output, given the prior.
    pub fn posterior(&self, prior: &D) -> Vec<D> {
        self.sets.iter().map(|s| prior.intersect(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnosySession, MinSizePolicy};
    use anosy_domains::PowersetDomain;
    use anosy_ifc::Protected;
    use anosy_logic::IntExpr;
    use anosy_solver::SolverConfig;
    use anosy_synth::SynthConfig;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("age", 0, 120).build()
    }

    /// Age bands: minor (< 18), adult (< 65), otherwise senior.
    fn age_bands() -> KaryQuery {
        KaryQuery::new("age_band", layout(), vec![IntExpr::var(0).lt(18), IntExpr::var(0).lt(65)])
            .unwrap()
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
    fn construction_is_validated() {
        assert!(KaryQuery::new("empty", layout(), vec![]).is_err());
        assert!(KaryQuery::new("bad", layout(), vec![IntExpr::var(3).le(0)]).is_err());
    }

    #[test]
    fn synthesized_kary_indsets_give_sound_posteriors() {
        let q = age_bands();
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        let ind: KaryIndSets<PowersetDomain> =
            KaryIndSets::synthesize(&mut synth, &q, ApproxKind::Under, Some(2)).unwrap();
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
        let posts = ind.posterior(&prior);
        assert_eq!(posts.len(), 3);
        assert!(posts.iter().all(|d| d.size() <= prior.size()));
    }

    #[test]
    fn kary_downgrade_enforces_the_policy_on_every_output() {
        let q = age_bands();
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        let ind: KaryIndSets<PowersetDomain> =
            KaryIndSets::synthesize(&mut synth, &q, ApproxKind::Under, Some(2)).unwrap();

        // Permissive policy: all three outputs keep at least 10 candidates, so the downgrade runs.
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), MinSizePolicy::new(10));
        session.register_kary(q.clone(), ind.clone());
        let secret = Protected::new(Point::new(vec![70]));
        assert_eq!(session.downgrade_kary(&secret, "age_band").unwrap(), 2);
        assert!(session.knowledge_of(&Point::new(vec![70])).size() <= 121);

        // The same sets marked over-approximate: a size policy cannot decide on them, so the
        // downgrade is refused unevaluated and counts as neither authorized nor refused.
        let over = KaryIndSets::new(ApproxKind::Over, ind.sets().to_vec());
        let mut unsound: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), MinSizePolicy::new(10));
        unsound.register_kary(q.clone(), over.clone());
        assert_eq!(
            unsound.downgrade_kary(&secret, "age_band"),
            Err(crate::AnosyError::UnsoundApproximation { kind: ApproxKind::Over })
        );
        assert_eq!(unsound.stats(), crate::SessionStats::default());
        assert_eq!(unsound.tracked_secrets(), 0);
        let mut open: AnosySession<PowersetDomain> = AnosySession::new(layout(), crate::AllowAll);
        open.register_kary(q.clone(), over);
        assert_eq!(open.downgrade_kary(&secret, "age_band").unwrap(), 2);

        // Strict policy: the minor band has only 18 candidates, so the query is refused for
        // everyone — even secrets that would fall in a large band.
        let mut strict: AnosySession<PowersetDomain> =
            AnosySession::new(layout(), MinSizePolicy::new(20));
        strict.register_kary(q, ind);
        let adult = Protected::new(Point::new(vec![30]));
        assert!(strict.downgrade_kary(&adult, "age_band").is_err());
        assert!(matches!(
            strict.downgrade_kary(&adult, "missing"),
            Err(crate::AnosyError::UnknownQuery { .. })
        ));
    }

    #[test]
    fn display_reports_output_count() {
        assert_eq!(age_bands().to_string(), "age_band (3 outputs)");
    }
}
