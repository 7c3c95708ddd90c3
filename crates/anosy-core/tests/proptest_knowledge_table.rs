//! Table-backed sessions against an independent oracle.
//!
//! An [`AnosySession`] keeps one state id per secret and decides each `(state, query)` step once
//! in its knowledge table. The oracle keeps what a session kept before the table existed: one
//! [`Knowledge`] per secret in a `HashMap`, advanced on every downgrade by a fresh
//! [`downgrade_step`] for a boolean query, or by recomputing every output's posterior for a
//! query of three or four outputs. Random histories run through both, in both domains, under
//! allow-all, min-size and conjunction policies and both approximation directions. They mix
//! duplicate and out-of-layout secrets, unknown names, names registered again with another
//! predicate or another number of outputs, resets, and downgrades and batches through
//! [`AnosySession::decide_batch`] of queries of two, three and four outputs, which the oracle
//! decides one secret after another. Answers, errors, counters and the encoded knowledge of every
//! secret must agree after every step.

use anosy_core::{
    AnosyError, AnosySession, KaryQuery, Knowledge, Policy, PolicySpec, QInfo, Refusal,
    SessionStats,
};
use anosy_domains::{AInt, AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_solver::SolverConfig;
use anosy_synth::{ApproxKind, DomainCodec, IndSets, QueryDef, SynthConfig, Synthesizer};
use proptest::prelude::*;
use proptest::strategy::from_fn;
use std::collections::HashMap;

const SIDE: i64 = 15;

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, SIDE).field("y", 0, SIDE).build()
}

/// A box `[x0, x1] × [y0, y1]` on a coarse grid, so distinct histories meet in shared states.
type Rect = (i64, i64, i64, i64);

/// Domain elements built from rectangles: a powerset keeps every member and the exclusions, an
/// interval keeps the first member only.
trait FromRects: AbstractDomain + DomainCodec {
    fn from_rects(members: &[Rect], exclusions: &[Rect]) -> Self;
}

fn rect(r: &Rect) -> IntervalDomain {
    IntervalDomain::from_intervals(vec![AInt::new(r.0, r.1), AInt::new(r.2, r.3)])
}

impl FromRects for IntervalDomain {
    fn from_rects(members: &[Rect], _exclusions: &[Rect]) -> Self {
        rect(&members[0])
    }
}

impl FromRects for PowersetDomain {
    fn from_rects(members: &[Rect], exclusions: &[Rect]) -> Self {
        PowersetDomain::new(
            2,
            members.iter().map(rect).collect(),
            exclusions.iter().map(rect).collect(),
        )
    }
}

/// One registration of query name `name`: first-match cases `field <= cut`, one for a boolean
/// query and two or three for a query of three or four outputs, with arbitrary ind. sets, one per
/// output (the comparison is differential, so the sets need not be sound for the cases). The
/// first set also carries the exclusions.
#[derive(Debug, Clone)]
struct Registration {
    name: usize,
    cases: Vec<(usize, i64)>,
    kind: ApproxKind,
    sets: Vec<Vec<Rect>>,
    exclusions: Vec<Rect>,
}

impl Registration {
    fn sets<D: FromRects>(&self) -> Vec<D> {
        let exclusions = |output| if output == 0 { &self.exclusions[..] } else { &[] };
        self.sets.iter().enumerate().map(|(i, set)| D::from_rects(set, exclusions(i))).collect()
    }

    fn qinfo<D: FromRects>(&self) -> QInfo<D> {
        match self.reference() {
            Reference::Boolean(old) => QInfo::new(old.query, old.indsets),
            Reference::Cases(query, kind, sets) => QInfo::with_cases(query, kind, sets),
        }
    }

    /// The oracle's copy of the query: the boolean `QInfo` as it was before queries had `k`
    /// outputs for one case, the cases and their sets otherwise.
    fn reference<D: FromRects>(&self) -> Reference<D> {
        let cases = self.cases.iter().map(|&(field, cut)| IntExpr::var(field).le(cut));
        let mut sets = self.sets::<D>();
        if let [(field, cut)] = self.cases[..] {
            let query = QueryDef::new(name(self.name), layout(), IntExpr::var(field).le(cut));
            let falsy = sets.pop().unwrap();
            let truthy = sets.pop().unwrap();
            let indsets = IndSets::new(self.kind, truthy, falsy);
            return Reference::Boolean(BooleanQInfo { query: query.unwrap(), indsets });
        }
        let query = KaryQuery::new(name(self.name), layout(), cases.collect()).unwrap();
        Reference::Cases(query, self.kind, sets)
    }
}

/// Name 3 is never registered.
const NAMES: usize = 4;

fn name(index: usize) -> String {
    format!("q{index}")
}

#[derive(Debug, Clone)]
enum Op {
    /// A downgrade by name, or through [`AnosySession::decide`] with the resolved query.
    Downgrade {
        name: usize,
        secret: usize,
        via: Via,
    },
    /// One [`AnosySession::decide_batch`] call over these secrets, duplicates included.
    Batch {
        name: usize,
        secrets: Vec<usize>,
    },
    Register(Registration),
    Reset,
}

/// The entry point a downgrade goes through.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// [`AnosySession::downgrade`]: whether the output is 0.
    Answer,
    /// [`AnosySession::downgrade_output`].
    Output,
    /// [`AnosySession::decide`] with the resolved query (by name when it is unknown).
    Decide,
}

#[derive(Debug, Clone)]
struct Case {
    policy: PolicySpec,
    secrets: Vec<Point>,
    registrations: Vec<Registration>,
    ops: Vec<Op>,
}

fn coord(rng: &mut TestRng) -> i64 {
    [0, 4, 8, 12, SIDE][rng.below(5) as usize]
}

fn random_rect(rng: &mut TestRng) -> Rect {
    let (a, b, c, d) = (coord(rng), coord(rng), coord(rng), coord(rng));
    (a.min(b), a.max(b), c.min(d), c.max(d))
}

fn rects(rng: &mut TestRng, max: u64) -> Vec<Rect> {
    (0..1 + rng.below(max)).map(|_| random_rect(rng)).collect()
}

fn kind(rng: &mut TestRng) -> ApproxKind {
    if rng.below(4) == 0 {
        ApproxKind::Over
    } else {
        ApproxKind::Under
    }
}

/// A registration of `name` with `cases` first-match cases, so `cases + 1` outputs.
fn registration(rng: &mut TestRng, name: usize, cases: usize) -> Registration {
    Registration {
        name,
        cases: (0..cases)
            .map(|_| (rng.below(2) as usize, rng.below(SIDE as u64 + 1) as i64))
            .collect(),
        kind: kind(rng),
        sets: (0..=cases).map(|_| rects(rng, 3)).collect(),
        exclusions: if rng.below(3) == 0 { vec![random_rect(rng)] } else { vec![] },
    }
}

fn via(rng: &mut TestRng) -> Via {
    [Via::Answer, Via::Output, Via::Decide][rng.below(3) as usize]
}

fn case(rng: &mut TestRng) -> Case {
    let threshold = [0, 10, 40, 100][rng.below(4) as usize];
    let policy = match rng.below(3) {
        0 => PolicySpec::AllowAll,
        1 => PolicySpec::MinSize(threshold),
        _ => PolicySpec::All(vec![
            PolicySpec::MinSize(threshold),
            PolicySpec::MinEntropyMillibits(rng.below(6000)),
        ]),
    };
    // A few secrets, so histories repeat them; -1 and SIDE + 1 lie outside the layout. A wide
    // case first spreads a dozen or more secrets over the states of their own histories, so
    // its batches can span more states than a batch caches.
    let wide = rng.below(3) == 0;
    let secrets = (0..if wide { 12 + rng.below(5) } else { 1 + rng.below(6) })
        .map(|_| {
            let mut c = || rng.below(SIDE as u64 + 3) as i64 - 1;
            Point::new(vec![c(), c()])
        })
        .collect::<Vec<_>>();
    // Every history starts with a boolean query and queries of three and four outputs.
    let registrations = (0..NAMES - 1).map(|n| registration(rng, n, n + 1)).collect();
    let spread = if wide { 2 * secrets.len() } else { 0 };
    let mut ops: Vec<Op> = (0..spread)
        .map(|i| Op::Downgrade {
            name: rng.below(NAMES as u64 - 1) as usize,
            secret: i % secrets.len(),
            via: Via::Decide,
        })
        .collect();
    ops.extend((0..rng.below(40)).map(|_| {
        match rng.below(20) {
            0..=12 => Op::Downgrade {
                name: rng.below(NAMES as u64) as usize,
                secret: rng.below(secrets.len() as u64) as usize,
                via: via(rng),
            },
            13..=15 => Op::Batch {
                name: rng.below(NAMES as u64 - 1) as usize,
                secrets: (0..rng.below(3 * secrets.len() as u64 + 1))
                    .map(|_| rng.below(secrets.len() as u64) as usize)
                    .collect(),
            },
            16..=18 => {
                let name = rng.below(NAMES as u64 - 1) as usize;
                let cases = [1, 1, 2, 3][rng.below(4) as usize];
                Op::Register(registration(rng, name, cases))
            }
            _ => Op::Reset,
        }
    }));
    Case { policy, secrets, registrations, ops }
}

/// The boolean `QInfo` as it was before queries had `k` outputs, which [`downgrade_step`]
/// reads.
struct BooleanQInfo<D> {
    query: QueryDef,
    indsets: IndSets<D>,
}

impl<D: AbstractDomain> BooleanQInfo<D> {
    fn kind(&self) -> ApproxKind {
        self.indsets.kind()
    }

    fn query(&self) -> &QueryDef {
        &self.query
    }

    fn ask(&self, secret: &Point) -> bool {
        self.query.ask(secret)
    }

    fn posterior(&self, prior: &D) -> (D, D) {
        self.indsets.posterior(prior)
    }
}

/// One pure bounded-downgrade step (the decision half of Fig. 2, with no state change): checks
/// that the policy is sound for the direction of the query's ind. sets, computes the posterior
/// knowledge for **both** possible answers from `prior`, checks the policy on both, and only if
/// both pass executes the query on `point`, returning the answer together with the matching
/// posterior.
///
/// This is the session's decision before knowledge tables, kept verbatim as the reference
/// boolean queries are checked against (only the query type is renamed).
///
/// # Errors
///
/// Returns [`AnosyError::UnsoundApproximation`] when the policy is not sound for the ind. sets'
/// direction (nothing is computed), and [`AnosyError::PolicyViolation`] when either posterior
/// violates the policy — the query is **not** executed in either case.
fn downgrade_step<D: AbstractDomain>(
    policy: &dyn Policy<D>,
    qinfo: &BooleanQInfo<D>,
    prior: &Knowledge<D>,
    point: &Point,
) -> Result<(bool, Knowledge<D>), AnosyError> {
    if !policy.sound_for(qinfo.kind()) {
        return Err(AnosyError::UnsoundApproximation { kind: qinfo.kind() });
    }
    let (knowledge_true, knowledge_false, allowed) = posteriors(policy, qinfo, prior);
    if !allowed {
        return Err(AnosyError::PolicyViolation {
            query: qinfo.query().name().to_string(),
            policy: policy.name(),
            posterior_true_size: knowledge_true.size(),
            posterior_false_size: knowledge_false.size(),
        });
    }
    let response = qinfo.ask(point);
    let posterior = if response { knowledge_true } else { knowledge_false };
    Ok((response, posterior))
}

/// Both posteriors of `prior` through `qinfo`, and whether `policy` accepts both.
fn posteriors<D: AbstractDomain>(
    policy: &dyn Policy<D>,
    qinfo: &BooleanQInfo<D>,
    prior: &Knowledge<D>,
) -> (Knowledge<D>, Knowledge<D>, bool) {
    let (post_true, post_false) = qinfo.posterior(prior.domain());
    let knowledge_true = Knowledge::from_domain(post_true);
    let knowledge_false = Knowledge::from_domain(post_false);
    let allowed = policy.allows(&knowledge_true) && policy.allows(&knowledge_false);
    (knowledge_true, knowledge_false, allowed)
}

/// The oracle's copy of a registered query.
enum Reference<D> {
    Boolean(BooleanQInfo<D>),
    Cases(KaryQuery, ApproxKind, Vec<D>),
}

/// The session before knowledge tables: one knowledge per secret, every step recomputed.
struct Oracle<D: AbstractDomain> {
    policy: PolicySpec,
    queries: HashMap<String, Reference<D>>,
    knowledge: HashMap<Point, Knowledge<D>>,
    stats: SessionStats,
}

impl<D: AbstractDomain> Oracle<D> {
    fn prior(&self, point: &Point) -> Knowledge<D> {
        self.knowledge.get(point).cloned().unwrap_or_else(|| Knowledge::initial(&layout()))
    }

    /// The output of a downgrade; a boolean query's `true` is output 0.
    fn downgrade(&mut self, query: &str, point: &Point) -> Result<usize, AnosyError> {
        let reference = self
            .queries
            .get(query)
            .ok_or_else(|| AnosyError::UnknownQuery { name: query.to_string() })?;
        if !layout().admits(point) {
            return Err(AnosyError::SecretOutsideLayout);
        }
        let decided = match reference {
            Reference::Boolean(qinfo) => {
                downgrade_step(&self.policy, qinfo, &self.prior(point), point)
                    .map(|(answer, posterior)| (usize::from(!answer), posterior))
            }
            Reference::Cases(query, kind, sets) => {
                self.downgrade_kary(query, *kind, sets, &self.prior(point), point)
            }
        };
        match decided {
            Ok((output, posterior)) => {
                self.knowledge.insert(point.clone(), posterior);
                self.stats.downgrades_authorized += 1;
                Ok(output)
            }
            Err(e) => {
                if matches!(
                    e,
                    AnosyError::PolicyViolation { .. } | AnosyError::OutputViolation { .. }
                ) {
                    self.stats.downgrades_refused += 1;
                }
                Err(e)
            }
        }
    }

    /// The bounded downgrade of a query of more than two outputs: every output's posterior is
    /// checked, and a refusal names the first violating output.
    fn downgrade_kary(
        &self,
        query: &KaryQuery,
        kind: ApproxKind,
        sets: &[D],
        prior: &Knowledge<D>,
        point: &Point,
    ) -> Result<(usize, Knowledge<D>), AnosyError> {
        if !Policy::<D>::sound_for(&self.policy, kind) {
            return Err(AnosyError::UnsoundApproximation { kind });
        }
        let mut posteriors: Vec<Knowledge<D>> = sets.iter().map(|s| prior.refine_with(s)).collect();
        if let Some(output) = posteriors.iter().position(|k| !self.policy.allows(k)) {
            return Err(AnosyError::OutputViolation {
                query: query.name().to_string(),
                policy: Policy::<D>::name(&self.policy),
                output,
                posterior_size: posteriors[output].size(),
            });
        }
        let output = query.output(point);
        Ok((output, posteriors.swap_remove(output)))
    }
}

/// The error [`AnosySession::downgrade_output`] spells a refusal out as.
fn spelled<D: AbstractDomain>(refusal: Refusal, query: &str, policy: &PolicySpec) -> AnosyError {
    match refusal {
        Refusal::OutsideLayout => AnosyError::SecretOutsideLayout,
        Refusal::Unsound(kind) => AnosyError::UnsoundApproximation { kind },
        Refusal::Policy { true_size, false_size } => AnosyError::PolicyViolation {
            query: query.to_string(),
            policy: Policy::<D>::name(policy),
            posterior_true_size: true_size,
            posterior_false_size: false_size,
        },
        Refusal::OutputPolicy { output, size } => AnosyError::OutputViolation {
            query: query.to_string(),
            policy: Policy::<D>::name(policy),
            output,
            posterior_size: size,
        },
    }
}

fn run<D: FromRects>(case: &Case) -> Result<(), TestCaseError> {
    let mut session = AnosySession::<D>::new(layout(), case.policy.clone());
    let mut oracle = Oracle {
        policy: case.policy.clone(),
        queries: HashMap::new(),
        knowledge: HashMap::new(),
        stats: SessionStats::default(),
    };
    let register = |session: &mut AnosySession<D>, oracle: &mut Oracle<D>, r: &Registration| {
        oracle.queries.insert(name(r.name), r.reference());
        session.register(r.qinfo());
    };
    for r in &case.registrations {
        register(&mut session, &mut oracle, r);
    }
    for (step, op) in case.ops.iter().enumerate() {
        match op {
            Op::Downgrade { name: n, secret, via } => {
                let (name, point) = (name(*n), &case.secrets[*secret]);
                let expected = oracle.downgrade(&name, point);
                let secret = Protected::new(point.clone());
                // `downgrade` answers whether the output is 0, compared here as output 0 or 1.
                let (got, expected) = match (via, session.query_handle(&name)) {
                    (Via::Answer, _) => (
                        session.downgrade(&secret, &name).map(|answer| usize::from(!answer)),
                        expected.map(|output| usize::from(output != 0)),
                    ),
                    (Via::Decide, Some(qinfo)) => (
                        session
                            .decide(&qinfo, point)
                            .map_err(|refusal| spelled::<D>(refusal, &name, &case.policy)),
                        expected,
                    ),
                    _ => (session.downgrade_output(&secret, &name), expected),
                };
                prop_assert_eq!(got, expected, "step {}: {:?}", step, op);
            }
            Op::Batch { name: n, secrets } => {
                let points: Vec<Point> = secrets.iter().map(|&i| case.secrets[i].clone()).collect();
                let expected: Vec<_> =
                    points.iter().map(|p| oracle.downgrade(&name(*n), p)).collect();
                let qinfo =
                    session.query_handle(&name(*n)).expect("batches name registered queries");
                let mut got = Vec::new();
                let denied = session.decide_batch(&qinfo, &points, |decided| {
                    got.push(
                        decided.map_err(|refusal| spelled::<D>(refusal, &name(*n), &case.policy)),
                    );
                });
                prop_assert_eq!(&got, &expected, "step {}: {:?}", step, op);
                prop_assert_eq!(
                    denied,
                    expected.iter().filter(|r| r.is_err()).count(),
                    "step {}",
                    step
                );
            }
            Op::Register(r) => register(&mut session, &mut oracle, r),
            Op::Reset => {
                session.reset_knowledge();
                oracle.knowledge.clear();
            }
        }
        prop_assert_eq!(session.stats(), oracle.stats, "step {}", step);
        let cache = session.shared_cache().stats();
        prop_assert_eq!(
            (cache.downgrades_authorized, cache.downgrades_refused),
            (oracle.stats.downgrades_authorized, oracle.stats.downgrades_refused),
            "step {}",
            step
        );
        prop_assert_eq!(session.tracked_secrets(), oracle.knowledge.len(), "step {}", step);
        for point in &case.secrets {
            prop_assert_eq!(
                session.knowledge_of(point).domain().encode(),
                oracle.prior(point).domain().encode(),
                "step {}: knowledge of {}",
                step,
                point
            );
        }
    }
    Ok(())
}

/// `x <= cut`, or `y <= cut` on `field` 1, with exact interval ind. sets.
fn cut(name: usize, field: usize, cut: i64, kind: ApproxKind) -> Registration {
    let (truthy, falsy) = match field {
        0 => ((0, cut, 0, SIDE), (cut + 1, SIDE, 0, SIDE)),
        _ => ((0, SIDE, 0, cut), (0, SIDE, cut + 1, SIDE)),
    };
    Registration {
        name,
        cases: vec![(field, cut)],
        kind,
        sets: vec![vec![truthy], vec![falsy]],
        exclusions: vec![],
    }
}

#[test]
fn a_batch_spanning_more_states_than_it_caches_matches_the_chains() {
    // Secret (i, i) answers `x <= i` true and lands in `[0, i] × [0, SIDE]`: fifteen states, and
    // (SIDE, SIDE) stays at ⊤, twice the eight a batch keeps on its stack. Each batch names
    // every secret twice, so the second occurrence decides from the first one's posterior.
    // `y <= 7` halves every state (refused below 40 points under min-size); the
    // over-approximate `x <= 7` is unsound for min-size.
    let spread = (0..SIDE as usize).map(|i| cut(i, 0, i as i64, ApproxKind::Under));
    let halves = [cut(15, 1, 7, ApproxKind::Under), cut(16, 0, 7, ApproxKind::Over)];
    let mut secrets: Vec<Point> = (0..=SIDE).map(|i| Point::new(vec![i, i])).collect();
    secrets.push(Point::new(vec![SIDE + 1, 0]));
    let everyone: Vec<usize> = (0..secrets.len()).chain(0..secrets.len()).collect();
    let mut ops: Vec<Op> = (0..SIDE as usize)
        .map(|i| Op::Downgrade { name: i, secret: i, via: Via::Decide })
        .collect();
    for name in [15, 16, 15, 0] {
        ops.push(Op::Batch { name, secrets: everyone.clone() });
    }
    for policy in [PolicySpec::AllowAll, PolicySpec::MinSize(40)] {
        let case = Case {
            policy,
            secrets: secrets.clone(),
            registrations: spread.clone().chain(halves.clone()).collect(),
            ops: ops.clone(),
        };
        run::<IntervalDomain>(&case).unwrap();
        run::<PowersetDomain>(&case).unwrap();
    }
}

#[test]
fn downgrade_step_matches_the_session_path() {
    // The paper's §3 walkthrough (authorize, authorize, refuse) on the paper's hand-written
    // approximation of nearby (200,200) and synthesized ones of nearby (300,200) and
    // (400,200): the reference step chained over a local prior, and a session.
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let nearby = |xo: i64| {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new(format!("nearby_{xo}_200"), layout.clone(), pred).unwrap()
    };
    let paper = IndSets::new(
        ApproxKind::Under,
        IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
        IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]),
    );
    let mut synth =
        Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
    let mut synthesized = |xo| synth.synth_interval(&nearby(xo), ApproxKind::Under).unwrap();
    let queries = [
        BooleanQInfo { query: nearby(200), indsets: paper },
        BooleanQInfo { query: nearby(300), indsets: synthesized(300) },
        BooleanQInfo { query: nearby(400), indsets: synthesized(400) },
    ];
    let policy = PolicySpec::MinSize(100);
    let point = Point::new(vec![300, 200]);
    let mut session = AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
    for q in &queries {
        session.register(QInfo::new(q.query.clone(), q.indsets.clone()));
    }
    let mut prior = Knowledge::initial(&layout);
    for (i, qinfo) in queries.iter().enumerate() {
        let name = qinfo.query().name();
        let expected = session.downgrade(&Protected::new(point.clone()), name);
        match downgrade_step(&policy, qinfo, &prior, &point) {
            Ok((answer, posterior)) => {
                assert!(answer && i < 2, "{name}");
                assert_eq!(expected, Ok(true));
                prior = posterior;
            }
            Err(e) => {
                assert!(matches!(e, AnosyError::PolicyViolation { .. }) && i == 2, "{name}: {e}");
                assert_eq!(expected, Err(e));
            }
        }
        if i == 0 {
            assert_eq!(prior.size(), 6837);
        }
        assert_eq!(session.knowledge_of(&point), prior, "after {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn table_backed_sessions_match_per_secret_step_chains(case in from_fn(case)) {
        run::<IntervalDomain>(&case)?;
        run::<PowersetDomain>(&case)?;
    }
}
