//! Table-backed sessions against an independent oracle.
//!
//! An [`AnosySession`] keeps one state id per secret and decides each `(state, query)` step once
//! in its knowledge table. The oracle keeps what a session kept before the table existed: one
//! [`Knowledge`] per secret in a `HashMap`, advanced by a fresh [`downgrade_step`] on every
//! downgrade. Random histories run through both, in both domains, under allow-all, min-size and
//! conjunction policies and both approximation directions. They mix duplicate and out-of-layout
//! secrets, unknown names, names registered again with another predicate, resets, k-ary
//! downgrades and batches through [`AnosySession::decide_batch`], which the oracle decides one
//! secret after another. Answers, errors, counters and the encoded knowledge of every secret
//! must agree after every step.

use anosy_core::{
    downgrade_step, AnosyError, AnosySession, KaryIndSets, KaryQuery, Knowledge, Policy,
    PolicySpec, QInfo, Refusal, SessionStats,
};
use anosy_domains::{AInt, AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_synth::{ApproxKind, DomainCodec, IndSets, QueryDef};
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

/// One registration of query name `name`: the predicate `field <= cut` with arbitrary ind. sets
/// (the comparison is differential, so the sets need not be sound for the predicate).
#[derive(Debug, Clone)]
struct Registration {
    name: usize,
    field: usize,
    cut: i64,
    kind: ApproxKind,
    truthy: Vec<Rect>,
    falsy: Vec<Rect>,
    exclusions: Vec<Rect>,
}

impl Registration {
    fn qinfo<D: FromRects>(&self) -> QInfo<D> {
        let query = QueryDef::new(name(self.name), layout(), IntExpr::var(self.field).le(self.cut))
            .unwrap();
        let truthy = D::from_rects(&self.truthy, &self.exclusions);
        let falsy = D::from_rects(&self.falsy, &[]);
        QInfo::new(query, IndSets::new(self.kind, truthy, falsy))
    }
}

/// Name 3 is never registered.
const NAMES: usize = 4;

fn name(index: usize) -> String {
    format!("q{index}")
}

#[derive(Debug, Clone)]
enum Op {
    /// A boolean downgrade by name, or through [`AnosySession::decide`] with the resolved query.
    Downgrade {
        name: usize,
        secret: usize,
        via_decide: bool,
    },
    /// One [`AnosySession::decide_batch`] call over these secrets, duplicates included.
    Batch {
        name: usize,
        secrets: Vec<usize>,
    },
    Register(Registration),
    Kary {
        secret: usize,
    },
    Reset,
}

#[derive(Debug, Clone)]
struct Case {
    policy: PolicySpec,
    secrets: Vec<Point>,
    registrations: Vec<Registration>,
    kary_kind: ApproxKind,
    kary_sets: Vec<Vec<Rect>>,
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

fn registration(rng: &mut TestRng, name: usize) -> Registration {
    Registration {
        name,
        field: rng.below(2) as usize,
        cut: rng.below(SIDE as u64 + 1) as i64,
        kind: kind(rng),
        truthy: rects(rng, 3),
        falsy: rects(rng, 3),
        exclusions: if rng.below(3) == 0 { vec![random_rect(rng)] } else { vec![] },
    }
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
    let registrations = (0..NAMES - 1).map(|n| registration(rng, n)).collect();
    let kary_sets = (0..3).map(|_| rects(rng, 2)).collect();
    let spread = if wide { 2 * secrets.len() } else { 0 };
    let mut ops: Vec<Op> = (0..spread)
        .map(|i| Op::Downgrade {
            name: rng.below(NAMES as u64 - 1) as usize,
            secret: i % secrets.len(),
            via_decide: true,
        })
        .collect();
    ops.extend((0..rng.below(40)).map(|_| {
        match rng.below(20) {
            0..=10 => Op::Downgrade {
                name: rng.below(NAMES as u64) as usize,
                secret: rng.below(secrets.len() as u64) as usize,
                via_decide: rng.below(2) == 0,
            },
            11..=13 => Op::Batch {
                name: rng.below(NAMES as u64 - 1) as usize,
                secrets: (0..rng.below(3 * secrets.len() as u64 + 1))
                    .map(|_| rng.below(secrets.len() as u64) as usize)
                    .collect(),
            },
            14..=16 => {
                let name = rng.below(NAMES as u64 - 1) as usize;
                Op::Register(registration(rng, name))
            }
            17..=18 => Op::Kary { secret: rng.below(secrets.len() as u64) as usize },
            _ => Op::Reset,
        }
    }));
    Case { policy, secrets, registrations, kary_kind: kind(rng), kary_sets, ops }
}

/// The session before knowledge tables: one knowledge per secret, every step recomputed.
struct Oracle<D: AbstractDomain> {
    policy: PolicySpec,
    queries: HashMap<String, QInfo<D>>,
    kary: (KaryQuery, KaryIndSets<D>),
    knowledge: HashMap<Point, Knowledge<D>>,
    stats: SessionStats,
}

impl<D: AbstractDomain> Oracle<D> {
    fn prior(&self, point: &Point) -> Knowledge<D> {
        self.knowledge.get(point).cloned().unwrap_or_else(|| Knowledge::initial(&layout()))
    }

    fn downgrade(&mut self, query: &str, point: &Point) -> Result<bool, AnosyError> {
        let qinfo = self
            .queries
            .get(query)
            .ok_or_else(|| AnosyError::UnknownQuery { name: query.to_string() })?;
        if !layout().admits(point) {
            return Err(AnosyError::SecretOutsideLayout);
        }
        match downgrade_step(&self.policy, qinfo, &self.prior(point), point) {
            Ok((answer, posterior)) => {
                self.knowledge.insert(point.clone(), posterior);
                self.stats.downgrades_authorized += 1;
                Ok(answer)
            }
            Err(e) => {
                if matches!(e, AnosyError::PolicyViolation { .. }) {
                    self.stats.downgrades_refused += 1;
                }
                Err(e)
            }
        }
    }

    fn downgrade_kary(&mut self, point: &Point) -> Result<usize, AnosyError> {
        let (query, indsets) = &self.kary;
        if !layout().admits(point) {
            return Err(AnosyError::SecretOutsideLayout);
        }
        if !Policy::<D>::sound_for(&self.policy, indsets.kind()) {
            return Err(AnosyError::UnsoundApproximation { kind: indsets.kind() });
        }
        let posteriors: Vec<Knowledge<D>> = indsets
            .posterior(self.prior(point).domain())
            .into_iter()
            .map(Knowledge::from_domain)
            .collect();
        if let Some(violating) = posteriors.iter().find(|k| !self.policy.allows(k)) {
            self.stats.downgrades_refused += 1;
            return Err(AnosyError::PolicyViolation {
                query: query.name().to_string(),
                policy: Policy::<D>::name(&self.policy),
                posterior_true_size: violating.size(),
                posterior_false_size: violating.size(),
            });
        }
        let output = query.output(point);
        self.knowledge.insert(point.clone(), posteriors[output].clone());
        self.stats.downgrades_authorized += 1;
        Ok(output)
    }
}

/// The error [`AnosySession::downgrade_with`] spells a refusal out as.
fn spelled<D: AbstractDomain>(
    refusal: Refusal,
    qinfo: &QInfo<D>,
    policy: &PolicySpec,
) -> AnosyError {
    match refusal {
        Refusal::OutsideLayout => AnosyError::SecretOutsideLayout,
        Refusal::Unsound(kind) => AnosyError::UnsoundApproximation { kind },
        Refusal::Policy { true_size, false_size } => AnosyError::PolicyViolation {
            query: qinfo.query().name().to_string(),
            policy: Policy::<D>::name(policy),
            posterior_true_size: true_size,
            posterior_false_size: false_size,
        },
    }
}

fn run<D: FromRects>(case: &Case) -> Result<(), TestCaseError> {
    let kary_query =
        KaryQuery::new("kary", layout(), vec![IntExpr::var(0).le(5), IntExpr::var(1).le(9)])
            .unwrap();
    let kary_sets = KaryIndSets::new(
        case.kary_kind,
        case.kary_sets.iter().map(|r| D::from_rects(r, &[])).collect(),
    );
    let mut session = AnosySession::<D>::new(layout(), case.policy.clone());
    session.register_kary(kary_query.clone(), kary_sets.clone());
    let mut oracle = Oracle {
        policy: case.policy.clone(),
        queries: HashMap::new(),
        kary: (kary_query, kary_sets),
        knowledge: HashMap::new(),
        stats: SessionStats::default(),
    };
    let register = |session: &mut AnosySession<D>, oracle: &mut Oracle<D>, r: &Registration| {
        let qinfo = r.qinfo::<D>();
        oracle.queries.insert(name(r.name), qinfo.clone());
        session.register(qinfo);
    };
    for r in &case.registrations {
        register(&mut session, &mut oracle, r);
    }
    for (step, op) in case.ops.iter().enumerate() {
        match op {
            Op::Downgrade { name: n, secret, via_decide } => {
                let point = &case.secrets[*secret];
                let expected = oracle.downgrade(&name(*n), point);
                let got = match (via_decide, session.query_handle(&name(*n))) {
                    (true, Some(qinfo)) => session
                        .decide(&qinfo, point)
                        .map_err(|refusal| spelled(refusal, &qinfo, &case.policy)),
                    _ => session.downgrade(&Protected::new(point.clone()), &name(*n)),
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
                    got.push(decided.map_err(|refusal| spelled(refusal, &qinfo, &case.policy)));
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
            Op::Kary { secret } => {
                let point = &case.secrets[*secret];
                let expected = oracle.downgrade_kary(point);
                let got = session.downgrade_kary(&Protected::new(point.clone()), "kary");
                prop_assert_eq!(got, expected, "step {}: {:?}", step, op);
            }
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
        field,
        cut,
        kind,
        truthy: vec![truthy],
        falsy: vec![falsy],
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
        .map(|i| Op::Downgrade { name: i, secret: i, via_decide: true })
        .collect();
    for name in [15, 16, 15, 0] {
        ops.push(Op::Batch { name, secrets: everyone.clone() });
    }
    for policy in [PolicySpec::AllowAll, PolicySpec::MinSize(40)] {
        let case = Case {
            policy,
            secrets: secrets.clone(),
            registrations: spread.clone().chain(halves.clone()).collect(),
            kary_kind: ApproxKind::Under,
            kary_sets: vec![vec![(0, SIDE, 0, SIDE)]; 3],
            ops: ops.clone(),
        };
        run::<IntervalDomain>(&case).unwrap();
        run::<PowersetDomain>(&case).unwrap();
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
