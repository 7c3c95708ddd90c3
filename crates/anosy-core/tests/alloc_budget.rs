//! Allocation budget of a steady-state downgrade.
//!
//! A session decides a step from a knowledge state through a query once and memoizes it. The
//! first decision of a step computes two powerset meets. Each meet keeps one flat inclusion list
//! and one flat exclusion list and counts residuals on one scratch stack. The session checks the
//! secret against the layout without building a box. So a first decision needs at most three
//! allocations per meet, six in all, plus the growth of the table that interns its posteriors.
//! The budget of 8 leaves room for two more.
//!
//! A repeated step is a memo lookup that allocates nothing, authorized or refused, in either
//! domain. A batch keeps the steps it has resolved in a fixed-size cache on the stack and reads
//! the memo for states beyond it, so a warm batch allocates nothing however many states its
//! secrets span. The wire parser stores each secret of up to four coordinates inline in its
//! `Point`, so a `batch` line allocates its list of secrets once, and a `downgrade` line naming
//! an interned query allocates nothing. So a repeated batch line, parsed and then served
//! through the frontend, allocates as often for 64 or 1024 tracked secrets as for one.
//!
//! The solver's search state is a box, and a box of up to four dimensions stores its ranges
//! inline, so narrowing a 2-D box against a query compiled for the search allocates nothing. One
//! synthesis of a powerset ind. set stays within a fixed budget of allocations, most of them the
//! fresh store's arena and memo tables: the maximal-box search probes without allocating, its
//! model searches share one stack and one compiled predicate, and candidate boxes are interned
//! without building a tree.
//!
//! The counting allocator counts per thread, so tests running in parallel do not disturb each
//! other's counts.

use anosy_core::{AnosyError, AnosySession, Knowledge, PolicySpec, QInfo, Refusal, SynthesizeInto};
use anosy_domains::{without_size_oracle, AInt, AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_logic::{IntBox, IntExpr, Point, Range, SecretLayout, TermStore};
use anosy_serve::wire::{self, NameInterner};
use anosy_serve::{Deployment, Frontend, ServeConfig, ServeRequest, ServeResponse};
use anosy_solver::CompiledPred;
use anosy_synth::{ApproxKind, DomainCodec, IndSets, QueryDef, SynthConfig, Synthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread. Debug builds check every normalized powerset size
/// against a recount from boxes; that check is left out of the count, as it is of release
/// builds.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    without_size_oracle(|| {
        let before = ALLOCATIONS.with(Cell::get);
        let result = f();
        (result, ALLOCATIONS.with(Cell::get) - before)
    })
}

const BUDGET: usize = 8;

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

fn member(x: (i64, i64), y: (i64, i64)) -> IntervalDomain {
    IntervalDomain::from_intervals(vec![AInt::new(x.0, x.1), AInt::new(y.0, y.1)])
}

/// `x <= 200` with `members=3` under-approximate ind. sets whose members overlap.
fn west() -> QInfo<PowersetDomain> {
    let query = QueryDef::new("west", layout(), IntExpr::var(0).le(200)).unwrap();
    let truthy = PowersetDomain::new(
        2,
        vec![
            member((0, 120), (0, 400)),
            member((100, 200), (0, 250)),
            member((80, 200), (200, 400)),
        ],
        vec![],
    );
    let falsy = PowersetDomain::new(
        2,
        vec![
            member((201, 400), (0, 180)),
            member((201, 330), (150, 400)),
            member((300, 400), (170, 400)),
        ],
        vec![],
    );
    QInfo::new(query, IndSets::new(ApproxKind::Under, truthy, falsy))
}

/// `y <= 300` with `members=3` over-approximate ind. sets: a bounding box minus two carved
/// boxes each.
fn south() -> QInfo<PowersetDomain> {
    let query = QueryDef::new("south", layout(), IntExpr::var(1).le(300)).unwrap();
    let truthy = PowersetDomain::new(
        2,
        vec![member((0, 400), (0, 320))],
        vec![member((0, 50), (301, 320)), member((350, 400), (301, 320))],
    );
    let falsy = PowersetDomain::new(
        2,
        vec![member((0, 400), (280, 400))],
        vec![member((0, 30), (280, 300)), member((370, 400), (280, 300))],
    );
    QInfo::new(query, IndSets::new(ApproxKind::Over, truthy, falsy))
}

/// `x <= y` with `members=3` under-approximate ind. sets: staircases on either side of the
/// diagonal.
fn diagonal() -> QInfo<PowersetDomain> {
    let query = QueryDef::new("diagonal", layout(), IntExpr::var(0).le(IntExpr::var(1))).unwrap();
    let truthy = PowersetDomain::new(
        2,
        vec![
            member((0, 100), (100, 400)),
            member((100, 200), (200, 400)),
            member((200, 300), (300, 400)),
        ],
        vec![],
    );
    let falsy = PowersetDomain::new(
        2,
        vec![
            member((100, 400), (0, 99)),
            member((200, 400), (100, 199)),
            member((300, 400), (200, 299)),
        ],
        vec![],
    );
    QInfo::new(query, IndSets::new(ApproxKind::Under, truthy, falsy))
}

#[test]
fn steady_state_powerset_downgrades_stay_within_the_budget() {
    // Min-size is not sound for over-approximations, so the over-approximate `south` round is
    // measured in an allow-all session; the min-size session refuses it without allocating.
    let mut bounded = AnosySession::<PowersetDomain>::new(layout(), PolicySpec::MinSize(100));
    let mut open = AnosySession::<PowersetDomain>::new(layout(), PolicySpec::AllowAll);
    let secrets =
        [Point::new(vec![60, 90]), Point::new(vec![250, 350]), Point::new(vec![150, 260])];
    for session in [&mut bounded, &mut open] {
        for secret in &secrets {
            // First touch: the secret's `⊤` prior is built and its entry inserted.
            assert!(session.downgrade_with(&west(), secret).is_ok());
        }
    }
    let south = south();
    for secret in &secrets {
        let prior = bounded.knowledge_of(secret);
        let (outcome, count) = allocations(|| bounded.downgrade_with(&south, secret));
        assert_eq!(outcome, Err(AnosyError::UnsoundApproximation { kind: ApproxKind::Over }));
        assert_eq!(count, 0, "secret {secret}: a refusal before the meets allocates nothing");
        assert_eq!(bounded.knowledge_of(secret), prior);
    }
    for (round, (query, session)) in
        [(south, &mut open), (diagonal(), &mut bounded)].into_iter().enumerate()
    {
        for secret in &secrets {
            let prior = session.knowledge_of(secret);
            let (outcome, count) = allocations(|| session.downgrade_with(&query, secret));
            assert!(outcome.is_ok(), "round {round}: {outcome:?}");
            assert!(
                count <= BUDGET,
                "round {round}, secret {secret}: {count} allocations, budget {BUDGET}"
            );
            // The posterior the session kept is the meet of the prior with the answer's ind. set.
            let kept = session.knowledge_of(secret);
            assert!(query
                .sets()
                .iter()
                .any(|set| kept == Knowledge::from_domain(prior.domain().intersect(set))));
        }
    }
    assert!(bounded.knowledge_of(&secrets[0]).size() > 100);
}

/// `x <= 200` with exact interval ind. sets.
fn west_interval() -> QInfo<IntervalDomain> {
    let query = QueryDef::new("west", layout(), IntExpr::var(0).le(200)).unwrap();
    QInfo::new(
        query,
        IndSets::new(ApproxKind::Under, member((0, 200), (0, 400)), member((201, 400), (0, 400))),
    )
}

/// Two tracked secrets on the `true` side of `query`, both in the state a repeated `query` step
/// leaves them in, and the session's memo holding that step.
fn settle<D: AbstractDomain>(session: &mut AnosySession<D>, query: &QInfo<D>) -> [Point; 2] {
    let secrets = [Point::new(vec![60, 90]), Point::new(vec![150, 260])];
    for _ in 0..3 {
        for secret in &secrets {
            let _ = session.decide(query, secret);
        }
    }
    secrets
}

/// A repeated step allocates nothing: an authorized one under allow-all (the posterior of the
/// `true` answer is the prior again) and a refused one under min-size (the `false` posterior is
/// empty).
fn memo_hits_allocate_nothing<D: AbstractDomain>(query: QInfo<D>) {
    let mut open = AnosySession::<D>::new(layout(), PolicySpec::AllowAll);
    for secret in settle(&mut open, &query) {
        let prior = open.knowledge_of(&secret);
        let (outcome, count) = allocations(|| open.decide(&query, &secret));
        assert_eq!(outcome, Ok(0));
        assert_eq!(count, 0, "secret {secret}: an authorized memo hit allocates nothing");
        assert_eq!(open.knowledge_of(&secret), prior);
        let (outcome, count) = allocations(|| open.downgrade_with(&query, &secret));
        assert_eq!((outcome, count), (Ok(true), 0));
    }
    let mut bounded = AnosySession::<D>::new(layout(), PolicySpec::MinSize(100));
    for secret in settle(&mut bounded, &query) {
        let (outcome, count) = allocations(|| bounded.decide(&query, &secret));
        assert!(matches!(outcome, Err(Refusal::Policy { false_size: 0, .. })), "{outcome:?}");
        assert_eq!(count, 0, "secret {secret}: a refused memo hit allocates nothing");
    }
    assert_eq!(bounded.stats().downgrades_refused, 2 * 2 + 2);
}

#[test]
fn memo_hits_allocate_nothing_in_either_domain() {
    memo_hits_allocate_nothing(west_interval());
    memo_hits_allocate_nothing(west());
}

/// `x <= cut` (`field` 0) or `y <= cut` (`field` 1) with exact ind. sets, as elements of `D`.
fn cut<D: AbstractDomain>(
    name: &str,
    field: usize,
    cut: i64,
    lift: fn(IntervalDomain) -> D,
) -> QInfo<D> {
    let query = QueryDef::new(name, layout(), IntExpr::var(field).le(cut)).unwrap();
    let (truthy, falsy) = match field {
        0 => (member((0, cut), (0, 400)), member((cut + 1, 400), (0, 400))),
        _ => (member((0, 400), (0, cut)), member((0, 400), (cut + 1, 400))),
    };
    QInfo::new(query, IndSets::new(ApproxKind::Under, lift(truthy), lift(falsy)))
}

/// Secret `i` answers `x <= 25 i` true and lands in a state of its own, so a batch of all 16
/// (each twice) spans twice the states the batch caches. Once `y <= 200` has been decided from
/// each state and each secret has reached its fixed point, the batch allocates nothing, as a
/// batch of one does. Allow-all authorizes every warm step; min-size:10000 refuses them all,
/// since a fixed point's `false` posterior is empty.
fn a_warm_batch_spanning_many_states_allocates_nothing<D>(lift: fn(IntervalDomain) -> D)
where
    D: AbstractDomain + DomainCodec,
{
    for policy in [PolicySpec::AllowAll, PolicySpec::MinSize(10_000)] {
        let mut session = AnosySession::<D>::new(layout(), policy.clone());
        let secrets: Vec<Point> = (0..16).map(|i| Point::new(vec![i * 25, 100 + i])).collect();
        for (i, secret) in (0..).zip(&secrets) {
            let _ = session.decide(&cut(&format!("x{i}"), 0, i * 25, lift), secret);
        }
        let states: BTreeSet<_> =
            secrets.iter().map(|s| session.knowledge_of(s).domain().encode()).collect();
        assert!(states.len() > 8, "{} distinct states under {policy}", states.len());
        let south = cut("south", 1, 200, lift);
        let batch: Vec<Point> = secrets.iter().chain(&secrets).cloned().collect();
        for _ in 0..2 {
            session.decide_batch(&south, &batch, |_| ());
        }
        let (denied, count) = allocations(|| session.decide_batch(&south, &batch, |_| ()));
        assert_eq!(denied == 0, policy == PolicySpec::AllowAll);
        let (_, one) = allocations(|| session.decide_batch(&south, &batch[..1], |_| ()));
        assert_eq!((count, one), (0, 0), "under {policy}");
    }
}

#[test]
fn a_warm_batch_spanning_more_states_than_it_caches_allocates_nothing_in_either_domain() {
    a_warm_batch_spanning_many_states_allocates_nothing::<IntervalDomain>(|b| b);
    a_warm_batch_spanning_many_states_allocates_nothing::<PowersetDomain>(|b| {
        PowersetDomain::new(2, vec![b], vec![])
    });
}

/// A `batch` wire line of `n` secrets spread over the layout.
fn batch_line(session: u64, n: i64) -> String {
    let secrets: Vec<String> =
        (0..n).map(|i| format!("{},{}", i * 397 % 401, i * 131 % 401)).collect();
    format!("batch session={session} query=west secrets={}", secrets.join(";"))
}

/// Allocations of the fourth identical `batch` line of `n` secrets through the wire parser,
/// `Frontend::submit` and `Frontend::tick`, once the batch's steps are all memoized.
fn repeated_batch_allocations<D>(policy: PolicySpec, n: i64) -> usize
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    let mut frontend = Frontend::new(Deployment::<D>::new(layout(), ServeConfig::for_tests()));
    let conn = frontend.connect();
    let query = QueryDef::new("west", layout(), IntExpr::var(0).le(200)).unwrap();
    frontend.submit(
        conn,
        ServeRequest::RegisterQuery { query, kind: ApproxKind::Under, members: Some(3) },
    );
    frontend.submit(conn, ServeRequest::OpenSession { policy });
    let Some(ServeResponse::SessionOpened { session }) = frontend.tick().pop().map(|r| r.response)
    else {
        panic!("the session opens");
    };
    let (layout, line) = (layout(), batch_line(session.0, n));
    let mut names = NameInterner::new();
    for _ in 0..3 {
        frontend.submit(conn, wire::parse_request_interned(&line, &layout, &mut names).unwrap());
        frontend.tick();
    }
    let (responses, count) = allocations(|| {
        let request = wire::parse_request_interned(&line, &layout, &mut names).unwrap();
        frontend.submit(conn, request);
        frontend.tick()
    });
    match &responses[0].response {
        ServeResponse::Answers(answers) => assert_eq!(answers.len(), n as usize),
        other => panic!("expected batch answers, got {other:?}"),
    }
    count
}

#[test]
fn a_repeated_batch_allocates_the_same_for_one_and_for_64_tracked_secrets() {
    // 1024 secrets is a bulk-powerset batch.
    for policy in [PolicySpec::AllowAll, PolicySpec::MinSize(100)] {
        for n in [64, 1024] {
            let one = repeated_batch_allocations::<IntervalDomain>(policy.clone(), 1);
            let many = repeated_batch_allocations::<IntervalDomain>(policy.clone(), n);
            assert_eq!(one, many, "{n} intervals under {policy}");
            let one = repeated_batch_allocations::<PowersetDomain>(policy.clone(), 1);
            let many = repeated_batch_allocations::<PowersetDomain>(policy.clone(), n);
            assert_eq!(one, many, "{n} powersets under {policy}");
        }
    }
}

/// Allocations of parsing one `batch` line of `n` secrets, its query name already interned.
fn batch_parse_allocations(n: i64) -> usize {
    let (layout, line) = (layout(), batch_line(1, n));
    let mut names = NameInterner::new();
    assert!(wire::parse_request_interned(&line, &layout, &mut names).is_ok());
    let (request, count) = allocations(|| wire::parse_request_interned(&line, &layout, &mut names));
    match request {
        Ok(ServeRequest::DowngradeBatch { secrets, .. }) => assert_eq!(secrets.len(), n as usize),
        other => panic!("expected a batch, got {other:?}"),
    }
    count
}

#[test]
fn parsing_a_batch_line_allocates_its_secret_list_once() {
    assert_eq!(batch_parse_allocations(1), 1);
    assert_eq!(batch_parse_allocations(1024), 1);
}

#[test]
fn parsing_a_downgrade_line_with_an_interned_query_allocates_nothing() {
    let layout = layout();
    let mut names = NameInterner::new();
    let line = "downgrade session=1 query=west secret=300,200";
    assert!(wire::parse_request_interned(line, &layout, &mut names).is_ok());
    let (request, count) = allocations(|| wire::parse_request_interned(line, &layout, &mut names));
    assert_eq!(count, 0);
    match request {
        Ok(ServeRequest::Downgrade { secret, .. }) => {
            assert_eq!(secret, Point::new(vec![300, 200]))
        }
        other => panic!("expected a downgrade, got {other:?}"),
    }
}

#[test]
fn a_meet_with_exclusions_on_both_sides_allocates_its_two_lists_and_one_stack() {
    let prior = PowersetDomain::new(
        2,
        vec![member((0, 200), (0, 200)), member((150, 300), (150, 300))],
        vec![member((100, 160), (100, 160))],
    );
    let ind = south();
    let (meet, count) = allocations(|| prior.intersect(&ind.sets()[0]));
    assert!(meet.size() > 0);
    assert!(count <= 3, "{count} allocations");
}

/// The cold-register query shape: a Manhattan ball on the 401×401 grid.
fn diamond(x: i64, y: i64, radius: i64) -> QueryDef {
    let pred = ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(radius);
    QueryDef::new(format!("diamond_{x}_{y}_{radius}"), layout(), pred).unwrap()
}

#[test]
fn narrowing_a_2d_box_against_an_interned_query_allocates_nothing() {
    let mut store = TermStore::new();
    let raw = store.intern_pred(diamond(180, 230, 60).pred());
    let (query, negated) = (store.simplify(raw), store.negate_simplified(raw));
    let boxes = [
        IntBox::new(vec![Range::new(0, 400), Range::new(0, 400)]),
        IntBox::new(vec![Range::new(150, 260), Range::new(100, 200)]),
        IntBox::new(vec![Range::new(300, 400), Range::new(0, 50)]),
    ];
    let mut programs = [query, negated].map(|pred| CompiledPred::compile(&store, pred));
    for boxed in &boxes {
        for program in &mut programs {
            let (narrowed, count) = allocations(|| program.narrow(boxed, 4));
            assert_eq!(count, 0, "narrowing {boxed} allocated");
            if let Some(narrowed) = narrowed {
                assert!(boxed.contains_box(&narrowed));
            }
        }
    }
}

/// Allocations of one powerset-3 under-approximation synthesis of a radius-60 diamond, by a
/// fresh synthesizer as a registration makes: 1,226 (16,422 before the search stopped
/// allocating per probe, 1,313 before the search ran over compiled predicates).
const SYNTHESIS_BUDGET: usize = 1_500;

#[test]
fn one_synthesis_stays_within_its_allocation_budget() {
    let query = diamond(180, 230, 60);
    let (indsets, count) = allocations(|| {
        let mut synth = Synthesizer::with_config(SynthConfig::default());
        synth.synth_powerset(&query, ApproxKind::Under, 3).unwrap()
    });
    assert_eq!(indsets.truthy().includes().len(), 3);
    assert!(count <= SYNTHESIS_BUDGET, "{count} allocations, budget {SYNTHESIS_BUDGET}");
}
