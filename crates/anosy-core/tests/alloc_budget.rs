//! Allocation budget of a steady-state powerset downgrade.
//!
//! A bounded downgrade computes two powerset meets before it answers. Each meet keeps one flat
//! inclusion list and one flat exclusion list and counts residuals on one scratch stack. The
//! session checks the secret against the layout without building a box, reads the tracked prior
//! in place and overwrites it in place. So a downgrade of a secret that is already tracked needs
//! at most three allocations per meet, six in all. The budget of 8 leaves room for two more.
//!
//! The counting allocator counts per thread, so tests running in parallel do not disturb each
//! other's counts.

use anosy_core::{AllowAll, AnosyError, AnosySession, Knowledge, MinSizePolicy, QInfo};
use anosy_domains::{without_size_oracle, AInt, AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_synth::{ApproxKind, IndSets, QueryDef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    let mut bounded = AnosySession::<PowersetDomain>::new(layout(), MinSizePolicy::new(100));
    let mut open = AnosySession::<PowersetDomain>::new(layout(), AllowAll);
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
            let (post_true, post_false) = query.posterior(prior.domain());
            let kept = session.knowledge_of(secret);
            assert!(
                kept == Knowledge::from_domain(post_true)
                    || kept == Knowledge::from_domain(post_false)
            );
        }
    }
    assert!(bounded.knowledge_of(&secrets[0]).size() > 100);
}

#[test]
fn a_meet_with_exclusions_on_both_sides_allocates_its_two_lists_and_one_stack() {
    let prior = PowersetDomain::new(
        2,
        vec![member((0, 200), (0, 200)), member((150, 300), (150, 300))],
        vec![member((100, 160), (100, 160))],
    );
    let ind = south();
    let (meet, count) = allocations(|| prior.intersect(ind.indsets().truthy()));
    assert!(meet.size() > 0);
    assert!(count <= 3, "{count} allocations");
}
