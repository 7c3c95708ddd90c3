//! Maximal-box search: grow an all-models box around a seed point.
//!
//! This is the workhorse of under-approximation synthesis (§5.3 of the paper). The paper asks Z3
//! to *maximize* every interval width simultaneously under a Pareto combination so that "no
//! single optimization objective dominates the solution" (preferring a 20×20 square over a 400×1
//! sliver). We reproduce that behaviour with the [`ExpansionStrategy::Pareto`] strategy: the box
//! is first inflated **uniformly** in every direction (binary search on the inflation radius), so
//! widths stay balanced, and then each face is pushed individually until the box is
//! inclusion-maximal — no face can be extended further without including a non-model.
//!
//! Both searches are exponential probing followed by binary search, and both are
//! counterexample-guided. A face probe searches only the part of its slab beyond the largest step
//! already known to be model-free, never the prefix again. A probe that fails finds a non-model,
//! and that point's distance from the face (for uniform inflation, its Chebyshev distance from
//! the box) becomes the infeasible bound of the binary search, often well below the probe. The
//! feasible steps of a face form a prefix, so the search answers the same whatever probes it
//! takes. The test-only `maximal/reference.rs` probes whole slabs and keeps only feasibility; a
//! differential proptest checks that both searches grow the same box.

use crate::sat;
use crate::solver::SearchCtx;
use crate::SolverError;
use anosy_logic::{IntBox, Point, PredId, Range};

#[cfg(test)]
mod reference;

/// How [`crate::Solver::maximal_true_box`] grows the box around the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExpansionStrategy {
    /// Uniform inflation (largest feasible radius found by binary search) followed by a per-face
    /// fill sweep. Produces balanced boxes, mirroring the Pareto objectives the paper hands to
    /// Z3. This is the default.
    #[default]
    Pareto,
    /// Each face is grown to its maximum in a fixed order. Cheaper but tends to produce slivers;
    /// kept as an ablation baseline (see DESIGN.md §5).
    Greedy,
}

/// One face of the box: dimension index plus which bound we are pushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Face {
    Upper(usize),
    Lower(usize),
}

/// Grows an inclusion-maximal all-models box around `seed`.
pub(crate) fn maximal_true_box(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    space: &IntBox,
    seed: &Point,
    strategy: ExpansionStrategy,
) -> Result<Option<IntBox>, SolverError> {
    if !space.contains_point(seed) || !ctx.store.eval_pred(pred, seed).unwrap_or(false) {
        return Ok(None);
    }
    // Memoized in the store: growing many boxes for the same query negates the query once.
    let negated = ctx.store.negate_simplified(pred);
    let mut current: IntBox = seed.iter().map(Range::singleton).collect();

    if strategy == ExpansionStrategy::Pareto {
        current = inflate_uniformly(ctx, negated, space, &current)?;
    }
    // Per-face fill: repeat sweeps until no face can grow any further. A single sweep suffices
    // for Greedy semantics, but repeating is what certifies inclusion-maximality for both
    // strategies (a later face's growth can re-enable an earlier face only if it shrank, which
    // never happens, so this loop runs at most a handful of times).
    loop {
        let mut grew = false;
        for face in faces(space.arity()) {
            ctx.tick()?;
            let limit = face_limit(face, space);
            let max_step = available(face, &current, limit);
            if max_step == 0 {
                continue;
            }
            let step = largest_feasible_step(ctx, negated, &current, face, max_step)?;
            if step > 0 {
                current = extend(&current, face, step);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    Ok(Some(current))
}

/// The faces of a box of `arity` dimensions, upper then lower per dimension.
fn faces(arity: usize) -> impl Iterator<Item = Face> {
    (0..arity).flat_map(|d| [Face::Upper(d), Face::Lower(d)])
}

/// Binary-searches the largest uniform inflation radius `r` such that the box obtained by moving
/// every face outward by `min(r, distance to the space boundary)` contains only models.
///
/// A radius `r` is feasible exactly when no non-model lies within Chebyshev distance `r` of
/// `current` (a point of the space at that distance lies in every box inflated by `r` or more).
/// So a failed probe's non-model bounds the search: every radius from its distance up fails too.
fn inflate_uniformly(
    ctx: &mut SearchCtx<'_>,
    negated: PredId,
    space: &IntBox,
    current: &IntBox,
) -> Result<IntBox, SolverError> {
    let max_radius = faces(space.arity())
        .map(|f| available(f, current, face_limit(f, space)))
        .max()
        .unwrap_or(0);
    if max_radius == 0 {
        return Ok(current.clone());
    }
    let inflated = |r: u128| -> IntBox {
        let mut b = current.clone();
        for face in faces(space.arity()) {
            let step = r.min(available(face, &b, face_limit(face, space)));
            if step > 0 {
                b = extend(&b, face, step);
            }
        }
        b
    };
    // The radius of a non-model in the box inflated by `r`, if there is one.
    let counterexample = |ctx: &mut SearchCtx<'_>, r: u128| -> Result<Option<u128>, SolverError> {
        let found = sat::find_model(ctx, negated, &inflated(r))?;
        Ok(found.map(|p| chebyshev_distance(current, &p)))
    };
    // Exponential probe for the first infeasible radius, then binary search.
    let mut lo: u128 = 0;
    let mut probe: u128 = 1;
    let mut hi = loop {
        let r = probe.min(max_radius);
        match counterexample(ctx, r)? {
            None => {
                lo = r;
                if r == max_radius {
                    return Ok(inflated(lo));
                }
                probe = probe.saturating_mul(2);
            }
            Some(distance) => break distance,
        }
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match counterexample(ctx, mid)? {
            None => lo = mid,
            Some(distance) => hi = distance,
        }
    }
    Ok(inflated(lo))
}

/// How far `p` lies outside `current`: the largest per-dimension distance (0 inside the box).
fn chebyshev_distance(current: &IntBox, p: &Point) -> u128 {
    current
        .dims()
        .iter()
        .zip(p.iter())
        .map(|(r, v)| {
            let (v, lo, hi) = (v as i128, r.lo() as i128, r.hi() as i128);
            (lo - v).max(v - hi).max(0) as u128
        })
        .max()
        .unwrap_or(0)
}

/// The coordinate limit of a face inside the global space.
fn face_limit(face: Face, space: &IntBox) -> i64 {
    match face {
        Face::Upper(d) => space.dim(d).hi(),
        Face::Lower(d) => space.dim(d).lo(),
    }
}

/// How far a face can still travel before hitting the space boundary.
fn available(face: Face, current: &IntBox, limit: i64) -> u128 {
    match face {
        Face::Upper(d) => (limit as i128 - current.dim(d).hi() as i128).max(0) as u128,
        Face::Lower(d) => (current.dim(d).lo() as i128 - limit as i128).max(0) as u128,
    }
}

/// Extends a face outward by `step` units.
fn extend(current: &IntBox, face: Face, step: u128) -> IntBox {
    let step = step as i64;
    match face {
        Face::Upper(d) => {
            let r = current.dim(d);
            current.with_dim(d, Range::new(r.lo(), r.hi() + step))
        }
        Face::Lower(d) => {
            let r = current.dim(d);
            current.with_dim(d, Range::new(r.lo() - step, r.hi()))
        }
    }
}

/// The points gained by extending a face by more than `from` and at most `to` units: the slab
/// between the two extended positions of the face (`from < to`).
fn slab(current: &IntBox, face: Face, from: u128, to: u128) -> IntBox {
    let (from, to) = (from as i64, to as i64);
    match face {
        Face::Upper(d) => {
            let r = current.dim(d);
            current.with_dim(d, Range::new(r.hi() + from + 1, r.hi() + to))
        }
        Face::Lower(d) => {
            let r = current.dim(d);
            current.with_dim(d, Range::new(r.lo() - to, r.lo() - from - 1))
        }
    }
}

/// How far beyond `face` of `current` the point `p` lies, along the face's dimension.
fn face_distance(current: &IntBox, face: Face, p: &Point) -> u128 {
    match face {
        Face::Upper(d) => (p[d] as i128 - current.dim(d).hi() as i128) as u128,
        Face::Lower(d) => (current.dim(d).lo() as i128 - p[d] as i128) as u128,
    }
}

/// Largest `s <= max_step` such that every point of the slab gained by moving `face` out by `s`
/// satisfies the query (i.e. the negated query has no model there). Uses exponential probing
/// followed by binary search, so it needs `O(log max_step)` searches.
///
/// Each probe searches only the part of its slab beyond the largest step known to be feasible,
/// since the part up to there is known to be model-free. A probe that finds a non-model sets the
/// infeasible bound to that point's distance from the face, which may be well below the probe.
fn largest_feasible_step(
    ctx: &mut SearchCtx<'_>,
    negated: PredId,
    current: &IntBox,
    face: Face,
    max_step: u128,
) -> Result<u128, SolverError> {
    if max_step == 0 {
        return Ok(0);
    }
    // The distance of a non-model lying more than `from` and at most `to` beyond the face.
    let counterexample =
        |ctx: &mut SearchCtx<'_>, from: u128, to: u128| -> Result<Option<u128>, SolverError> {
            let found = sat::find_model(ctx, negated, &slab(current, face, from, to))?;
            Ok(found.map(|p| face_distance(current, face, &p)))
        };
    let mut lo: u128 = 0; // largest known-feasible step
    let mut probe: u128 = 1;
    let mut hi = loop {
        let s = probe.min(max_step);
        match counterexample(ctx, lo, s)? {
            None => {
                lo = s;
                if s == max_step {
                    return Ok(lo);
                }
                probe = probe.saturating_mul(2);
            }
            Some(distance) => break distance,
        }
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match counterexample(ctx, lo, mid)? {
            None => lo = mid,
            Some(distance) => hi = distance,
        }
    }
    Ok(lo)
}

/// Checks that no face of `candidate` can be extended inside `space` while keeping all points
/// models of `pred`.
pub(crate) fn is_inclusion_maximal(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    space: &IntBox,
    candidate: &IntBox,
) -> Result<bool, SolverError> {
    let negated = ctx.store.negate_simplified(pred);
    for face in faces(space.arity()) {
        let limit = face_limit(face, space);
        if available(face, candidate, limit) == 0 {
            continue;
        }
        let slab = slab(candidate, face, 0, 1);
        if sat::find_model(ctx, negated, &slab)?.is_none() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Solver, SolverConfig};
    use anosy_logic::{IntExpr, Pred, SecretLayout};
    use proptest::prelude::*;

    fn solver() -> Solver {
        Solver::with_config(SolverConfig::for_tests())
    }

    fn loc_space() -> IntBox {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build().space()
    }

    fn nearby(xo: i64, yo: i64) -> Pred {
        ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100)
    }

    fn assert_all_models(pred: &Pred, boxed: &IntBox) {
        let mut s = solver();
        assert!(s.is_valid(pred, boxed).unwrap(), "box {boxed} contains a non-model of {pred}");
    }

    #[test]
    fn seed_must_be_a_model_inside_the_space() {
        let mut s = solver();
        let q = nearby(200, 200);
        assert!(s
            .maximal_true_box(&q, &loc_space(), &Point::new(vec![0, 0]), ExpansionStrategy::Pareto)
            .unwrap()
            .is_none());
        assert!(s
            .maximal_true_box(
                &q,
                &loc_space(),
                &Point::new(vec![999, 999]),
                ExpansionStrategy::Pareto
            )
            .unwrap()
            .is_none());
    }

    #[test]
    fn pareto_recovers_the_inscribed_square_of_the_diamond() {
        let mut s = solver();
        let q = nearby(200, 200);
        let b = s
            .maximal_true_box(
                &q,
                &loc_space(),
                &Point::new(vec![200, 200]),
                ExpansionStrategy::Pareto,
            )
            .unwrap()
            .unwrap();
        assert_all_models(&q, &b);
        // The balanced inscribed box of a radius-100 L1 ball is the 101×101 square.
        assert_eq!(b.dim(0), Range::new(150, 250));
        assert_eq!(b.dim(1), Range::new(150, 250));
        assert_eq!(b.count(), 101 * 101);
    }

    #[test]
    fn result_is_inclusion_maximal_for_both_strategies() {
        let mut s = solver();
        let q = nearby(200, 200);
        for strategy in [ExpansionStrategy::Pareto, ExpansionStrategy::Greedy] {
            let b = s
                .maximal_true_box(&q, &loc_space(), &Point::new(vec![200, 200]), strategy)
                .unwrap()
                .unwrap();
            assert_all_models(&q, &b);
            assert!(
                s.is_inclusion_maximal(&q, &loc_space(), &b).unwrap(),
                "{strategy:?} result {b} is extendable"
            );
        }
    }

    #[test]
    fn off_center_seeds_still_produce_maximal_boxes() {
        let mut s = solver();
        let q = nearby(200, 200);
        for seed in [[150, 180], [299, 200], [200, 101]] {
            let seed = Point::new(seed.to_vec());
            let b = s
                .maximal_true_box(&q, &loc_space(), &seed, ExpansionStrategy::Pareto)
                .unwrap()
                .unwrap();
            assert!(b.contains_point(&seed));
            assert_all_models(&q, &b);
            assert!(s.is_inclusion_maximal(&q, &loc_space(), &b).unwrap());
        }
    }

    #[test]
    fn greedy_differs_from_pareto_on_the_diamond() {
        // The ablation the paper motivates: greedy expansion produces a sliver along the first
        // dimension, the Pareto-style strategy keeps the box square.
        let mut s = solver();
        let q = nearby(200, 200);
        let seed = Point::new(vec![200, 200]);
        let pareto = s
            .maximal_true_box(&q, &loc_space(), &seed, ExpansionStrategy::Pareto)
            .unwrap()
            .unwrap();
        let greedy = s
            .maximal_true_box(&q, &loc_space(), &seed, ExpansionStrategy::Greedy)
            .unwrap()
            .unwrap();
        assert_all_models(&q, &greedy);
        assert!(pareto.count() > greedy.count(), "pareto {pareto} should beat greedy {greedy}");
    }

    #[test]
    fn box_predicates_are_recovered_exactly() {
        // If the query itself is a box, the maximal box is that box.
        let mut s = solver();
        let q = Pred::and(vec![IntExpr::var(0).between(50, 80), IntExpr::var(1).between(10, 350)]);
        let b = s
            .maximal_true_box(
                &q,
                &loc_space(),
                &Point::new(vec![60, 100]),
                ExpansionStrategy::Pareto,
            )
            .unwrap()
            .unwrap();
        assert_eq!(b.dim(0), Range::new(50, 80));
        assert_eq!(b.dim(1), Range::new(10, 350));
    }

    #[test]
    fn whole_space_queries_grow_to_the_whole_space() {
        let mut s = solver();
        for strategy in [ExpansionStrategy::Pareto, ExpansionStrategy::Greedy] {
            let b = s
                .maximal_true_box(&Pred::True, &loc_space(), &Point::new(vec![13, 17]), strategy)
                .unwrap()
                .unwrap();
            assert_eq!(b, loc_space());
        }
    }

    #[test]
    fn singleton_regions_stay_singletons() {
        let mut s = solver();
        let q = IntExpr::var(0).eq(7).and_also(IntExpr::var(1).eq(9));
        let b = s
            .maximal_true_box(&q, &loc_space(), &Point::new(vec![7, 9]), ExpansionStrategy::Pareto)
            .unwrap()
            .unwrap();
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn inclusion_maximality_checker_agrees() {
        let q = nearby(200, 200);
        let mut s = solver();
        let maximal = IntBox::new(vec![Range::new(150, 250), Range::new(150, 250)]);
        assert!(s.is_inclusion_maximal(&q, &loc_space(), &maximal).unwrap());
        let shrunk = IntBox::new(vec![Range::new(160, 240), Range::new(160, 240)]);
        assert!(!s.is_inclusion_maximal(&q, &loc_space(), &shrunk).unwrap());
        // A box containing non-models is not a valid under-approximation at all.
        let too_big = IntBox::new(vec![Range::new(0, 400), Range::new(0, 400)]);
        assert!(!s.is_inclusion_maximal(&q, &loc_space(), &too_big).unwrap());
    }

    #[test]
    fn default_strategy_is_pareto() {
        assert_eq!(ExpansionStrategy::default(), ExpansionStrategy::Pareto);
    }

    /// A random query over a small grid: a diamond (possibly clipped by the grid), a union of
    /// boxes, or either refined by excluding boxes, as the powerset synthesis refines its
    /// targets.
    #[derive(Debug)]
    struct Case {
        space: IntBox,
        pred: Pred,
        seed: Point,
        strategy: ExpansionStrategy,
    }

    fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
        lo + rng.below((hi - lo + 1) as u64) as i64
    }

    fn random_box(rng: &mut TestRng, space: &IntBox) -> Pred {
        Pred::and(
            space
                .dims()
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let (a, b) = (pick(rng, r.lo(), r.hi()), pick(rng, r.lo(), r.hi()));
                    IntExpr::var(i).between(a.min(b), a.max(b))
                })
                .collect(),
        )
    }

    fn random_case(rng: &mut TestRng) -> Case {
        let arity = if rng.below(4) == 0 { 3 } else { 2 };
        let side = if arity == 2 { pick(rng, 40, 160) } else { pick(rng, 12, 30) };
        let space = IntBox::new(vec![Range::new(0, side); arity]);
        let base = match rng.below(2) {
            0 => {
                let distance = (0..arity)
                    .map(|i| (IntExpr::var(i) - pick(rng, -side / 4, side + side / 4)).abs())
                    .reduce(|a, b| a + b)
                    .expect("arity is positive");
                distance.le(pick(rng, 0, side))
            }
            _ => Pred::or((0..pick(rng, 1, 4)).map(|_| random_box(rng, &space)).collect()),
        };
        let pred = match rng.below(3) {
            0 => base,
            _ => {
                let holes = (0..pick(rng, 1, 3)).map(|_| random_box(rng, &space).negate());
                Pred::and(std::iter::once(base).chain(holes).collect())
            }
        };
        // Mostly seeds that are models (random points first, then the solver's model), now and
        // then a random point that need not be one.
        let mut seed: Point = space.dims().iter().map(|r| pick(rng, r.lo(), r.hi())).collect();
        for _ in 0..8 {
            if pred.eval(&seed).unwrap() || rng.below(10) == 0 {
                break;
            }
            seed = space.dims().iter().map(|r| pick(rng, r.lo(), r.hi())).collect();
        }
        if !pred.eval(&seed).unwrap() && rng.below(4) != 0 {
            if let Some(model) = solver().find_model(&pred, &space).unwrap() {
                seed = model;
            }
        }
        let strategy =
            if rng.below(2) == 0 { ExpansionStrategy::Pareto } else { ExpansionStrategy::Greedy };
        Case { space, pred, seed, strategy }
    }

    /// The box the verbatim exponential-then-binary search grows.
    fn reference_box(case: &Case) -> Option<IntBox> {
        let mut s = solver();
        let id = s.store_mut().intern_pred(&case.pred);
        s.run_id(id, &case.space, |ctx, p, space| {
            reference::maximal_true_box(ctx, p, space, &case.seed, case.strategy)
        })
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counterexample_guided_search_grows_the_reference_box(
            case in proptest::strategy::from_fn(random_case),
        ) {
            let mut s = solver();
            let grown =
                s.maximal_true_box(&case.pred, &case.space, &case.seed, case.strategy).unwrap();
            prop_assert_eq!(&grown, &reference_box(&case), "{:?}", case);
            if let Some(boxed) = grown {
                prop_assert!(s.is_inclusion_maximal(&case.pred, &case.space, &boxed).unwrap());
            }
        }
    }
}
