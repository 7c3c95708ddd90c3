//! The maximal-box search as it was before its probes became counterexample-guided, kept
//! verbatim as the differential reference of the search in the parent module.
//!
//! Every probe of this version searches the whole slab (or the whole inflated box) and keeps
//! only whether it found a non-model. The differential proptests in the parent module check that
//! the counterexample-guided search returns the same box as this one on every input: a monotone
//! search has one answer whatever probes it takes.

use super::{available, extend, face_limit, ExpansionStrategy, Face};
use crate::sat;
use crate::solver::SearchCtx;
use crate::SolverError;
use anosy_logic::{IntBox, Point, PredId, Range};

/// Grows an inclusion-maximal all-models box around `seed`.
pub(super) fn maximal_true_box(
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
    let mut current = IntBox::new(seed.iter().map(Range::singleton).collect());

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

fn faces(arity: usize) -> Vec<Face> {
    (0..arity).flat_map(|d| [Face::Upper(d), Face::Lower(d)]).collect()
}

/// Binary-searches the largest uniform inflation radius `r` such that the box obtained by moving
/// every face outward by `min(r, distance to the space boundary)` contains only models.
fn inflate_uniformly(
    ctx: &mut SearchCtx<'_>,
    negated: PredId,
    space: &IntBox,
    current: &IntBox,
) -> Result<IntBox, SolverError> {
    let max_radius = faces(space.arity())
        .into_iter()
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
    let feasible = |ctx: &mut SearchCtx<'_>, r: u128| -> Result<bool, SolverError> {
        Ok(sat::find_model(ctx, negated, &inflated(r))?.is_none())
    };
    // Exponential probe for the first infeasible radius, then binary search.
    let mut lo: u128 = 0;
    let mut probe: u128 = 1;
    let hi = loop {
        let r = probe.min(max_radius);
        if feasible(ctx, r)? {
            lo = r;
            if r == max_radius {
                return Ok(inflated(lo));
            }
            probe = probe.saturating_mul(2);
        } else {
            break r;
        }
    };
    let mut hi = hi;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(ctx, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(inflated(lo))
}

/// The slab of new points gained by extending a face by `step`.
fn slab(current: &IntBox, face: Face, step: u128) -> IntBox {
    let step = step as i64;
    match face {
        Face::Upper(d) => {
            let r = current.dim(d);
            current.with_dim(d, Range::new(r.hi() + 1, r.hi() + step))
        }
        Face::Lower(d) => {
            let r = current.dim(d);
            current.with_dim(d, Range::new(r.lo() - step, r.lo() - 1))
        }
    }
}

/// Largest `s <= max_step` such that every point of the slab gained by moving `face` out by `s`
/// satisfies the query (i.e. the negated query has no model there). Uses exponential probing
/// followed by binary search, so it needs `O(log max_step)` validity checks.
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
    let feasible = |ctx: &mut SearchCtx<'_>, s: u128| -> Result<bool, SolverError> {
        let slab = slab(current, face, s);
        // The slab is model-free for the *negated* query iff every point satisfies the query.
        Ok(sat::find_model(ctx, negated, &slab)?.is_none())
    };
    let mut lo: u128 = 0; // largest known-feasible step
    let mut probe: u128 = 1;
    let hi = loop {
        let s = probe.min(max_step);
        if feasible(ctx, s)? {
            lo = s;
            if s == max_step {
                return Ok(lo);
            }
            probe = probe.saturating_mul(2);
        } else {
            break s;
        }
    };
    let mut hi = hi;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(ctx, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}
