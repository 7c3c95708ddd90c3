//! Exact box algebra: subtraction and sizes of unions/differences of axis-aligned boxes.
//!
//! The powerset domain (§4.4) represents knowledge as `(∪ inclusion boxes) \ (∪ exclusion
//! boxes)`. Its `size` method — the quantity policies constrain — therefore needs the exact
//! cardinality of such a region even when the boxes overlap. Differences are decomposed into
//! disjoint boxes, which keeps everything exact in `u128`.
//!
//! The powerset domain does not call into this module on its hot path: it keeps its members
//! flat and counts each member's residual depth-first on a scratch stack, building no pieces.
//! [`subtract_boxes`] and [`region_size`] recompute the same size from [`IntBox`]es; they are
//! the oracle that debug builds and tests check the stored size against.

use anosy_logic::{IntBox, Range};

/// Subtracts box `b` from box `a`, returning disjoint boxes that exactly cover `a \ b`.
///
/// The result contains at most `2 * arity` boxes. Returns `[a]` unchanged when the boxes do not
/// overlap and an empty vector when `b` covers `a`.
pub fn subtract_box(a: &IntBox, b: &IntBox) -> Vec<IntBox> {
    if a.is_empty() {
        return Vec::new();
    }
    let mut pieces = Vec::new();
    if a.intersects(b) {
        peel_overlap(a.clone(), b, &mut pieces);
    } else {
        pieces.push(a.clone());
    }
    pieces
}

/// Appends to `out` the disjoint slabs covering `a \ b`, for boxes `a` and `b` that overlap.
///
/// Slabs of `a` outside `b` are peeled off one dimension at a time, low side before high side;
/// the core that remains shrinks to the overlap and is discarded. `a` is consumed as that core.
fn peel_overlap(mut core: IntBox, b: &IntBox, out: &mut Vec<IntBox>) {
    if b.contains_box(&core) {
        return;
    }
    for d in 0..core.arity() {
        let core_r = core.dim(d);
        let olap_r = core_r.intersect(b.dim(d));
        if core_r.lo() < olap_r.lo() {
            out.push(core.with_dim(d, Range::new(core_r.lo(), olap_r.lo() - 1)));
        }
        if core_r.hi() > olap_r.hi() {
            out.push(core.with_dim(d, Range::new(olap_r.hi() + 1, core_r.hi())));
        }
        core.set_dim(d, olap_r);
    }
}

/// Subtracts every box of `subtrahends` from `a`, in order, returning disjoint boxes covering
/// the difference exactly.
///
/// Each subtrahend splits only the pieces it overlaps; the others move on untouched, and a
/// subtrahend that overlaps no piece costs one overlap test per piece.
pub fn subtract_boxes<'a>(
    a: &IntBox,
    subtrahends: impl IntoIterator<Item = &'a IntBox>,
) -> Vec<IntBox> {
    if a.is_empty() {
        return Vec::new();
    }
    let mut pieces = vec![a.clone()];
    let mut next = Vec::new();
    for b in subtrahends {
        if b.is_empty() {
            continue;
        }
        let Some(first_hit) = pieces.iter().position(|p| p.intersects(b)) else { continue };
        for (i, piece) in pieces.drain(..).enumerate() {
            if i == first_hit || (i > first_hit && piece.intersects(b)) {
                peel_overlap(piece, b, &mut next);
            } else {
                next.push(piece);
            }
        }
        std::mem::swap(&mut pieces, &mut next);
        if pieces.is_empty() {
            break;
        }
    }
    pieces
}

/// Exact number of points in `(∪ includes) \ (∪ excludes)`.
///
/// Overlap between the inclusion boxes is handled by counting each inclusion box minus the
/// inclusion boxes that precede it, so no point is counted twice.
pub fn region_size(includes: &[IntBox], excludes: &[IntBox]) -> u128 {
    let mut total: u128 = 0;
    for (i, inc) in includes.iter().enumerate() {
        if inc.is_empty() {
            continue;
        }
        let mut minus: Vec<IntBox> = Vec::with_capacity(i + excludes.len());
        minus.extend_from_slice(&includes[..i]);
        minus.extend_from_slice(excludes);
        for piece in subtract_boxes(inc, &minus) {
            total += piece.count();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::Point;

    fn boxed(dims: &[(i64, i64)]) -> IntBox {
        IntBox::new(dims.iter().map(|&(lo, hi)| Range::new(lo, hi)).collect())
    }

    /// The subtraction as first written — every subtrahend rebuilds every piece, cloning the
    /// ones it misses — kept as the reference the in-place version must match piece for piece.
    fn reference_subtract_box(a: &IntBox, b: &IntBox) -> Vec<IntBox> {
        if a.is_empty() {
            return Vec::new();
        }
        assert_eq!(a.arity(), b.arity(), "boxes must have equal arity");
        let overlap = a.intersect(b);
        if overlap.is_empty() {
            return vec![a.clone()];
        }
        if b.contains_box(a) {
            return Vec::new();
        }
        let mut pieces = Vec::new();
        let mut core = a.clone();
        for d in 0..a.arity() {
            let core_r = core.dim(d);
            let olap_r = overlap.dim(d);
            if core_r.lo() < olap_r.lo() {
                pieces.push(core.with_dim(d, Range::new(core_r.lo(), olap_r.lo() - 1)));
            }
            if core_r.hi() > olap_r.hi() {
                pieces.push(core.with_dim(d, Range::new(olap_r.hi() + 1, core_r.hi())));
            }
            core = core.with_dim(d, olap_r);
        }
        pieces
    }

    fn reference_subtract_boxes(a: &IntBox, subtrahends: &[IntBox]) -> Vec<IntBox> {
        let mut pieces = vec![a.clone()];
        for b in subtrahends {
            if b.is_empty() {
                continue;
            }
            let mut next = Vec::new();
            for piece in &pieces {
                next.extend(reference_subtract_box(piece, b));
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        pieces.retain(|p| !p.is_empty());
        pieces
    }

    /// A small deterministic generator (SplitMix64) for the reference comparison.
    struct Boxes(u64);

    impl Boxes {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A box inside `0..=side` per dimension; one in sixteen is empty.
        fn boxed(&mut self, arity: usize, side: i64) -> IntBox {
            let empty = self.next().is_multiple_of(16);
            IntBox::new(
                (0..arity)
                    .map(|d| {
                        let x = (self.next() % (side as u64 + 1)) as i64;
                        let y = (self.next() % (side as u64 + 1)) as i64;
                        if empty && d == 0 {
                            Range::empty()
                        } else {
                            Range::new(x.min(y), x.max(y))
                        }
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn subtract_boxes_matches_the_reference_piece_for_piece() {
        let mut gen = Boxes(0x5eed);
        for case in 0..600 {
            let arity = 1 + case % 3;
            let side = [12, 9, 6][arity - 1];
            let a = gen.boxed(arity, side);
            let count = (gen.next() % 7) as usize;
            let subs: Vec<IntBox> = (0..count).map(|_| gen.boxed(arity, side)).collect();

            let pieces = subtract_boxes(&a, &subs);
            assert_eq!(pieces, reference_subtract_boxes(&a, &subs), "a={a:?} subs={subs:?}");
            for b in &subs {
                assert_eq!(subtract_box(&a, b), reference_subtract_box(&a, b), "a={a:?} b={b:?}");
            }

            // Disjoint, inside `a`, outside every subtrahend, and exact in count.
            for (i, p) in pieces.iter().enumerate() {
                assert!(!p.is_empty() && a.contains_box(p), "{p} escapes {a}");
                assert!(subs.iter().all(|s| !p.intersects(s)), "{p} meets a subtrahend");
                assert!(pieces[i + 1..].iter().all(|q| !p.intersects(q)), "{p} overlaps");
            }
            let outside = if a.is_empty() {
                0
            } else {
                a.points().filter(|pt| !subs.iter().any(|s| s.contains_point(pt))).count()
            };
            assert_eq!(pieces.iter().map(IntBox::count).sum::<u128>(), outside as u128);
        }
    }

    fn brute_force_region(includes: &[IntBox], excludes: &[IntBox], universe: &IntBox) -> u128 {
        universe
            .points()
            .filter(|p| {
                includes.iter().any(|b| b.contains_point(p))
                    && !excludes.iter().any(|b| b.contains_point(p))
            })
            .count() as u128
    }

    #[test]
    fn subtraction_of_disjoint_boxes_is_identity() {
        let a = boxed(&[(0, 4), (0, 4)]);
        let b = boxed(&[(10, 12), (10, 12)]);
        assert_eq!(subtract_box(&a, &b), vec![a.clone()]);
    }

    #[test]
    fn subtraction_by_a_cover_is_empty() {
        let a = boxed(&[(2, 3), (2, 3)]);
        let b = boxed(&[(0, 10), (0, 10)]);
        assert!(subtract_box(&a, &b).is_empty());
    }

    #[test]
    fn subtraction_pieces_are_disjoint_and_exact() {
        let a = boxed(&[(0, 9), (0, 9)]);
        let b = boxed(&[(3, 6), (4, 12)]);
        let pieces = subtract_box(&a, &b);
        // Exact cardinality.
        let expected = a.count() - a.intersect(&b).count();
        assert_eq!(pieces.iter().map(IntBox::count).sum::<u128>(), expected);
        // Pairwise disjoint and within `a`, outside `b`.
        for (i, p) in pieces.iter().enumerate() {
            assert!(a.contains_box(p));
            assert!(p.intersect(&b).is_empty());
            for q in &pieces[i + 1..] {
                assert!(p.intersect(q).is_empty(), "{p} overlaps {q}");
            }
        }
    }

    #[test]
    fn subtract_boxes_handles_multiple_overlapping_subtrahends() {
        let a = boxed(&[(0, 9), (0, 9)]);
        let subs =
            vec![boxed(&[(0, 4), (0, 9)]), boxed(&[(3, 9), (0, 3)]), boxed(&[(8, 9), (8, 9)])];
        let pieces = subtract_boxes(&a, &subs);
        let universe = a.clone();
        let expected =
            universe.points().filter(|p| !subs.iter().any(|b| b.contains_point(p))).count() as u128;
        assert_eq!(pieces.iter().map(IntBox::count).sum::<u128>(), expected);
        for p in &pieces {
            for s in &subs {
                assert!(p.intersect(s).is_empty());
            }
        }
    }

    #[test]
    fn region_size_handles_overlapping_includes_and_excludes() {
        let universe = boxed(&[(0, 14), (0, 14)]);
        let cases: Vec<(Vec<IntBox>, Vec<IntBox>)> = vec![
            (vec![boxed(&[(0, 4), (0, 4)]), boxed(&[(2, 8), (2, 8)])], vec![]),
            (
                vec![boxed(&[(0, 9), (0, 9)]), boxed(&[(5, 14), (5, 14)])],
                vec![boxed(&[(4, 6), (4, 6)])],
            ),
            (
                vec![boxed(&[(0, 14), (0, 14)])],
                vec![boxed(&[(0, 7), (0, 14)]), boxed(&[(7, 14), (0, 7)])],
            ),
            (vec![], vec![boxed(&[(0, 1), (0, 1)])]),
        ];
        for (includes, excludes) in cases {
            assert_eq!(
                region_size(&includes, &excludes),
                brute_force_region(&includes, &excludes, &universe),
                "includes={includes:?} excludes={excludes:?}"
            );
        }
    }

    #[test]
    fn region_size_of_identical_includes_counts_once() {
        let b = boxed(&[(0, 9)]);
        assert_eq!(region_size(&[b.clone(), b.clone(), b.clone()], &[]), 10);
        let p = Point::new(vec![0]);
        assert!(b.contains_point(&p));
    }

    #[test]
    fn region_size_in_three_dimensions() {
        let includes = vec![boxed(&[(0, 4), (0, 4), (0, 4)]), boxed(&[(3, 6), (3, 6), (3, 6)])];
        let excludes = vec![boxed(&[(2, 3), (2, 3), (2, 3)])];
        let universe = boxed(&[(0, 6), (0, 6), (0, 6)]);
        assert_eq!(
            region_size(&includes, &excludes),
            brute_force_region(&includes, &excludes, &universe)
        );
    }
}
