//! The powerset-of-intervals abstract domain `A_P` (§4.4 of the paper).
//!
//! Every bounded downgrade computes two powerset meets per secret, one per possible answer,
//! before it answers, so the meet is the domain's hot path. It allocates only what the result
//! keeps:
//!
//! * **Flat members.** Each member list is one `Vec<AInt>` with stride `arity`: member `i` is
//!   `bounds[i * arity..(i + 1) * arity]`. A meet writes each pairwise member meet straight into
//!   the result's inclusion list and copies the two exclusion lists in with two slice copies.
//! * **In-place normalization.** Dead members are compacted away in place, keeping the live ones
//!   in order.
//! * **Stack count.** Each inclusion member's residual — the member minus the kept members
//!   before it and the exclusions — is counted depth-first on one scratch `Vec<AInt>` used as a
//!   stack of slabs. No piece vector and no [`IntBox`] is built.
//!
//! [`crate::region_size`] recomputes the size from [`IntBox`]es with [`crate::subtract_boxes`];
//! debug builds check every normalized size against it.

use crate::{region_size, AInt, AbstractDomain, IntervalDomain};
use anosy_logic::{IntBox, Point, Pred, SecretLayout};
use std::cell::Cell;
use std::fmt;

/// The powerset abstract domain: knowledge represented as `(∪ inclusion boxes) \ (∪ exclusion
/// boxes)`.
///
/// This mirrors the paper's `A_P` datatype, whose `dom_i`/`dom_o` fields hold the interval
/// domains that are included in and excluded from the powerset. The two-list representation is
/// what makes the iterative synthesis algorithm (Algorithm 1) simple: under-approximations grow
/// the inclusion list, over-approximations grow the exclusion list.
///
/// Unlike the paper's implementation, whose `⊆` check and `size` are conservative when members
/// overlap, this implementation is **exact**: overlaps are resolved with explicit box algebra, so
/// `size` never double-counts and `is_subset_of` decides the true set inclusion.
///
/// The exact size is computed once, while the element is normalized. Normalization already
/// counts each inclusion member's residual (the member minus the kept members before it and
/// the exclusions) to decide whether the member is dead. The residuals of the kept members are
/// disjoint and cover the region, so their counts sum to its size. The element carries that sum,
/// and `size` reads a field; [`crate::region_size`] recomputes it from scratch as the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowersetDomain {
    include: Members,
    exclude: Members,
    /// Exact `|(∪ include) \ (∪ exclude)|`, summed by `normalize`. It is a function of the two
    /// member lists, so the derived equality still compares representations only.
    size: u128,
}

/// One member list of a powerset, stored flat: member `i` is the box
/// `bounds[i * arity..(i + 1) * arity]`, one [`AInt`] per field. Stored members are never empty.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Members {
    arity: usize,
    /// The member count, kept apart from `bounds` so that zero-field members count too.
    len: usize,
    bounds: Vec<AInt>,
    /// The indices, ascending, of the members that are a layout's `⊤` element rather than a box
    /// with the same bounds: the codec and `Display` render the two differently. Meets never
    /// produce `⊤`, so on a meet's inclusion list this stays empty and unallocated.
    tops: Vec<usize>,
}

impl Members {
    fn with_capacity(arity: usize, members: usize) -> Self {
        Members { arity, len: 0, bounds: Vec::with_capacity(members * arity), tops: Vec::new() }
    }

    fn from_domains(arity: usize, members: &[IntervalDomain]) -> Self {
        let mut list = Members::with_capacity(arity, members.len());
        for member in members {
            list.push(member);
        }
        list
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn member(&self, i: usize) -> &[AInt] {
        &self.bounds[i * self.arity..(i + 1) * self.arity]
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[AInt]> + '_ {
        (0..self.len).map(|i| self.member(i))
    }

    /// Member `i` as an interval element, `⊤` marker included.
    fn domain(&self, i: usize) -> IntervalDomain {
        let dims = self.member(i).to_vec();
        if self.tops.binary_search(&i).is_ok() {
            IntervalDomain::top_of(dims)
        } else {
            IntervalDomain::from_intervals(dims)
        }
    }

    fn domains(&self) -> impl ExactSizeIterator<Item = IntervalDomain> + '_ {
        (0..self.len).map(|i| self.domain(i))
    }

    /// The members as solver boxes, for the [`region_size`] oracle.
    fn boxes(&self) -> Vec<IntBox> {
        self.iter().map(|m| IntBox::new(m.iter().map(AInt::to_range).collect())).collect()
    }

    /// Appends `member` unless it is empty; returns whether it did.
    ///
    /// # Panics
    ///
    /// Panics if the member has a different arity.
    fn push(&mut self, member: &IntervalDomain) -> bool {
        assert_eq!(member.arity(), self.arity, "powerset member arity mismatch");
        let Some(dims) = member.intervals() else { return false };
        if member.is_top_element() {
            self.tops.push(self.len);
        }
        self.bounds.extend_from_slice(dims);
        self.len += 1;
        true
    }

    /// Appends `a ∩ b` unless it is empty: the bounds go in one field at a time and are cut back
    /// off at the first field whose meet is empty.
    fn push_meet(&mut self, a: &[AInt], b: &[AInt]) {
        let start = self.bounds.len();
        for (x, y) in a.iter().zip(b) {
            match x.intersect(y) {
                Some(m) => self.bounds.push(m),
                None => {
                    self.bounds.truncate(start);
                    return;
                }
            }
        }
        self.len += 1;
    }

    /// Appends every member of `other`, `⊤` markers included.
    fn extend(&mut self, other: &Members) {
        self.bounds.extend_from_slice(&other.bounds);
        self.tops.extend(other.tops.iter().map(|&i| i + self.len));
        self.len += other.len;
    }

    /// Keeps, in order, the members `keep` accepts, compacting them to the front in place.
    ///
    /// `keep` sees the whole bound list, the index of the member it decides and how many members
    /// it has kept so far; those kept members already sit at indices `0..kept`.
    fn compact(&mut self, mut keep: impl FnMut(&[AInt], usize, usize) -> bool) {
        let arity = self.arity;
        let (mut kept, mut tops_seen, mut tops_kept) = (0, 0, 0);
        for i in 0..self.len {
            let is_top = self.tops.get(tops_seen) == Some(&i);
            tops_seen += usize::from(is_top);
            if !keep(&self.bounds, i, kept) {
                continue;
            }
            if kept != i {
                self.bounds.copy_within(i * arity..(i + 1) * arity, kept * arity);
            }
            if is_top {
                self.tops[tops_kept] = kept;
                tops_kept += 1;
            }
            kept += 1;
        }
        self.bounds.truncate(kept * arity);
        self.tops.truncate(tops_kept);
        self.len = kept;
    }
}

/// Whether two boxes, given as per-field bounds, share a point.
fn meets(a: &[AInt], b: &[AInt]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.lower() <= y.upper() && y.lower() <= x.upper())
}

fn volume(a: &[AInt]) -> u128 {
    a.iter().map(AInt::size).product()
}

/// Exact number of points of `member` outside the `n` boxes `subtrahend(0)`, …,
/// `subtrahend(n - 1)`, counted depth-first on `stack` (empty on entry and on return).
///
/// Each stack frame is a box's `arity` bounds followed by `AInt::singleton(k)`: the box is
/// outside subtrahends `0..k` and has yet to be tested against the rest. The top frame is tested
/// against subtrahends `k`, `k + 1`, … until one meets it. If none does, its points are counted
/// and it is popped. Otherwise the slabs of it outside that subtrahend replace it, each tagged
/// with the next subtrahend: they are peeled one field at a time, low side before high side, as
/// [`crate::subtract_box`] does, while the rest of the box shrinks to the overlap, which counts
/// nothing. The slabs are disjoint, so every point of `member` outside all subtrahends is counted
/// exactly once.
fn residual_count<'a>(
    member: &[AInt],
    n: usize,
    subtrahend: impl Fn(usize) -> &'a [AInt],
    stack: &mut Vec<AInt>,
) -> u128 {
    // The subtrahends before the first one that meets `member` meet none of its slabs either.
    let Some(first) = (0..n).find(|&k| meets(member, subtrahend(k))) else {
        return volume(member);
    };
    let arity = member.len();
    let frame = arity + 1;
    // Room for a member peeled by a few subtrahends in turn, so that a count rarely regrows it.
    stack.reserve(frame * 8 * (arity + 1));
    stack.extend_from_slice(member);
    stack.push(AInt::singleton(first as i64));
    let mut count = 0;
    while !stack.is_empty() {
        let top = stack.len() - frame;
        let next = stack[top + arity].lower() as usize;
        let Some(k) = (next..n).find(|&k| meets(&stack[top..top + arity], subtrahend(k))) else {
            count += volume(&stack[top..top + arity]);
            stack.truncate(top);
            continue;
        };
        let cut = subtrahend(k);
        let tag = AInt::singleton(k as i64 + 1);
        for d in 0..arity {
            let core = stack[top + d];
            let overlap = core.intersect(&cut[d]).expect("the subtrahend meets the box");
            if core.lower() < overlap.lower() {
                stack.extend_from_within(top..top + arity);
                let at = stack.len() - arity + d;
                stack[at] = AInt::new(core.lower(), overlap.lower() - 1);
                stack.push(tag);
            }
            if core.upper() > overlap.upper() {
                stack.extend_from_within(top..top + arity);
                let at = stack.len() - arity + d;
                stack[at] = AInt::new(overlap.upper() + 1, core.upper());
                stack.push(tag);
            }
            stack[top + d] = overlap;
        }
        // The box has shrunk to its overlap with `cut`: the last slab takes its frame.
        let end = stack.len();
        if end > top + frame {
            stack.copy_within(end - frame..end, top);
            stack.truncate(end - frame);
        } else {
            stack.truncate(top);
        }
    }
    count
}

impl PowersetDomain {
    /// Creates a powerset from inclusion and exclusion members.
    ///
    /// Empty members are dropped; the arity must be consistent across all members.
    ///
    /// # Panics
    ///
    /// Panics if a member has a different arity.
    pub fn new(arity: usize, include: Vec<IntervalDomain>, exclude: Vec<IntervalDomain>) -> Self {
        let mut p = PowersetDomain {
            include: Members::from_domains(arity, &include),
            exclude: Members::from_domains(arity, &exclude),
            size: 0,
        };
        p.normalize();
        p
    }

    /// A powerset with a single inclusion member and no exclusions.
    pub fn from_interval(member: IntervalDomain) -> Self {
        let arity = member.arity();
        PowersetDomain::new(arity, vec![member], vec![])
    }

    /// Number of secret fields.
    pub fn arity(&self) -> usize {
        self.include.arity
    }

    /// The inclusion members (`dom_i`), rebuilt as interval elements.
    pub fn includes(&self) -> impl ExactSizeIterator<Item = IntervalDomain> + '_ {
        self.include.domains()
    }

    /// The exclusion members (`dom_o`), rebuilt as interval elements.
    pub fn excludes(&self) -> impl ExactSizeIterator<Item = IntervalDomain> + '_ {
        self.exclude.domains()
    }

    /// Adds an inclusion member (used by iterative under-approximation synthesis).
    pub fn push_include(&mut self, member: IntervalDomain) {
        if self.include.push(&member) {
            self.normalize();
        }
    }

    /// Adds an exclusion member (used by iterative over-approximation synthesis).
    pub fn push_exclude(&mut self, member: IntervalDomain) {
        if self.exclude.push(&member) {
            self.normalize();
        }
    }

    /// Drops members that contribute nothing: inclusion boxes whose residual size (after earlier
    /// members and the exclusions) is zero, and exclusion boxes that do not intersect any
    /// inclusion box. Keeps repeated intersections (e.g. across the 50 queries of the Fig. 6
    /// workload) from accumulating dead members.
    ///
    /// The residuals of the kept members partition the region, so their counts sum to its exact
    /// size, which is stored. Dropping an exclusion that meets no kept member changes neither
    /// the region nor that sum.
    fn normalize(&mut self) {
        let arity = self.include.arity;
        let exclude = &self.exclude;
        let mut stack = Vec::new();
        let mut size: u128 = 0;
        self.include.compact(|bounds, i, kept| {
            let member = &bounds[i * arity..(i + 1) * arity];
            let subtrahend = |k: usize| {
                if k < kept {
                    &bounds[k * arity..(k + 1) * arity]
                } else {
                    exclude.member(k - kept)
                }
            };
            let residual = residual_count(member, kept + exclude.len(), subtrahend, &mut stack);
            size += residual;
            residual > 0
        });
        let include = &self.include;
        self.exclude.compact(|bounds, i, _| {
            include.iter().any(|m| meets(m, &bounds[i * arity..(i + 1) * arity]))
        });
        self.size = size;
        debug_assert!(
            SIZE_ORACLE_SUSPENDED.with(Cell::get)
                || size == region_size(&self.include.boxes(), &self.exclude.boxes()),
            "stored size {size} is not the region's"
        );
    }
}

thread_local! {
    /// Set while [`without_size_oracle`] runs `f` on this thread.
    static SIZE_ORACLE_SUSPENDED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` without the debug-build check of every normalized size against [`region_size`] on
/// this thread. The check rebuilds every member as an [`IntBox`], so it would swamp a count of
/// the kernel's own allocations.
pub fn without_size_oracle<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SIZE_ORACLE_SUSPENDED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SIZE_ORACLE_SUSPENDED.with(|s| s.replace(true)));
    f()
}

impl AbstractDomain for PowersetDomain {
    fn top(layout: &SecretLayout) -> Self {
        PowersetDomain::from_interval(IntervalDomain::top(layout))
    }

    fn bottom(layout: &SecretLayout) -> Self {
        PowersetDomain::new(layout.arity(), vec![], vec![])
    }

    fn contains(&self, point: &Point) -> bool {
        let inside = |m: &[AInt]| m.iter().zip(point.iter()).all(|(a, v)| a.contains(v));
        point.arity() == self.arity()
            && self.include.iter().any(inside)
            && !self.exclude.iter().any(inside)
    }

    fn is_subset_of(&self, other: &Self) -> bool {
        // Exact inclusion: |self| == |self ∩ other| (both sizes are exact).
        let meet = self.intersect(other);
        self.size() == meet.size()
    }

    fn intersect(&self, other: &Self) -> Self {
        let arity = self.arity();
        assert_eq!(arity, other.arity(), "intersected powersets must have equal arity");
        let mut include = Members::with_capacity(arity, self.include.len() * other.include.len());
        for a in self.include.iter() {
            for b in other.include.iter() {
                include.push_meet(a, b);
            }
        }
        let mut exclude = Members::with_capacity(arity, self.exclude.len() + other.exclude.len());
        exclude.extend(&self.exclude);
        exclude.extend(&other.exclude);
        let mut meet = PowersetDomain { include, exclude, size: 0 };
        meet.normalize();
        meet
    }

    fn size(&self) -> u128 {
        self.size
    }

    fn to_pred(&self) -> Pred {
        if self.include.is_empty() {
            return Pred::False;
        }
        let inside = Pred::or(self.includes().map(|d| d.to_pred()).collect());
        if self.exclude.is_empty() {
            inside
        } else {
            let outside = Pred::or(self.excludes().map(|d| d.to_pred()).collect());
            inside.and_also(outside.negate())
        }
    }

    fn bounding_box(&self) -> Option<IntBox> {
        let mut members = self.include.iter();
        let mut hull = members.next()?.to_vec();
        for m in members {
            for (h, a) in hull.iter_mut().zip(m) {
                *h = h.hull(a);
            }
        }
        Some(IntBox::new(hull.iter().map(AInt::to_range).collect()))
    }

    fn from_box(boxed: &IntBox) -> Self {
        let member = IntervalDomain::from_box(boxed);
        if member.is_empty() {
            PowersetDomain::new(boxed.arity(), vec![], vec![])
        } else {
            PowersetDomain::from_interval(member)
        }
    }
}

impl fmt::Display for PowersetDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.include.is_empty() {
            return write!(f, "⊥P");
        }
        write!(f, "⋃{{")?;
        for (i, d) in self.includes().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")?;
        if !self.exclude.is_empty() {
            write!(f, " \\ ⋃{{")?;
            for (i, d) in self.excludes().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{d}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AInt;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 20).field("y", 0, 20).build()
    }

    fn interval(x: (i64, i64), y: (i64, i64)) -> IntervalDomain {
        IntervalDomain::from_intervals(vec![AInt::new(x.0, x.1), AInt::new(y.0, y.1)])
    }

    fn brute_size(d: &PowersetDomain, layout: &SecretLayout) -> u128 {
        layout.space().points().filter(|p| d.contains(p)).count() as u128
    }

    #[test]
    fn top_and_bottom() {
        let l = layout();
        let top = PowersetDomain::top(&l);
        let bot = PowersetDomain::bottom(&l);
        assert_eq!(top.size(), 441);
        assert_eq!(bot.size(), 0);
        assert!(bot.is_subset_of(&top));
        assert!(bot.is_empty());
        assert!(top.contains(&Point::new(vec![0, 0])));
        assert!(!bot.contains(&Point::new(vec![0, 0])));
    }

    #[test]
    fn size_is_exact_despite_overlaps() {
        let l = layout();
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10)), interval((5, 15), (5, 15))],
            vec![interval((8, 12), (8, 12))],
        );
        assert_eq!(d.size(), brute_size(&d, &l));
    }

    #[test]
    fn membership_follows_include_minus_exclude() {
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10))],
            vec![interval((3, 5), (3, 5))],
        );
        assert!(d.contains(&Point::new(vec![0, 0])));
        assert!(!d.contains(&Point::new(vec![4, 4])));
        assert!(!d.contains(&Point::new(vec![11, 0])));
        assert!(!d.contains(&Point::new(vec![4]))); // wrong arity
    }

    #[test]
    fn intersection_is_the_exact_meet() {
        let l = layout();
        let a = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10)), interval((12, 20), (12, 20))],
            vec![interval((4, 6), (4, 6))],
        );
        let b = PowersetDomain::new(
            2,
            vec![interval((5, 14), (5, 14))],
            vec![interval((13, 20), (0, 20))],
        );
        let meet = a.intersect(&b);
        for p in l.space().points() {
            assert_eq!(meet.contains(&p), a.contains(&p) && b.contains(&p), "at {p}");
        }
        assert_eq!(meet.size(), brute_size(&meet, &l));
        assert!(meet.is_subset_of(&a));
        assert!(meet.is_subset_of(&b));
    }

    #[test]
    fn subset_is_exact() {
        let small = PowersetDomain::new(2, vec![interval((1, 3), (1, 3))], vec![]);
        let big = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10))],
            vec![interval((5, 6), (5, 6))],
        );
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        // A set that pokes into the exclusion of `big` is not a subset.
        let poking = PowersetDomain::new(2, vec![interval((5, 6), (5, 6))], vec![]);
        assert!(!poking.is_subset_of(&big));
        // Two different representations of the same set are mutual subsets.
        let split = PowersetDomain::new(
            2,
            vec![interval((1, 2), (1, 3)), interval((3, 3), (1, 3))],
            vec![],
        );
        assert!(split.is_subset_of(&small));
        assert!(small.is_subset_of(&split));
    }

    #[test]
    fn to_pred_characterizes_membership() {
        let l = layout();
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 5), (0, 5)), interval((10, 15), (10, 15))],
            vec![interval((2, 3), (2, 3))],
        );
        let pred = d.to_pred();
        for p in l.space().points() {
            assert_eq!(pred.eval(&p).unwrap(), d.contains(&p), "at {p}");
        }
        assert_eq!(PowersetDomain::bottom(&l).to_pred(), Pred::False);
    }

    #[test]
    fn normalization_drops_dead_members() {
        // The second include is fully covered by the first; the exclude is disjoint from both.
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10)), interval((2, 4), (2, 4))],
            vec![interval((15, 16), (15, 16))],
        );
        assert_eq!(d.includes().len(), 1);
        assert_eq!(d.excludes().len(), 0);
        // An include that is entirely excluded disappears too.
        let gone =
            PowersetDomain::new(2, vec![interval((0, 2), (0, 2))], vec![interval((0, 2), (0, 2))]);
        assert!(gone.is_empty());
        assert_eq!(gone.includes().len(), 0);
    }

    #[test]
    fn top_markers_follow_their_members() {
        let l = layout();
        let top = IntervalDomain::top(&l);
        let tops = |members: Vec<IntervalDomain>| -> Vec<bool> {
            members.iter().map(IntervalDomain::is_top_element).collect()
        };
        // The dead second member is compacted away, and `⊤` moves down a slot with its marker.
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 4), (0, 4)), interval((1, 2), (1, 2)), top.clone()],
            vec![],
        );
        assert_eq!(tops(d.includes().collect()), [false, true]);
        // A `⊤` exclusion survives when an inclusion reaches past the layout, and a meet keeps
        // its marker behind the other side's exclusions.
        let wide = PowersetDomain::new(
            2,
            vec![interval((15, 30), (0, 20))],
            vec![interval((16, 16), (0, 0)), top],
        );
        assert_eq!(tops(wide.excludes().collect()), [false, true]);
        let other = PowersetDomain::new(
            2,
            vec![interval((0, 30), (0, 20))],
            vec![interval((29, 30), (20, 20))],
        );
        let meet = other.intersect(&wide);
        assert_eq!(tops(meet.includes().collect()), [false]);
        assert_eq!(tops(meet.excludes().collect()), [false, false, true]);
        assert_eq!(meet.size(), 10 * 21 - 2);
    }

    #[test]
    fn push_members_keeps_sizes_exact() {
        let l = layout();
        let mut d = PowersetDomain::bottom(&l);
        d.push_include(interval((0, 4), (0, 4)));
        d.push_include(interval((3, 8), (0, 4)));
        assert_eq!(d.size(), brute_size(&d, &l));
        d.push_exclude(interval((0, 20), (2, 2)));
        assert_eq!(d.size(), brute_size(&d, &l));
    }

    #[test]
    fn bounding_box_is_the_hull_of_includes() {
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 2), (0, 2)), interval((10, 12), (4, 6))],
            vec![],
        );
        let bb = d.bounding_box().unwrap();
        assert_eq!(bb.dim(0), anosy_logic::Range::new(0, 12));
        assert_eq!(bb.dim(1), anosy_logic::Range::new(0, 6));
        assert!(PowersetDomain::bottom(&layout()).bounding_box().is_none());
    }

    #[test]
    fn from_box_round_trip() {
        let b = IntBox::new(vec![anosy_logic::Range::new(1, 3), anosy_logic::Range::new(2, 4)]);
        let d = PowersetDomain::from_box(&b);
        assert_eq!(d.size(), 9);
        assert_eq!(d.bounding_box(), Some(b));
    }

    #[test]
    fn display_renders_both_lists() {
        let d =
            PowersetDomain::new(2, vec![interval((0, 5), (0, 5))], vec![interval((1, 2), (1, 2))]);
        let s = d.to_string();
        assert!(s.contains('⋃'));
        assert!(s.contains('\\'));
        assert_eq!(PowersetDomain::new(2, vec![], vec![]).to_string(), "⊥P");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_is_rejected() {
        let _ = PowersetDomain::new(
            2,
            vec![IntervalDomain::from_intervals(vec![AInt::new(0, 1)])],
            vec![],
        );
    }
}
