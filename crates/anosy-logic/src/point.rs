//! Concrete secrets as points in the multi-dimensional integer space.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// Coordinates a [`Point`] stores inline, without a heap allocation.
const INLINE: usize = 4;

/// A concrete secret value: one `i64` per field of the secret, in layout order.
///
/// Points are what queries are evaluated on and what abstract domains represent sets of.
///
/// A point of at most four coordinates stores them inline, so building one allocates nothing;
/// every layout the paper evaluates has at most four fields. A longer point spills its
/// coordinates to a `Vec`. The representation is invisible: equality, ordering and hashing are
/// those of the coordinate slice, exactly as for a `Vec<i64>`.
#[derive(Clone)]
pub struct Point {
    coords: Coords,
}

#[derive(Clone)]
enum Coords {
    Inline { len: u8, buf: [i64; INLINE] },
    Spilled(Vec<i64>),
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<i64>) -> Self {
        if coords.len() <= INLINE {
            Point::from(coords.as_slice())
        } else {
            Point { coords: Coords::Spilled(coords) }
        }
    }

    /// The number of fields (dimensions) of the point.
    pub fn arity(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns the coordinate of field `index`, if it exists.
    pub fn get(&self, index: usize) -> Option<i64> {
        self.as_slice().get(index).copied()
    }

    /// Borrow the coordinates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        match &self.coords {
            Coords::Inline { len, buf } => &buf[..usize::from(*len)],
            Coords::Spilled(coords) => coords,
        }
    }

    /// Consumes the point and returns the underlying coordinate vector.
    pub fn into_inner(self) -> Vec<i64> {
        match self.coords {
            Coords::Inline { .. } => self.as_slice().to_vec(),
            Coords::Spilled(coords) => coords,
        }
    }

    /// Iterates over the coordinates.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.as_slice().iter().copied()
    }
}

impl Default for Point {
    fn default() -> Self {
        Point { coords: Coords::Inline { len: 0, buf: [0; INLINE] } }
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Point {}

impl PartialOrd for Point {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Point {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Point {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Point").field("coords", &self.as_slice()).finish()
    }
}

impl From<Vec<i64>> for Point {
    fn from(coords: Vec<i64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[i64]> for Point {
    #[inline]
    fn from(coords: &[i64]) -> Self {
        if coords.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..coords.len()].copy_from_slice(coords);
            Point { coords: Coords::Inline { len: coords.len() as u8, buf } }
        } else {
            Point { coords: Coords::Spilled(coords.to_vec()) }
        }
    }
}

impl FromIterator<i64> for Point {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        Point::new(iter.into_iter().collect())
    }
}

impl Index<usize> for Point {
    type Output = i64;
    fn index(&self, index: usize) -> &i64 {
        &self.as_slice()[index]
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let p = Point::new(vec![3, -4, 5]);
        assert_eq!(p.arity(), 3);
        assert_eq!(p.get(1), Some(-4));
        assert_eq!(p.get(3), None);
        assert_eq!(p[2], 5);
    }

    #[test]
    fn conversions() {
        let p: Point = vec![1, 2].into();
        let q: Point = [1i64, 2].as_slice().into();
        let r: Point = (1..=2).collect();
        assert_eq!(p, q);
        assert_eq!(p, r);
        assert_eq!(p.clone().into_inner(), vec![1, 2]);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(Point::new(vec![300, 200]).to_string(), "(300, 200)");
        assert_eq!(Point::default().to_string(), "()");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Point::new(vec![1, 5]) < Point::new(vec![2, 0]));
        assert!(Point::new(vec![1, 5]) < Point::new(vec![1, 6]));
    }

    fn is_inline(point: &Point) -> bool {
        matches!(point.coords, Coords::Inline { .. })
    }

    #[test]
    fn up_to_four_coordinates_stay_inline_and_a_fifth_spills() {
        for arity in [0usize, 1, 4, 5] {
            let coords: Vec<i64> = (0..arity as i64).map(|i| 10 * i - 7).collect();
            let built = [
                Point::new(coords.clone()),
                Point::from(coords.as_slice()),
                coords.iter().copied().collect(),
            ];
            for point in &built {
                assert_eq!(is_inline(point), arity <= INLINE, "arity {arity}");
                assert_eq!(point.arity(), arity);
                assert_eq!(point.as_slice(), coords.as_slice());
                assert_eq!(point.iter().collect::<Vec<_>>(), coords);
                assert_eq!(point.get(arity), None);
                assert_eq!(point.clone().into_inner(), coords);
                assert_eq!(format!("{point:?}"), format!("Point {{ coords: {coords:?} }}"));
                if arity > 0 {
                    assert_eq!(point[arity - 1], coords[arity - 1]);
                    assert_eq!(point.get(0), Some(coords[0]));
                }
            }
            assert_eq!(built[0], built[1]);
            assert_eq!(built[0], built[2]);
        }
        assert!(is_inline(&Point::default()));
        assert_eq!(Point::default(), Point::new(Vec::new()));
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Coordinates drawn from a tiny range, so equal prefixes and equal points are common.
    fn arb_coords() -> impl Strategy<Value = Vec<i64>> {
        proptest::collection::vec(-2i64..=2, 0..7)
    }

    proptest! {
        #[test]
        fn eq_ord_and_hash_agree_with_the_coordinate_vec(a in arb_coords(), b in arb_coords()) {
            let (p, q) = (Point::new(a.clone()), Point::new(b.clone()));
            prop_assert_eq!(&p, &Point::from(a.as_slice()));
            prop_assert_eq!(p == q, a == b);
            prop_assert_eq!(p.cmp(&q), a.cmp(&b));
            prop_assert_eq!(p.partial_cmp(&q), a.partial_cmp(&b));
            prop_assert_eq!(hash_of(&p), hash_of(&a));
            prop_assert_eq!(hash_of(&p), hash_of(a.as_slice()));
        }
    }
}
