//! Registered query information (the paper's `QInfo` record, Fig. 2).

use crate::KaryQuery;
use anosy_domains::AbstractDomain;
use anosy_logic::Point;
use anosy_synth::{ApproxKind, IndSets, QueryDef};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique identity of one [`QInfo`]: the key a session's knowledge table memoizes
/// downgrade steps under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey(u64);

/// `Relaxed` suffices: `fetch_add` alone makes every key unique, and a key publishes no data.
static NEXT_QUERY_KEY: AtomicU64 = AtomicU64::new(0);

/// A query together with its synthesized knowledge approximation.
///
/// This is the value stored in the session's query map: the query itself (to execute it on the
/// secret once authorized) and the approximation function (to compute posteriors without looking
/// at the secret). In the paper the approximation is a Haskell function `approx`; here it is one
/// ind. set per output of the query, and the posterior of an output is the meet of the prior
/// with its ind. set, which is exactly how the synthesized `approx` is defined (Fig. 4).
///
/// A query has `k ≥ 2` outputs, taken by its first-match cases ([`KaryQuery`], the §5.1
/// extension). A boolean query ([`QInfo::new`]) is the query of one case: output 0 is the
/// answer `true` and output 1 the answer `false`.
///
/// Each `QInfo` carries a query key: a process-unique number that its constructor stamps from a
/// global counter and that clones share. A session's knowledge table memoizes downgrade steps
/// under it (see [`crate::AnosySession`]). A `QInfo` is immutable, so a key always names the
/// same query and ind. sets: a name registered again with another predicate gets a new `QInfo`,
/// hence a new key, and never reads a step memoized for the old one. The key is not part of
/// equality, which compares the query, the direction and the ind. sets.
#[derive(Debug, Clone)]
pub struct QInfo<D> {
    query: KaryQuery,
    kind: ApproxKind,
    sets: Vec<D>,
    key: QueryKey,
}

impl<D: PartialEq> PartialEq for QInfo<D> {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query && self.kind == other.kind && self.sets == other.sets
    }
}

impl<D: AbstractDomain> QInfo<D> {
    /// Packages a boolean query with its (already verified) ind. sets under a fresh query key.
    pub fn new(query: QueryDef, indsets: IndSets<D>) -> Self {
        let sets = vec![indsets.truthy().clone(), indsets.falsy().clone()];
        QInfo::with_cases(query.into(), indsets.kind(), sets)
    }

    /// Packages a query with its (already verified) ind. sets of direction `kind`, one per
    /// output in output order, under a fresh query key.
    ///
    /// # Panics
    ///
    /// When there is not exactly one set per output.
    pub fn with_cases(query: KaryQuery, kind: ApproxKind, sets: Vec<D>) -> Self {
        assert_eq!(sets.len(), query.output_count(), "one ind. set per output of {query}");
        QInfo { query, kind, sets, key: QueryKey(NEXT_QUERY_KEY.fetch_add(1, Ordering::Relaxed)) }
    }

    /// The process-unique key of this query and its ind. sets (shared by clones).
    pub(crate) fn key(&self) -> QueryKey {
        self.key
    }

    /// The query definition.
    pub fn query(&self) -> &KaryQuery {
        &self.query
    }

    /// The synthesized ind. sets, one per output.
    pub fn sets(&self) -> &[D] {
        &self.sets
    }

    /// The approximation direction of the stored ind. sets.
    pub fn kind(&self) -> ApproxKind {
        self.kind
    }

    /// Executes the query on a concrete secret, returning its output index (only called after
    /// the policy check authorizes it).
    pub fn output(&self, secret: &Point) -> usize {
        self.query.output(secret)
    }
}

impl<D: AbstractDomain + fmt::Display> fmt::Display for QInfo<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {} approximation", self.query, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_domains::{AInt, IntervalDomain};
    use anosy_logic::{IntExpr, SecretLayout};

    fn qinfo() -> QInfo<IntervalDomain> {
        let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
        let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        let query = QueryDef::new("nearby_200_200", layout, nearby).unwrap();
        let indsets = IndSets::new(
            ApproxKind::Under,
            IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
            IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]),
        );
        QInfo::new(query, indsets)
    }

    #[test]
    fn accessors_and_execution() {
        let info = qinfo();
        assert_eq!(info.query().name(), "nearby_200_200");
        assert_eq!(info.kind(), ApproxKind::Under);
        assert_eq!(info.output(&Point::new(vec![300, 200])), 0);
        assert_eq!(info.output(&Point::new(vec![0, 0])), 1);
    }

    #[test]
    fn posterior_matches_the_papers_walkthrough() {
        let info = qinfo();
        let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
        let top = IntervalDomain::top(&layout);
        assert_eq!(top.intersect(&info.sets()[0]).size(), 6837); // |post1| in §3
        assert_eq!(top.intersect(&info.sets()[1]).size(), 401 * 100);
    }

    #[test]
    fn clones_share_a_key_and_every_construction_gets_a_new_one() {
        let info = qinfo();
        assert_eq!(info.clone().key(), info.key());
        let again = qinfo();
        assert_ne!(again.key(), info.key());
        assert_eq!(again, info, "equality compares the query and ind. sets, not the key");
        let kinds = |kind| QInfo::with_cases(info.query().clone(), kind, info.sets().to_vec());
        assert_ne!(kinds(ApproxKind::Over), kinds(ApproxKind::Under));
    }

    #[test]
    fn display_mentions_query_and_kind() {
        let text = qinfo().to_string();
        assert!(text.contains("nearby_200_200"));
        assert!(text.contains("under"));
    }
}
