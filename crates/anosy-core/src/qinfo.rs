//! Registered query information (the paper's `QInfo` record, Fig. 2).

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
/// at the secret). In the paper the approximation is a Haskell function `approx`; here it is the
/// pair of ind. sets, and the posterior is computed by intersecting them with the prior
/// ([`IndSets::posterior`]), which is exactly how the synthesized `approx` is defined (Fig. 4).
///
/// Each `QInfo` carries a query key: a process-unique number that [`QInfo::new`] stamps from a
/// global counter and that clones share. A session's knowledge table memoizes downgrade steps
/// under it (see [`crate::AnosySession`]). A `QInfo` is immutable, so a key always names the
/// same query and ind. sets: a name registered again with another predicate gets a new `QInfo`,
/// hence a new key, and never reads a step memoized for the old one. The key is not part of
/// equality, which compares the query and its ind. sets.
#[derive(Debug, Clone)]
pub struct QInfo<D> {
    query: QueryDef,
    indsets: IndSets<D>,
    key: QueryKey,
}

impl<D: PartialEq> PartialEq for QInfo<D> {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query && self.indsets == other.indsets
    }
}

impl<D: AbstractDomain> QInfo<D> {
    /// Packages a query with its (already verified) ind. sets under a fresh query key.
    pub fn new(query: QueryDef, indsets: IndSets<D>) -> Self {
        QInfo { query, indsets, key: QueryKey(NEXT_QUERY_KEY.fetch_add(1, Ordering::Relaxed)) }
    }

    /// The process-unique key of this query and its ind. sets (shared by clones).
    pub(crate) fn key(&self) -> QueryKey {
        self.key
    }

    /// The query definition.
    pub fn query(&self) -> &QueryDef {
        &self.query
    }

    /// The synthesized ind. sets.
    pub fn indsets(&self) -> &IndSets<D> {
        &self.indsets
    }

    /// The approximation direction of the stored ind. sets.
    pub fn kind(&self) -> ApproxKind {
        self.indsets.kind()
    }

    /// Executes the query on a concrete secret (only called after the policy check authorizes
    /// it).
    pub fn ask(&self, secret: &Point) -> bool {
        self.query.ask(secret)
    }

    /// The posterior knowledge for both possible answers, given the prior.
    pub fn posterior(&self, prior: &D) -> (D, D) {
        self.indsets.posterior(prior)
    }
}

impl<D: AbstractDomain + fmt::Display> fmt::Display for QInfo<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {} approximation", self.query, self.indsets.kind())
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
        assert!(info.ask(&Point::new(vec![300, 200])));
        assert!(!info.ask(&Point::new(vec![0, 0])));
    }

    #[test]
    fn posterior_matches_the_papers_walkthrough() {
        let info = qinfo();
        let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
        let top = IntervalDomain::top(&layout);
        let (post_t, post_f) = info.posterior(&top);
        assert_eq!(post_t.size(), 6837); // |post1| in §3
        assert_eq!(post_f.size(), 401 * 100);
    }

    #[test]
    fn clones_share_a_key_and_every_construction_gets_a_new_one() {
        let info = qinfo();
        assert_eq!(info.clone().key(), info.key());
        let again = qinfo();
        assert_ne!(again.key(), info.key());
        assert_eq!(again, info, "equality compares the query and ind. sets, not the key");
    }

    #[test]
    fn display_mentions_query_and_kind() {
        let text = qinfo().to_string();
        assert!(text.contains("nearby_200_200"));
        assert!(text.contains("under"));
    }
}
