//! Quantitative declassification policies.
//!
//! A policy is a predicate on (approximated) attacker knowledge (§2.1: `qpolicy dom = size dom >
//! 100`). For enforcement through *under*-approximations to be sound, the policy must be
//! monotone: if it accepts a knowledge set it must accept every superset (§3, "the policy should
//! be an increasing function in the size of the input"). A session holds its policy as a
//! [`Policy`]. The built-in policies are the values of [`PolicySpec`], the same set whether a
//! session is opened in the library or over the wire, and all of them are monotone by
//! construction; [`FnPolicy`] wraps a custom predicate and documents the obligation.
//!
//! Monotonicity carries a verdict from an under-approximation up to the attacker's true
//! knowledge, which contains it. It carries nothing *down* from an over-approximation: a
//! bounding box may hold 40,401 candidates while the true posterior holds 20,201, so an
//! upward-closed policy that accepts the box says nothing about the knowledge it bounds.
//! [`Policy::sound_for`] therefore names the approximation directions a policy may decide on,
//! and a downgrade through ind. sets of any other direction is refused before a posterior is
//! computed:
//!
//! * [`PolicySpec::AllowAll`] accepts every knowledge, so it is sound for both directions;
//! * [`PolicySpec::MinSize`], [`PolicySpec::MinEntropyMillibits`] and [`FnPolicy`] are sound
//!   for [`ApproxKind::Under`] only;
//! * [`PolicySpec::All`] is sound for the directions every conjunct is.

use crate::Knowledge;
use anosy_domains::AbstractDomain;
use anosy_synth::ApproxKind;
use std::fmt;
use std::sync::Arc;

/// A quantitative declassification policy over knowledge represented in domain `D`.
pub trait Policy<D: AbstractDomain>: fmt::Debug {
    /// Returns `true` when the given knowledge is still acceptable (no violation).
    ///
    /// It must be a pure predicate of the knowledge: the same knowledge always gets the same
    /// verdict. A session decides each step from a knowledge state through a query once and
    /// keeps the verdict for the rest of its life (see [`crate::AnosySession`]), since its
    /// policy is fixed; a predicate that consulted a clock, a counter or any other state would
    /// not be asked again.
    fn allows(&self, knowledge: &Knowledge<D>) -> bool;

    /// A short human-readable name used in error messages and reports.
    fn name(&self) -> String;

    /// Whether a verdict on ind. sets approximated in direction `kind` is a verdict on the
    /// attacker's true knowledge (see the module docs).
    fn sound_for(&self, kind: ApproxKind) -> bool;
}

/// The built-in policies: a declarative description of the monotone policies a deployment
/// trusts, used by library sessions and carried by the serving protocol's `OpenSession` request
/// alike.
///
/// A spec round-trips through a compact text form — [`PolicySpec::parse`] is the exact inverse
/// of `Display` **on every value `parse` can produce** — and that text is also its
/// [`Policy::name`], so a refusal spells a policy the same way in a library error and on the
/// wire. `parse` never builds an empty or single-element [`All`](PolicySpec::All); constructing
/// those directly forfeits the round-trip (a singleton re-parses as its bare atom, an empty
/// conjunction displays as an unparseable empty string — and vacuously allows everything), so
/// wire-facing code should build specs via `parse`:
///
/// * `allow-all` — accept everything;
/// * `min-size:100` — the knowledge must keep strictly more than 100 candidate secrets (the
///   paper's `qpolicy`);
/// * `min-entropy-mb:2500` — the residual Shannon entropy (under the uniform reading) must stay
///   strictly above 2.5 bits, one of the §8 "further applications"; the threshold is in
///   *millibits*, so specs stay `Eq`/hashable and survive the wire without floating-point
///   formatting drift;
/// * `min-size:100&min-entropy-mb:2500` — conjunction of atoms: every one must accept.
///
/// Arbitrary [`FnPolicy`] predicates are deliberately not expressible: a remote connection must
/// not ship code, only parameters of the monotone policies the deployment already trusts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// Accept everything: a baseline, and a measure of how fast knowledge shrinks without
    /// enforcement.
    AllowAll,
    /// Knowledge must keep strictly more than this many candidate secrets.
    MinSize(u128),
    /// Residual Shannon entropy must stay strictly above this many millibits.
    MinEntropyMillibits(u64),
    /// Every listed spec must accept (flattened conjunction; [`PolicySpec::parse`] only
    /// produces lists of two or more atoms).
    All(Vec<PolicySpec>),
}

impl PolicySpec {
    /// Parses the text form described on [`PolicySpec`]. Returns `None` on any malformed input
    /// (unknown atom, bad number, empty conjunct).
    pub fn parse(text: &str) -> Option<PolicySpec> {
        let atoms: Vec<PolicySpec> =
            text.split('&').map(Self::parse_atom).collect::<Option<_>>()?;
        match atoms.len() {
            0 => None,
            1 => atoms.into_iter().next(),
            _ => Some(PolicySpec::All(atoms)),
        }
    }

    /// The effective minimum-size threshold this spec enforces: the largest `min-size` atom in
    /// the spec (conjunctions enforce all their atoms, so the largest one dominates), or `None`
    /// when no atom bounds the size directly. Entropy atoms are not folded in — they bound a
    /// different quantity.
    ///
    /// Every knowledge a [`Policy::allows`] check passes therefore satisfies
    /// `size > min_size_bound()`, which is the floor invariant the adversarial probe tests
    /// assert: however a client walks a secret's range, released knowledge never crosses the
    /// threshold.
    pub fn min_size_bound(&self) -> Option<u128> {
        match self {
            PolicySpec::AllowAll | PolicySpec::MinEntropyMillibits(_) => None,
            PolicySpec::MinSize(n) => Some(*n),
            PolicySpec::All(specs) => specs.iter().filter_map(|s| s.min_size_bound()).max(),
        }
    }

    fn parse_atom(text: &str) -> Option<PolicySpec> {
        let text = text.trim();
        if text == "allow-all" {
            return Some(PolicySpec::AllowAll);
        }
        if let Some(n) = text.strip_prefix("min-size:") {
            return n.parse().ok().map(PolicySpec::MinSize);
        }
        if let Some(n) = text.strip_prefix("min-entropy-mb:") {
            return n.parse().ok().map(PolicySpec::MinEntropyMillibits);
        }
        None
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::AllowAll => write!(f, "allow-all"),
            PolicySpec::MinSize(n) => write!(f, "min-size:{n}"),
            PolicySpec::MinEntropyMillibits(mb) => write!(f, "min-entropy-mb:{mb}"),
            PolicySpec::All(specs) => {
                for (i, spec) in specs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "&")?;
                    }
                    write!(f, "{spec}")?;
                }
                Ok(())
            }
        }
    }
}

impl<D: AbstractDomain> Policy<D> for PolicySpec {
    fn allows(&self, knowledge: &Knowledge<D>) -> bool {
        match self {
            PolicySpec::AllowAll => true,
            PolicySpec::MinSize(n) => knowledge.size() > *n,
            PolicySpec::MinEntropyMillibits(mb) => {
                knowledge.shannon_entropy() > *mb as f64 / 1000.0
            }
            PolicySpec::All(specs) => specs.iter().all(|s| Policy::<D>::allows(s, knowledge)),
        }
    }

    fn name(&self) -> String {
        self.to_string()
    }

    fn sound_for(&self, kind: ApproxKind) -> bool {
        match self {
            PolicySpec::AllowAll => true,
            PolicySpec::MinSize(_) | PolicySpec::MinEntropyMillibits(_) => {
                kind == ApproxKind::Under
            }
            PolicySpec::All(specs) => specs.iter().all(|s| Policy::<D>::sound_for(s, kind)),
        }
    }
}

/// A policy given by an arbitrary predicate on knowledge.
///
/// **Soundness obligation**: for enforcement through under-approximations the predicate must be
/// monotone — if it accepts some knowledge it must accept every larger knowledge. The library
/// cannot check this for you (the paper leaves a policy DSL with this guarantee as future work).
/// It is sound for [`ApproxKind::Under`] only.
#[derive(Clone)]
pub struct FnPolicy<D> {
    name: String,
    #[allow(clippy::type_complexity)]
    predicate: Arc<dyn Fn(&Knowledge<D>) -> bool + Send + Sync>,
}

impl<D: AbstractDomain> FnPolicy<D> {
    /// Wraps a predicate with a display name.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&Knowledge<D>) -> bool + Send + Sync + 'static,
    ) -> Self {
        FnPolicy { name: name.into(), predicate: Arc::new(predicate) }
    }
}

impl<D> fmt::Debug for FnPolicy<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnPolicy({})", self.name)
    }
}

impl<D: AbstractDomain> Policy<D> for FnPolicy<D> {
    fn allows(&self, knowledge: &Knowledge<D>) -> bool {
        (self.predicate)(knowledge)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn sound_for(&self, kind: ApproxKind) -> bool {
        kind == ApproxKind::Under
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_domains::{AInt, IntervalDomain};
    use anosy_logic::SecretLayout;

    fn knowledge_of_size(n: i64) -> Knowledge<IntervalDomain> {
        Knowledge::from_domain(IntervalDomain::from_intervals(vec![AInt::new(1, n)]))
    }

    fn allows(policy: &PolicySpec, size: i64) -> bool {
        Policy::<IntervalDomain>::allows(policy, &knowledge_of_size(size))
    }

    #[test]
    fn min_size_policy_matches_the_paper() {
        let policy = PolicySpec::MinSize(100);
        assert_eq!(Policy::<IntervalDomain>::name(&policy), "min-size:100");
        // Strictly more than the threshold: `size > 100`.
        assert!(allows(&policy, 6837));
        assert!(allows(&policy, 101));
        assert!(!allows(&policy, 100));
        assert!(!allows(&policy, 1));
    }

    #[test]
    fn entropy_policy_thresholds_in_bits() {
        // 7000 millibits = 7 bits, i.e. more than 128 equally likely candidates.
        let policy = PolicySpec::MinEntropyMillibits(7000);
        assert!(allows(&policy, 129));
        assert!(!allows(&policy, 128));
        // The threshold is exclusive in millibits too: 128 candidates hold exactly 7 bits.
        assert!(allows(&PolicySpec::MinEntropyMillibits(6999), 128));
        assert_eq!(Policy::<IntervalDomain>::name(&policy), "min-entropy-mb:7000");
    }

    #[test]
    fn allow_all_and_conjunction() {
        let layout = SecretLayout::builder().field("x", 0, 10).build();
        let top: Knowledge<IntervalDomain> = Knowledge::initial(&layout);
        assert!(Policy::<IntervalDomain>::allows(&PolicySpec::AllowAll, &top));
        assert!(allows(&PolicySpec::AllowAll, 1));
        assert_eq!(Policy::<IntervalDomain>::name(&PolicySpec::AllowAll), "allow-all");

        // A conjunction accepts exactly when every conjunct does.
        let both =
            PolicySpec::All(vec![PolicySpec::MinSize(5), PolicySpec::MinEntropyMillibits(2000)]);
        assert!(allows(&both, 11)); // 11 > 5 and log2(11) > 2
        assert!(!allows(&both, 5)); // the size atom refuses (5 is not > 5), entropy accepts
        assert!(allows(&PolicySpec::MinEntropyMillibits(2000), 5));
        let entropy_refuses =
            PolicySpec::All(vec![PolicySpec::MinSize(2), PolicySpec::MinEntropyMillibits(2000)]);
        assert!(!allows(&entropy_refuses, 3)); // 3 > 2, but log2(3) < 2
        assert!(allows(&PolicySpec::MinSize(2), 3));
        assert_eq!(Policy::<IntervalDomain>::name(&both), "min-size:5&min-entropy-mb:2000");
    }

    #[test]
    fn fn_policy_wraps_custom_predicates() {
        let policy: FnPolicy<IntervalDomain> = FnPolicy::new("even-sized", |k| k.size() % 2 == 0);
        assert!(policy.allows(&knowledge_of_size(4)));
        assert!(!policy.allows(&knowledge_of_size(3)));
        assert_eq!(Policy::<IntervalDomain>::name(&policy), "even-sized");
        assert!(format!("{policy:?}").contains("even-sized"));
    }

    #[test]
    fn policy_specs_round_trip_through_their_text_form() {
        // parse ∘ Display is the identity on everything parse can produce.
        let cases = [
            PolicySpec::AllowAll,
            PolicySpec::MinSize(100),
            PolicySpec::MinEntropyMillibits(7000),
            PolicySpec::All(vec![PolicySpec::MinSize(5), PolicySpec::MinEntropyMillibits(1000)]),
        ];
        for spec in &cases {
            assert_eq!(PolicySpec::parse(&spec.to_string()).as_ref(), Some(spec), "{spec}");
            assert_eq!(Policy::<IntervalDomain>::name(spec), spec.to_string());
        }
        assert_eq!(
            PolicySpec::parse("min-size:100&min-entropy-mb:2500").unwrap().to_string(),
            "min-size:100&min-entropy-mb:2500"
        );
        for bad in ["", "min-size:", "min-size:x", "max-size:3", "min-size:1&", "&"] {
            assert_eq!(PolicySpec::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn min_size_bound_reports_the_dominant_size_atom() {
        assert_eq!(PolicySpec::AllowAll.min_size_bound(), None);
        assert_eq!(PolicySpec::MinEntropyMillibits(7000).min_size_bound(), None);
        assert_eq!(PolicySpec::MinSize(2000).min_size_bound(), Some(2000));
        let conjunction = PolicySpec::parse("min-size:100&min-entropy-mb:2500&min-size:30000");
        assert_eq!(conjunction.unwrap().min_size_bound(), Some(30_000));
        // An entropy-only conjunction bounds no size.
        let entropy_only = PolicySpec::parse("allow-all&min-entropy-mb:1000").unwrap();
        assert_eq!(entropy_only.min_size_bound(), None);

        // The invariant the probe tests lean on: whatever the spec allows is larger than the
        // bound it reports.
        let spec = PolicySpec::parse("min-size:100&min-entropy-mb:1000").unwrap();
        let bound = spec.min_size_bound().unwrap();
        for n in [99, 100, 101, 500] {
            if allows(&spec, n) {
                assert!(n as u128 > bound);
            }
        }
    }

    #[test]
    fn only_allow_all_is_sound_for_over_approximations() {
        use ApproxKind::{Over, Under};
        let sound = |p: &dyn Policy<IntervalDomain>| (p.sound_for(Under), p.sound_for(Over));
        assert_eq!(sound(&FnPolicy::new("any", |_| true)), (true, false));
        for (spec, over) in [
            (PolicySpec::AllowAll, true),
            (PolicySpec::MinSize(1), false),
            (PolicySpec::MinEntropyMillibits(1), false),
            (PolicySpec::All(vec![PolicySpec::AllowAll, PolicySpec::AllowAll]), true),
            (PolicySpec::All(vec![PolicySpec::AllowAll, PolicySpec::MinSize(1)]), false),
            (PolicySpec::All(vec![PolicySpec::MinSize(1), PolicySpec::AllowAll]), false),
            (
                PolicySpec::All(vec![PolicySpec::MinEntropyMillibits(1), PolicySpec::MinSize(1)]),
                false,
            ),
        ] {
            assert_eq!(sound(&spec), (true, over), "{spec}");
            assert_eq!(sound(&PolicySpec::parse(&spec.to_string()).unwrap()), (true, over));
        }
    }

    #[test]
    fn policies_are_usable_as_trait_objects() {
        let boxed: Vec<Box<dyn Policy<IntervalDomain>>> = vec![
            Box::new(PolicySpec::MinSize(10)),
            Box::new(PolicySpec::AllowAll),
            Box::new(FnPolicy::new("big", |k| k.size() > 1000)),
        ];
        let k = knowledge_of_size(50);
        let verdicts: Vec<bool> = boxed.iter().map(|p| p.allows(&k)).collect();
        assert_eq!(verdicts, vec![true, true, false]);
    }
}
