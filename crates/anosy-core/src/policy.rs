//! Quantitative declassification policies.
//!
//! A policy is a predicate on (approximated) attacker knowledge (§2.1: `qpolicy dom = size dom >
//! 100`). For enforcement through *under*-approximations to be sound, the policy must be
//! monotone: if it accepts a knowledge set it must accept every superset (§3, "the policy should
//! be an increasing function in the size of the input"). All policies provided here are monotone
//! by construction; [`FnPolicy`] documents the obligation for custom predicates.
//!
//! Monotonicity carries a verdict from an under-approximation up to the attacker's true
//! knowledge, which contains it. It carries nothing *down* from an over-approximation: a
//! bounding box may hold 40,401 candidates while the true posterior holds 20,201, so an
//! upward-closed policy that accepts the box says nothing about the knowledge it bounds.
//! [`Policy::sound_for`] therefore names the approximation directions a policy may decide on,
//! and a downgrade through ind. sets of any other direction is refused before a posterior is
//! computed:
//!
//! * [`AllowAll`] (and [`PolicySpec::AllowAll`]) accepts every knowledge, so it is sound for
//!   both directions;
//! * [`MinSizePolicy`], [`MinEntropyPolicy`] and [`FnPolicy`] are sound for
//!   [`ApproxKind::Under`] only;
//! * [`AndPolicy`] (and [`PolicySpec::All`]) is sound for the directions every conjunct is.

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

/// Accepts everything. Useful as a baseline and for measuring "how fast would knowledge shrink
/// without enforcement".
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl<D: AbstractDomain> Policy<D> for AllowAll {
    fn allows(&self, _knowledge: &Knowledge<D>) -> bool {
        true
    }

    fn name(&self) -> String {
        "allow-all".into()
    }

    fn sound_for(&self, _kind: ApproxKind) -> bool {
        true
    }
}

/// The paper's `qpolicy`: the knowledge must keep strictly more than `min_size` candidate
/// secrets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinSizePolicy {
    min_size: u128,
}

impl MinSizePolicy {
    /// Requires `size knowledge > min_size`.
    pub fn new(min_size: u128) -> Self {
        MinSizePolicy { min_size }
    }

    /// The threshold.
    pub fn min_size(&self) -> u128 {
        self.min_size
    }
}

impl<D: AbstractDomain> Policy<D> for MinSizePolicy {
    fn allows(&self, knowledge: &Knowledge<D>) -> bool {
        knowledge.size() > self.min_size
    }

    fn name(&self) -> String {
        format!("min-size({})", self.min_size)
    }

    fn sound_for(&self, kind: ApproxKind) -> bool {
        kind == ApproxKind::Under
    }
}

/// Requires the residual Shannon entropy (in bits, under the uniform reading) to stay strictly
/// above a threshold — one of the §8 "further applications".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinEntropyPolicy {
    min_bits: f64,
}

impl MinEntropyPolicy {
    /// Requires `shannon_entropy(knowledge) > min_bits`.
    pub fn new(min_bits: f64) -> Self {
        MinEntropyPolicy { min_bits }
    }
}

impl<D: AbstractDomain> Policy<D> for MinEntropyPolicy {
    fn allows(&self, knowledge: &Knowledge<D>) -> bool {
        knowledge.shannon_entropy() > self.min_bits
    }

    fn name(&self) -> String {
        format!("min-entropy({} bits)", self.min_bits)
    }

    fn sound_for(&self, kind: ApproxKind) -> bool {
        kind == ApproxKind::Under
    }
}

/// Conjunction of two policies: both must accept.
#[derive(Debug)]
pub struct AndPolicy<P, Q> {
    left: P,
    right: Q,
}

impl<P, Q> AndPolicy<P, Q> {
    /// Requires both `left` and `right` to accept.
    pub fn new(left: P, right: Q) -> Self {
        AndPolicy { left, right }
    }
}

impl<D, P, Q> Policy<D> for AndPolicy<P, Q>
where
    D: AbstractDomain,
    P: Policy<D>,
    Q: Policy<D>,
{
    fn allows(&self, knowledge: &Knowledge<D>) -> bool {
        self.left.allows(knowledge) && self.right.allows(knowledge)
    }

    fn name(&self) -> String {
        format!("{} ∧ {}", self.left.name(), self.right.name())
    }

    fn sound_for(&self, kind: ApproxKind) -> bool {
        self.left.sound_for(kind) && self.right.sound_for(kind)
    }
}

/// A declarative, wire-speakable policy description: the closed subset of [`Policy`] the serving
/// protocol can carry in an `OpenSession` request.
///
/// A spec *is* a policy (it implements [`Policy`] for every domain), and it round-trips through
/// a compact text form — [`PolicySpec::parse`] is the exact inverse of `Display` **on every
/// value `parse` can produce**. `parse` never builds an empty or single-element
/// [`All`](PolicySpec::All); constructing those directly forfeits the round-trip (a singleton
/// re-parses as its bare atom, an empty conjunction displays as an unparseable empty string —
/// and, as a policy, vacuously allows everything), so wire-facing code should build specs via
/// `parse`:
///
/// * `allow-all` — [`AllowAll`];
/// * `min-size:100` — [`MinSizePolicy`], the paper's `qpolicy`;
/// * `min-entropy-mb:2500` — [`MinEntropyPolicy`] with the threshold in *millibits*, so specs
///   stay `Eq`/hashable and survive the wire without floating-point formatting drift;
/// * `min-size:100&min-entropy-mb:2500` — conjunction of atoms ([`AndPolicy`]).
///
/// Arbitrary [`FnPolicy`] predicates are deliberately not expressible: a remote connection must
/// not ship code, only parameters of the monotone policies the deployment already trusts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// Accept everything (baseline / measurement sessions).
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

    #[test]
    fn min_size_policy_matches_the_paper() {
        let policy = MinSizePolicy::new(100);
        assert_eq!(policy.min_size(), 100);
        assert!(Policy::<IntervalDomain>::name(&policy).contains("100"));
        assert!(policy.allows(&knowledge_of_size(6837)));
        assert!(policy.allows(&knowledge_of_size(101)));
        assert!(!policy.allows(&knowledge_of_size(100)));
        assert!(!policy.allows(&knowledge_of_size(1)));
    }

    #[test]
    fn entropy_policy_thresholds_in_bits() {
        let policy = MinEntropyPolicy::new(7.0); // > 128 candidates
        assert!(policy.allows(&knowledge_of_size(129)));
        assert!(!policy.allows(&knowledge_of_size(128)));
        assert!(Policy::<IntervalDomain>::name(&policy).contains("bits"));
    }

    #[test]
    fn allow_all_and_conjunction() {
        let layout = SecretLayout::builder().field("x", 0, 10).build();
        let k: Knowledge<IntervalDomain> = Knowledge::initial(&layout);
        assert!(AllowAll.allows(&k));
        let both = AndPolicy::new(MinSizePolicy::new(5), MinEntropyPolicy::new(1.0));
        assert!(both.allows(&knowledge_of_size(11)));
        assert!(!both.allows(&knowledge_of_size(4)));
        assert!(Policy::<IntervalDomain>::name(&both).contains('∧'));
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
    fn policy_specs_round_trip_and_enforce_like_their_policies() {
        // parse ∘ Display is the identity on everything parse can produce.
        let cases = [
            PolicySpec::AllowAll,
            PolicySpec::MinSize(100),
            PolicySpec::MinEntropyMillibits(7000),
            PolicySpec::All(vec![PolicySpec::MinSize(5), PolicySpec::MinEntropyMillibits(1000)]),
        ];
        for spec in &cases {
            assert_eq!(PolicySpec::parse(&spec.to_string()).as_ref(), Some(spec), "{spec}");
        }
        assert_eq!(
            PolicySpec::parse("min-size:100&min-entropy-mb:2500").unwrap().to_string(),
            "min-size:100&min-entropy-mb:2500"
        );
        for bad in ["", "min-size:", "min-size:x", "max-size:3", "min-size:1&", "&"] {
            assert_eq!(PolicySpec::parse(bad), None, "{bad:?} must not parse");
        }

        // Enforcement agrees with the concrete policies the atoms describe.
        let spec = PolicySpec::parse("min-size:100").unwrap();
        let concrete = MinSizePolicy::new(100);
        for n in [1, 100, 101, 6837] {
            assert_eq!(
                Policy::<IntervalDomain>::allows(&spec, &knowledge_of_size(n)),
                concrete.allows(&knowledge_of_size(n))
            );
        }
        let both = PolicySpec::parse("min-size:5&min-entropy-mb:1000").unwrap();
        assert!(Policy::<IntervalDomain>::allows(&both, &knowledge_of_size(11)));
        assert!(!Policy::<IntervalDomain>::allows(&both, &knowledge_of_size(4)));
        assert!(Policy::<IntervalDomain>::allows(&PolicySpec::AllowAll, &knowledge_of_size(1)));
        // The millibit threshold is exclusive, like MinEntropyPolicy's bits.
        let entropy = PolicySpec::MinEntropyMillibits(7000);
        assert!(Policy::<IntervalDomain>::allows(&entropy, &knowledge_of_size(129)));
        assert!(!Policy::<IntervalDomain>::allows(&entropy, &knowledge_of_size(128)));
        assert_eq!(Policy::<IntervalDomain>::name(&both), "min-size:5&min-entropy-mb:1000");
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
            if Policy::<IntervalDomain>::allows(&spec, &knowledge_of_size(n)) {
                assert!(n as u128 > bound);
            }
        }
    }

    #[test]
    fn only_allow_all_is_sound_for_over_approximations() {
        use ApproxKind::{Over, Under};
        let sound = |p: &dyn Policy<IntervalDomain>| (p.sound_for(Under), p.sound_for(Over));
        assert_eq!(sound(&AllowAll), (true, true));
        assert_eq!(sound(&MinSizePolicy::new(1)), (true, false));
        assert_eq!(sound(&MinEntropyPolicy::new(1.0)), (true, false));
        assert_eq!(sound(&FnPolicy::new("any", |_| true)), (true, false));
        assert_eq!(sound(&AndPolicy::new(AllowAll, AllowAll)), (true, true));
        assert_eq!(sound(&AndPolicy::new(AllowAll, MinSizePolicy::new(1))), (true, false));
        for (text, over) in [
            ("allow-all", true),
            ("min-size:1", false),
            ("min-entropy-mb:1", false),
            ("allow-all&allow-all", true),
            ("allow-all&min-size:1", false),
        ] {
            assert_eq!(sound(&PolicySpec::parse(text).unwrap()), (true, over), "{text}");
        }
    }

    #[test]
    fn policies_are_usable_as_trait_objects() {
        let boxed: Vec<Box<dyn Policy<IntervalDomain>>> = vec![
            Box::new(MinSizePolicy::new(10)),
            Box::new(AllowAll),
            Box::new(FnPolicy::new("big", |k| k.size() > 1000)),
        ];
        let k = knowledge_of_size(50);
        let verdicts: Vec<bool> = boxed.iter().map(|p| p.allows(&k)).collect();
        assert_eq!(verdicts, vec![true, true, false]);
    }
}
