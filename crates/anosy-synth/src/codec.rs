//! Serialization hooks for synthesized approximations (the synthesis journal and snapshots).
//!
//! A restarted deployment should not pay the cold-start synthesis cost for a query set it has
//! already synthesized, so `anosy-serve` persists its synthesis cache to disk. The interned ids
//! the in-memory cache keys on are not portable across stores, but the *values* — abstract-domain
//! elements — have a tiny, canonical text form, defined here:
//!
//! * every domain element encodes to one line of whitespace-separated tokens
//!   ([`DomainCodec::encode`]);
//! * decoding needs the [`SecretLayout`] (so `⊤` can be rebuilt exactly) and is the inverse of
//!   encoding: `decode(encode(d)) == d` for every element a synthesizer can produce
//!   (round-trip-tested below and property-tested in `anosy-serve`);
//! * the format is deliberately dependency-free (no serde in the workspace) and versioned at the
//!   file level by `anosy-serve`.
//!
//! Intervals are rendered `lo..hi` per field, joined by commas: the under-approximation of the
//! paper's `nearby` query reads `box 121..279,179..221`.

use crate::{ApproxKind, IndSets};
use anosy_domains::{AInt, AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_logic::SecretLayout;

/// An abstract domain whose elements round-trip through a one-line text form.
pub trait DomainCodec: AbstractDomain {
    /// Short tag naming the domain in persisted files (`interval`, `powerset`).
    const TAG: &'static str;

    /// Renders the element as one line of whitespace-separated tokens (no newlines).
    fn encode(&self) -> String;

    /// Parses an element back; `layout` supplies the bounds for `top`. Returns `None` on any
    /// malformed input (the caller treats the whole cache file as cold in that case).
    fn decode(text: &str, layout: &SecretLayout) -> Option<Self>;
}

fn encode_dims(dims: &[AInt]) -> String {
    dims.iter().map(|a| format!("{}..{}", a.lower(), a.upper())).collect::<Vec<_>>().join(",")
}

fn decode_dims(token: &str) -> Option<Vec<AInt>> {
    let mut dims = Vec::new();
    for field in token.split(',') {
        let (lo, hi) = field.split_once("..")?;
        let (lo, hi) = (lo.parse::<i64>().ok()?, hi.parse::<i64>().ok()?);
        if lo > hi {
            return None;
        }
        dims.push(AInt::new(lo, hi));
    }
    if dims.is_empty() {
        None
    } else {
        Some(dims)
    }
}

/// Encodes one interval element as a member token (without the domain tag): `top`, `bottom`, or
/// the comma-joined per-field ranges.
fn encode_interval_member(d: &IntervalDomain) -> String {
    if d.is_top_element() {
        "top".to_string()
    } else {
        match d.intervals() {
            None => "bottom".to_string(),
            Some(dims) => encode_dims(dims),
        }
    }
}

fn decode_interval_member(token: &str, layout: &SecretLayout) -> Option<IntervalDomain> {
    match token {
        "top" => Some(IntervalDomain::top(layout)),
        "bottom" => Some(IntervalDomain::bottom(layout)),
        dims => {
            let dims = decode_dims(dims)?;
            if dims.len() != layout.arity() {
                return None;
            }
            Some(IntervalDomain::from_intervals(dims))
        }
    }
}

impl DomainCodec for IntervalDomain {
    const TAG: &'static str = "interval";

    fn encode(&self) -> String {
        encode_interval_member(self)
    }

    fn decode(text: &str, layout: &SecretLayout) -> Option<Self> {
        decode_interval_member(text.trim(), layout)
    }
}

impl DomainCodec for PowersetDomain {
    const TAG: &'static str = "powerset";

    fn encode(&self) -> String {
        let mut tokens = vec!["include".to_string()];
        tokens.extend(self.includes().map(|d| encode_interval_member(&d)));
        tokens.push("exclude".to_string());
        tokens.extend(self.excludes().map(|d| encode_interval_member(&d)));
        tokens.join(" ")
    }

    fn decode(text: &str, layout: &SecretLayout) -> Option<Self> {
        let mut tokens = text.split_whitespace();
        if tokens.next()? != "include" {
            return None;
        }
        let mut include = Vec::new();
        let mut exclude = Vec::new();
        let mut in_exclude = false;
        for token in tokens {
            if token == "exclude" {
                if in_exclude {
                    return None;
                }
                in_exclude = true;
                continue;
            }
            let member = decode_interval_member(token, layout)?;
            if in_exclude {
                exclude.push(member);
            } else {
                include.push(member);
            }
        }
        if !in_exclude {
            return None; // the `exclude` marker is mandatory, even when the list is empty
        }
        Some(PowersetDomain::new(layout.arity(), include, exclude))
    }
}

/// Encodes the three components of an ind.-set pair as `(kind, truthy line, falsy line)`.
pub fn encode_indsets<D: DomainCodec>(ind: &IndSets<D>) -> (ApproxKind, String, String) {
    (ind.kind(), ind.truthy().encode(), ind.falsy().encode())
}

/// Rebuilds an ind.-set pair from its encoded components.
pub fn decode_indsets<D: DomainCodec>(
    kind: ApproxKind,
    truthy: &str,
    falsy: &str,
    layout: &SecretLayout,
) -> Option<IndSets<D>> {
    Some(IndSets::new(kind, D::decode(truthy, layout)?, D::decode(falsy, layout)?))
}

/// Parses an [`ApproxKind`] from its `Display` form (`under` / `over`).
pub fn parse_approx_kind(text: &str) -> Option<ApproxKind> {
    match text {
        "under" => Some(ApproxKind::Under),
        "over" => Some(ApproxKind::Over),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", -5, 400).field("y", 0, 400).build()
    }

    #[test]
    fn interval_round_trips() {
        let cases = vec![
            IntervalDomain::top(&layout()),
            IntervalDomain::bottom(&layout()),
            IntervalDomain::from_intervals(vec![AInt::new(-5, -1), AInt::new(179, 221)]),
        ];
        for d in cases {
            let line = d.encode();
            assert!(!line.contains('\n'));
            assert_eq!(IntervalDomain::decode(&line, &layout()), Some(d));
        }
    }

    #[test]
    fn powerset_round_trips() {
        let member =
            |a: i64, b: i64| IntervalDomain::from_intervals(vec![AInt::new(a, b), AInt::new(a, b)]);
        let cases = vec![
            PowersetDomain::new(2, vec![], vec![]),
            PowersetDomain::from_interval(member(0, 10)),
            PowersetDomain::new(2, vec![member(0, 10), member(50, 60)], vec![member(2, 3)]),
            // The knowledge of a secret no downgrade has touched yet.
            PowersetDomain::top(&layout()),
            // The shape of an over-approximation: the whole space minus carved-out boxes.
            PowersetDomain::new(
                2,
                vec![IntervalDomain::top(&layout())],
                vec![member(2, 3), member(100, 120)],
            ),
        ];
        for d in cases {
            assert_eq!(PowersetDomain::decode(&d.encode(), &layout()), Some(d));
        }
    }

    #[test]
    fn powerset_top_keeps_its_marker() {
        let top = PowersetDomain::top(&layout());
        assert_eq!(top.encode(), "include top exclude");
        let carved = PowersetDomain::new(
            2,
            vec![IntervalDomain::top(&layout())],
            vec![IntervalDomain::from_intervals(vec![AInt::new(2, 3), AInt::new(2, 3)])],
        );
        assert_eq!(carved.encode(), "include top exclude 2..3,2..3");
        // A box with the bounds of `⊤` is a different member.
        let boxed = PowersetDomain::from_interval(IntervalDomain::from_intervals(vec![
            AInt::new(-5, 400),
            AInt::new(0, 400),
        ]));
        assert_eq!(boxed.encode(), "include -5..400,0..400 exclude");
        assert_ne!(boxed, top);
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panicked() {
        for bad in [
            "",
            "garbage",
            "5..1",           // inverted range
            "1..2",           // wrong arity (layout has 2 fields)
            "1..2,3..x",      // non-numeric
            "include top",    // powerset without the exclude marker
            "1..2,3..4,5..6", // too many fields
        ] {
            assert_eq!(IntervalDomain::decode(bad, &layout()), None, "interval {bad:?}");
        }
        assert_eq!(PowersetDomain::decode("include top", &layout()), None);
        assert_eq!(PowersetDomain::decode("exclude", &layout()), None);
        assert_eq!(PowersetDomain::decode("include exclude exclude", &layout()), None);
    }

    #[test]
    fn indsets_round_trip_and_kind_parses() {
        let ind = IndSets::new(
            ApproxKind::Under,
            IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
            IntervalDomain::from_intervals(vec![AInt::new(-5, 400), AInt::new(0, 99)]),
        );
        let (kind, t, f) = encode_indsets(&ind);
        let back: IndSets<IntervalDomain> = decode_indsets(kind, &t, &f, &layout()).unwrap();
        assert_eq!(back, ind);
        assert_eq!(parse_approx_kind(&ApproxKind::Under.to_string()), Some(ApproxKind::Under));
        assert_eq!(parse_approx_kind(&ApproxKind::Over.to_string()), Some(ApproxKind::Over));
        assert_eq!(parse_approx_kind("sideways"), None);
    }
}
