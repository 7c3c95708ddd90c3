//! Differential property: the byte-scanning point parser agrees with the split-and-trim parser
//! it replaced.
//!
//! The oracle below is the earlier `parse_point` and the earlier `downgrade`, `knowledge` and
//! `batch` arms of `parse_request`, kept verbatim. On every generated line, `wire::parse_request`
//! and `wire::parse_request_interned` must return the same request, or fail with the same
//! `WireError` reason: that reason is the text of a `! malformed …` answer, so a client sees it.
//!
//! Lines are built from tokens that stress the integer grammar (`+` signs, `-0`, leading zeros,
//! the edges of `i64`, non-ASCII digits), the list separators (empty lists; leading, trailing
//! and doubled `;` and `,`), repeated keys (the first occurrence wins) and Unicode whitespace
//! both between tokens and inside a list, where it ends the token.
//!
//! The CI test job re-runs this file with `PROPTEST_CASES=4096`.

use anosy_logic::{Point, SecretLayout};
use anosy_serve::wire::{self, NameInterner, WireError};
use anosy_serve::{ServeRequest, SessionId};
use proptest::prelude::*;
use std::sync::Arc;

mod oracle {
    use super::*;

    fn err(reason: &str) -> WireError {
        WireError { reason: reason.to_string() }
    }

    pub fn parse_point(text: &str) -> Option<Point> {
        // Exact-capacity up front: `collect` only knows a lower bound for split iterators, so it
        // would grow (and re-copy) once per point on the bulk decode path.
        let mut coords: Vec<i64> =
            Vec::with_capacity(text.bytes().filter(|&b| b == b',').count() + 1);
        for c in text.split(',') {
            coords.push(c.trim().parse().ok()?);
        }
        if coords.is_empty() {
            None
        } else {
            Some(Point::new(coords))
        }
    }

    fn token<'a>(head: &'a str, key: &str) -> Option<&'a str> {
        head.split_whitespace().find_map(|t| t.strip_prefix(key))
    }

    fn session_token(head: &str) -> Result<SessionId, WireError> {
        token(head, "session=")
            .and_then(|s| s.parse().ok())
            .map(SessionId)
            .ok_or_else(|| err("missing or bad session="))
    }

    fn secret_token(head: &str) -> Result<Point, WireError> {
        token(head, "secret=").and_then(parse_point).ok_or_else(|| err("missing or bad secret="))
    }

    fn query_token(head: &str) -> Result<&str, WireError> {
        token(head, "query=").ok_or_else(|| err("missing query="))
    }

    pub fn parse_request(line: &str) -> Result<ServeRequest, WireError> {
        let intern = |name: &str| -> Arc<str> { Arc::from(name) };
        let line = line.trim();
        let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match verb {
            "downgrade" => Ok(ServeRequest::Downgrade {
                session: session_token(rest)?,
                secret: secret_token(rest)?,
                query: intern(query_token(rest)?),
            }),
            "batch" => {
                let (mut session, mut query, mut list) = (None, None, None);
                for t in rest.split_whitespace() {
                    if let Some(v) = t.strip_prefix("session=") {
                        session.get_or_insert(v);
                    } else if let Some(v) = t.strip_prefix("query=") {
                        query.get_or_insert(v);
                    } else if let Some(v) = t.strip_prefix("secrets=") {
                        list.get_or_insert(v);
                    }
                }
                let session = session
                    .and_then(|v| v.parse().ok())
                    .map(SessionId)
                    .ok_or_else(|| err("missing or bad session="))?;
                let query = intern(query.ok_or_else(|| err("missing query="))?);
                let list = list.ok_or_else(|| err("missing secrets="))?;
                let secrets = if list.is_empty() {
                    Vec::new()
                } else {
                    let mut secrets =
                        Vec::with_capacity(list.bytes().filter(|&b| b == b';').count() + 1);
                    for item in list.split(';') {
                        secrets.push(parse_point(item).ok_or_else(|| err("bad secrets= list"))?);
                    }
                    secrets
                };
                Ok(ServeRequest::DowngradeBatch { session, secrets, query })
            }
            "knowledge" => Ok(ServeRequest::Knowledge {
                session: session_token(rest)?,
                secret: secret_token(rest)?,
            }),
            other => Err(err(&format!("unknown request `{other}`"))),
        }
    }
}

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

fn pick<T: Clone + 'static>(options: &'static [T]) -> impl Strategy<Value = T> {
    (0..options.len()).prop_map(move |i| options[i].clone())
}

/// Integer-like text: plain and signed numbers, leading zeros, `-0`, the edges of `i64` and
/// one past them, runs of digits too long for `u64`, non-ASCII digits, lone signs and the empty
/// string.
fn arb_int() -> impl Strategy<Value = String> {
    const EDGES: &[&str] = &[
        "0",
        "-0",
        "+0",
        "007",
        "-007",
        "+42",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "+9223372036854775807",
        "00000000000000000000009",
        "99999999999999999999",
        "18446744073709551616",
        "-18446744073709551616",
        "",
        "+",
        "-",
        "+-1",
        "--1",
        "1x",
        "\u{663}",
        "\u{ff11}",
        "1\u{663}",
        "²",
    ];
    prop_oneof![
        4 => (-1000i64..=1000).prop_map(|v| v.to_string()),
        1 => (0i64..=400).prop_map(|v| format!("+{v}")),
        1 => (0i64..=400).prop_map(|v| format!("00{v}")),
        1 => (0u64..=u64::MAX).prop_map(|v| v.to_string()),
        1 => (pick(&["", "-", "+"]), proptest::collection::vec(0u8..=9, 18..26)).prop_map(
            |(sign, digits)| {
                let digits: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
                format!("{sign}{digits}")
            }
        ),
        3 => pick(EDGES).prop_map(str::to_string),
    ]
}

/// A point: integers joined by `,`, sometimes with a stray leading, trailing or doubled `,`.
fn arb_point() -> impl Strategy<Value = String> {
    let coords = proptest::collection::vec(arb_int(), 1..6).prop_map(|c| c.join(","));
    prop_oneof![
        8 => coords,
        1 => (arb_int(), arb_int()).prop_map(|(a, b)| format!("{a},,{b}")),
        1 => arb_int().prop_map(|a| format!(",{a}")),
        1 => arb_int().prop_map(|a| format!("{a},")),
    ]
}

/// A `secrets=` value: points joined by `;` (empty included), sometimes with a stray leading,
/// trailing or doubled `;`, or a whitespace character inside it.
fn arb_list() -> impl Strategy<Value = String> {
    let points = || proptest::collection::vec(arb_point(), 0..5).prop_map(|p| p.join(";"));
    let valid = proptest::collection::vec(proptest::collection::vec(0i64..=400, 1..4), 0..5)
        .prop_map(|points| {
            let points: Vec<String> = points
                .iter()
                .map(|c| c.iter().map(i64::to_string).collect::<Vec<_>>().join(","))
                .collect();
            points.join(";")
        });
    prop_oneof![
        4 => valid,
        8 => points(),
        1 => points().prop_map(|p| format!(";{p}")),
        1 => points().prop_map(|p| format!("{p};")),
        1 => (arb_point(), arb_point()).prop_map(|(a, b)| format!("{a};;{b}")),
        2 => (arb_point(), arb_space(), arb_point()).prop_map(|(a, s, b)| format!("{a}{s}{b}")),
        1 => (arb_point(), arb_point()).prop_map(|(a, b)| format!("{a};{b}é")),
    ]
}

/// Separators: ASCII whitespace and Unicode whitespace (`U+0085`, `U+00A0`, `U+3000`, the
/// vertical tab), single or repeated.
fn arb_space() -> impl Strategy<Value = String> {
    const SPACES: &[&str] =
        &[" ", " ", " ", "\t", "  ", "\u{a0}", "\u{85}", "\u{3000}", "\u{b}", " \u{a0} "];
    pick(SPACES).prop_map(str::to_string)
}

fn arb_token() -> impl Strategy<Value = String> {
    const NAMES: &[&str] = &["q", "nearby", "q2", "", "é"];
    const JUNK: &[&str] = &["secret", "secrets", "session", "=", "x=1", "verify", "#"];
    prop_oneof![
        3 => prop_oneof![
            4 => (0u64..=8).prop_map(|v| v.to_string()),
            1 => arb_int(),
        ].prop_map(|s| format!("session={s}")),
        3 => pick(NAMES).prop_map(|n| format!("query={n}")),
        3 => arb_point().prop_map(|p| format!("secret={p}")),
        4 => arb_list().prop_map(|l| format!("secrets={l}")),
        1 => pick(JUNK).prop_map(str::to_string),
    ]
}

/// A request line for one of the point-carrying verbs: tokens in any order, keys repeated at
/// will, separated by arbitrary whitespace.
fn arb_line() -> impl Strategy<Value = String> {
    const VERBS: &[&str] = &["downgrade", "knowledge", "batch"];
    let tokens = proptest::collection::vec((arb_space(), arb_token()), 0..7);
    (arb_space(), pick(VERBS), tokens, arb_space()).prop_map(|(lead, verb, tokens, trail)| {
        let mut line = format!("{lead}{verb}");
        for (space, token) in tokens {
            line.push_str(&space);
            line.push_str(&token);
        }
        line.push_str(&trail);
        line
    })
}

/// A well-formed batch line whose points are all valid, so the comparison covers successful
/// decodes of long lists and not only the first error.
fn arb_valid_batch() -> impl Strategy<Value = String> {
    let point = proptest::collection::vec(-5000i64..=5000, 1..6)
        .prop_map(|c| c.iter().map(i64::to_string).collect::<Vec<_>>().join(","));
    (0u64..=9, proptest::collection::vec(point, 0..40)).prop_map(|(session, points)| {
        format!("batch session={session} query=q secrets={}", points.join(";"))
    })
}

fn assert_agrees(line: &str) -> Result<(), TestCaseError> {
    let layout = layout();
    let expected = oracle::parse_request(line);
    prop_assert_eq!(&wire::parse_request(line, &layout), &expected, "line {:?}", line);
    let mut interner = NameInterner::new();
    let interned = wire::parse_request_interned(line, &layout, &mut interner);
    prop_assert_eq!(&interned, &expected, "interned, line {:?}", line);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn request_lines_parse_as_the_split_parser_did(line in arb_line()) {
        assert_agrees(&line)?;
    }

    #[test]
    fn valid_batches_parse_as_the_split_parser_did(line in arb_valid_batch()) {
        prop_assert!(oracle::parse_request(&line).is_ok());
        assert_agrees(&line)?;
    }

    #[test]
    fn points_parse_as_the_split_parser_did(text in arb_point()) {
        prop_assert_eq!(wire::parse_point(&text), oracle::parse_point(&text), "text {:?}", text);
    }

    #[test]
    fn encoded_points_parse_back(coords in proptest::collection::vec(0u64..=u64::MAX, 1..7)) {
        // The full `i64` range, by reinterpreting random bits.
        let point = Point::new(coords.into_iter().map(|c| c as i64).collect());
        let text = wire::encode_point(&point);
        prop_assert_eq!(wire::parse_point(&text), Some(point));
    }
}
