//! Pins synthesis output: the interval and powerset-3 ind. sets, under and over, of 40 seeded
//! diamonds on the 401×401 grid, against `tests/data/seeded_diamonds.expected`.
//!
//! The solver's search strategies are free to change how they probe, but not what they find:
//! a monotone search has one answer whatever probes it takes. So a change that is meant to make
//! synthesis cheaper must leave this file byte-identical. One synthesizer serves every diamond,
//! as one deployment's does, so the store's memo tables carry over between queries.

use anosy_logic::{IntExpr, SecretLayout};
use anosy_synth::{encode_indsets, ApproxKind, QueryDef, SynthConfig, Synthesizer};

const EXPECTED: &str = include_str!("data/seeded_diamonds.expected");

const DIAMONDS: usize = 40;

/// SplitMix64: a fixed, dependency-free generator, so the diamonds never change.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Diamond `i`: a Manhattan ball whose centre may sit near an edge (so some are clipped by the
/// grid) and whose radius spans the servebench ladder's 30 to 128 and beyond.
fn diamonds(layout: &SecretLayout) -> Vec<QueryDef> {
    let mut rng = SplitMix(0x5EED_D1A3);
    (0..DIAMONDS)
        .map(|i| {
            let (ox, oy, radius) = (rng.range(0, 400), rng.range(0, 400), rng.range(5, 160));
            let pred = ((IntExpr::var(0) - ox).abs() + (IntExpr::var(1) - oy).abs()).le(radius);
            QueryDef::new(format!("d{i:02}_{ox}_{oy}_r{radius}"), layout.clone(), pred).unwrap()
        })
        .collect()
}

fn render() -> String {
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let mut synth = Synthesizer::with_config(SynthConfig::default());
    let mut out = String::new();
    for query in diamonds(&layout) {
        for kind in ApproxKind::ALL {
            let (_, truthy, falsy) = encode_indsets(&synth.synth_interval(&query, kind).unwrap());
            out += &format!("{} {kind} {truthy} | {falsy}\n", query.name());
            let (_, truthy, falsy) =
                encode_indsets(&synth.synth_powerset(&query, kind, 3).unwrap());
            out += &format!("{} {kind} {truthy} | {falsy}\n", query.name());
        }
    }
    out
}

#[test]
fn seeded_diamond_indsets_match_the_checked_in_file() {
    let actual = render();
    for (line, (got, want)) in actual.lines().zip(EXPECTED.lines()).enumerate() {
        assert_eq!(got, want, "line {} of seeded_diamonds.expected differs", line + 1);
    }
    assert_eq!(actual.lines().count(), EXPECTED.lines().count(), "line count differs");
    assert_eq!(actual, EXPECTED);
}
