//! Seeded inputs: the eight suites, generated programs, one-line edits
//! and the order they arrive in. The program under test sees only the
//! text made here.

use std::collections::BTreeSet;

use apar_minicheck::fortgen::{gen_program, GenConfig};
use apar_minicheck::Rng;
use apar_workloads::{all_suites, Workload};

/// Keeps the edit stream apart from what a workload draws from the
/// bare `--seed`.
const EDIT_STREAM: u64 = 0x65_6469_7473;

/// The eight application suites, sources normalised to one `\n` after
/// every line — the form the daemon rebuilds from a `SRC` body, so a
/// suite has one result-cache key however it reaches the service.
pub fn suites() -> Vec<Workload> {
    let mut all = all_suites();
    for w in &mut all {
        w.source = w.source.lines().flat_map(|l| [l, "\n"]).collect();
    }
    all
}

/// The next `n` valid programs of the repository's generator, no two
/// alike (the service would answer a repeat from its in-batch dedup).
pub fn gen_programs(rng: &mut Rng, n: usize) -> Vec<(String, String)> {
    let cfg = GenConfig::default();
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < n {
        let src = gen_program(rng, &cfg);
        if seen.insert(src.clone()) {
            out.push((format!("GEN{:02}", out.len()), src));
        }
    }
    out
}

pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_in(0, i));
    }
}

/// Which other units an edit invalidates, decided from the call graph
/// of the unedited suite and never from a measured outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditClass {
    /// No unit calls the edited one: only its own loops are re-analysed.
    Leaf,
    /// At least two units reach the edited one through calls, so every
    /// loop that inlines it is re-analysed.
    Shared,
}

/// The suite every edit site lives in: the largest one, so that one
/// class of edits is one population of latencies.
pub const EDITED_SUITE: &str = "SEISMIC";

/// A scalar assignment of a real literal in [`EDITED_SUITE`], named by
/// where it is.
#[derive(Clone, Copy, Debug)]
pub struct EditSite {
    pub unit: &'static str,
    pub var: &'static str,
    pub class: EditClass,
}

const fn site(unit: &'static str, var: &'static str, class: EditClass) -> EditSite {
    EditSite { unit, var, class }
}

/// A unit test rederives every class from the suite's call graph.
pub const EDIT_SITES: [EditSite; 8] = [
    site("SEISMAIN", "DT", EditClass::Leaf),
    site("SEISMAIN", "DX", EditClass::Leaf),
    site("SEISMAIN", "VELO", EditClass::Leaf),
    site("CWRITE", "CK", EditClass::Shared),
    site("CFFT1", "WR", EditClass::Shared),
    site("DGENB", "S", EditClass::Shared),
    site("DGWAVE", "W", EditClass::Shared),
    site("FDIFB", "S", EditClass::Shared),
];

/// Of every ten edits, this many are leaf edits and the rest shared.
pub const LEAF_PER_TEN: usize = 7;

/// Index of the site's line in `src`: the first `VAR = <real literal>`
/// after the header of its unit and before that unit's `END`.
fn site_line(src: &str, site: &EditSite) -> Option<usize> {
    let mut in_unit = false;
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t
            .strip_prefix("PROGRAM ")
            .or_else(|| t.strip_prefix("SUBROUTINE "))
        {
            in_unit = rest.split('(').next().map(str::trim) == Some(site.unit);
        } else if in_unit && t == "END" {
            return None;
        } else if in_unit {
            if let Some((lhs, rhs)) = t.split_once(" = ") {
                if lhs == site.var && rhs.parse::<f64>().is_ok() {
                    return Some(i);
                }
            }
        }
    }
    None
}

/// `src` with the literal at `site` replaced; every other line is kept
/// byte for byte. `None` when the site is not in `src`.
pub fn apply_edit(src: &str, site: &EditSite, literal: &str) -> Option<String> {
    let at = site_line(src, site)?;
    let mut out = String::with_capacity(src.len() + literal.len());
    for (i, line) in src.lines().enumerate() {
        if i == at {
            let (lhs, _) = line.split_once(" = ")?;
            out.push_str(lhs);
            out.push_str(" = ");
            out.push_str(literal);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    Some(out)
}

/// One scheduled edit.
#[derive(Clone, Debug)]
pub struct Edit {
    pub site: &'static EditSite,
    pub literal: String,
}

/// `n` edits: every block of ten holds exactly [`LEAF_PER_TEN`] leaf
/// edits in seeded positions, sites take turns within their class, and
/// literals are seeded but grow with the index, so no two edits of a
/// schedule produce the same source. The seed decides order and
/// values; the mix is fixed, which keeps each site's share of the
/// samples, and so the meaning of a percentile, the same for every seed.
pub fn edit_schedule(seed: u64, n: usize) -> Vec<Edit> {
    let mut rng = Rng::new(seed ^ EDIT_STREAM);
    let by_class = |class| -> Vec<&'static EditSite> {
        EDIT_SITES.iter().filter(|s| s.class == class).collect()
    };
    let (leaf, shared) = (by_class(EditClass::Leaf), by_class(EditClass::Shared));
    let (mut next_leaf, mut next_shared) = (0, 0);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = [false; 10];
        block[..LEAF_PER_TEN].fill(true);
        shuffle(&mut block, &mut rng);
        for is_leaf in block {
            let site = if is_leaf {
                next_leaf += 1;
                leaf[(next_leaf - 1) % leaf.len()]
            } else {
                next_shared += 1;
                shared[(next_shared - 1) % shared.len()]
            };
            // Steps of 1e-3 with a jitter below 9e-4: strictly growing.
            let value = 1e-3 * (out.len() + 1) as f64 + 9e-4 * rng.f64_unit();
            out.push(Edit {
                site,
                literal: format!("{value:.6}"),
            });
        }
    }
    out.truncate(n);
    out
}

/// A `SRC` request as the daemon reads it off the wire.
pub fn src_request(name: &str, source: &str) -> Vec<u8> {
    format!("SRC {} {}\n{}", name, source.lines().count(), source).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_analysis::CallGraph;
    use apar_minifort::{frontend, ResolvedProgram};

    fn edited_suite() -> Workload {
        suites()
            .into_iter()
            .find(|w| w.name == EDITED_SUITE)
            .expect("the edited suite")
    }

    /// Units that reach `unit` through one or more calls.
    fn transitive_callers(cg: &CallGraph, unit: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![unit.to_string()];
        while let Some(u) = stack.pop() {
            for s in cg.calls_to(&u) {
                if seen.insert(s.caller.clone()) {
                    stack.push(s.caller.clone());
                }
            }
        }
        seen
    }

    /// The class the call graph gives a unit; `None` for the units in
    /// between (exactly one unit reaches them), which the table leaves out.
    fn classify_unit(rp: &ResolvedProgram, unit: &str) -> Option<EditClass> {
        match transitive_callers(&CallGraph::build(rp), unit).len() {
            0 => Some(EditClass::Leaf),
            1 => None,
            _ => Some(EditClass::Shared),
        }
    }

    #[test]
    fn normalised_sources_still_parse() {
        for w in suites() {
            assert!(w.source.ends_with('\n') && !w.source.contains("\n\n\n\n"));
            frontend(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn site_classes_follow_the_call_graph() {
        let w = edited_suite();
        let rp = frontend(&w.source).expect("suite parses");
        for s in &EDIT_SITES {
            assert!(
                site_line(&w.source, s).is_some(),
                "edit site {}.{}.{} is gone: repair EDIT_SITES",
                EDITED_SUITE,
                s.unit,
                s.var
            );
            assert_eq!(
                classify_unit(&rp, s.unit),
                Some(s.class),
                "class of {}.{} no longer matches the call graph",
                s.unit,
                s.var
            );
        }
        for class in [EditClass::Leaf, EditClass::Shared] {
            let n = EDIT_SITES.iter().filter(|s| s.class == class).count();
            // An odd count keeps a class median inside one site's samples.
            assert!(n % 2 == 1, "{class:?} has {n} sites");
        }
    }

    #[test]
    fn every_edit_parses_and_changes_exactly_one_line() {
        let base = edited_suite().source;
        let mut seen = BTreeSet::new();
        for seed in [1u64, 2, 0xDEAD_BEEF] {
            seen.clear();
            for e in edit_schedule(seed, 60) {
                let edited = apply_edit(&base, e.site, &e.literal).expect("site present");
                frontend(&edited).unwrap_or_else(|d| panic!("{:?}: {d}", e.site));
                let changed = base
                    .lines()
                    .zip(edited.lines())
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(changed, 1, "{:?}", e.site);
                assert_eq!(base.lines().count(), edited.lines().count());
                assert!(seen.insert(edited), "an edit repeated a source");
            }
        }
    }

    #[test]
    fn schedule_is_seeded_and_holds_the_mix() {
        let a = edit_schedule(9, 200);
        let b = edit_schedule(9, 200);
        let c = edit_schedule(10, 200);
        let key = |s: &[Edit]| -> Vec<String> {
            s.iter()
                .map(|e| format!("{}{}", e.site.var, e.literal))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        for block in a.chunks(10) {
            let leaf = block
                .iter()
                .filter(|e| e.site.class == EditClass::Leaf)
                .count();
            assert_eq!(leaf, LEAF_PER_TEN);
        }
    }

    #[test]
    fn generated_programs_are_seeded_distinct_and_valid() {
        let gen = |seed| gen_programs(&mut Rng::new(seed), 12);
        let a = gen(5);
        assert_eq!(a.len(), 12);
        assert_eq!(
            a.iter().map(|p| &p.1).collect::<BTreeSet<_>>().len(),
            12,
            "programs repeat"
        );
        assert_eq!(a, gen(5));
        assert_ne!(a, gen(6));
        for (name, src) in &a {
            frontend(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn src_request_counts_lines() {
        let req = String::from_utf8(src_request("A/B", "X = 1\nEND\n")).expect("utf-8");
        assert_eq!(req, "SRC A/B 2\nX = 1\nEND\n");
    }
}
