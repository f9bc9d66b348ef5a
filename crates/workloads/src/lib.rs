//! Synthetic industrial-grade application suites.
//!
//! The paper's experiments run over five codes: SEISMIC (seismic
//! processing), GAMESS (quantum chemistry), SANDER (molecular dynamics),
//! the PERFECT BENCHMARKS, and LINPACK. None of the first three is
//! publicly redistributable, so this crate generates MiniFort
//! application suites that reproduce the *structural properties* the
//! paper measures:
//!
//! * SEISMIC's reusable module framework (MODULEPREP/MODULECOMP
//!   templates, a SEISPROC driver, shared RA/SA/OTRA storage, C-language
//!   allocation and I/O glue) — §2.2–2.4;
//! * GAMESS's user-selected wavefunction multifunctionality and the
//!   shared `X` array reshaped across `LVEC` offsets — §2.1, §2.3;
//! * SANDER's `imin` dispatch and neighbor-list indirection;
//! * PERFECT's extracted-kernel shape (static sizes, shallow nesting);
//! * LINPACK's trivially analyzable vector routines.
//!
//! Every hand-parallelizable loop carries a `!$TARGET` marker and a
//! manifest entry recording the hindrance category the baseline
//! compiler is expected to report (Figure 5) and whether the
//! full-capability compiler recovers it.

pub mod gamess;
pub mod linpack;
pub mod perfect;
pub mod sander;
pub mod seismic;

use apar_core::Classification;
/// A value in an input deck: the front end's [`apar_minifort::DeckVal`],
/// so a [`Workload::deck`] goes to the runtime as it is.
pub use apar_minifort::DeckVal as DeckValue;

/// Expected analysis outcome for one `!$TARGET` loop.
#[derive(Clone, Debug)]
pub struct TargetSpec {
    pub name: String,
    /// Expected classification under the 2008 baseline profile.
    pub expected_baseline: Classification,
    /// Whether the full-capability compiler parallelizes it.
    pub recovered_by_full: bool,
}

impl TargetSpec {
    pub fn new(name: &str, expected: Classification, recovered: bool) -> Self {
        TargetSpec {
            name: name.to_string(),
            expected_baseline: expected,
            recovered_by_full: recovered,
        }
    }
}

/// A generated application: source, input deck, and target manifest.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub source: String,
    pub deck: Vec<DeckValue>,
    pub targets: Vec<TargetSpec>,
}

/// Dataset scale mirroring the paper's SMALL / MEDIUM decks (MEDIUM is
/// roughly an order of magnitude more memory).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataSize {
    Small,
    Medium,
    /// Tiny decks for unit tests.
    Test,
}

/// Parallelization variant of a generated program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Plain serial source (the compiler's input).
    Serial,
    /// Manual `!$OMP PARALLEL DO` on the outermost parallel loops.
    OpenMp,
    /// Message-passing version (ranks over `MP*` runtime calls).
    Mpi,
}

/// All five suites, for the compile-time figures. PERFECT contributes
/// its codes individually (they are compiled separately and averaged,
/// as in the paper).
pub fn all_suites() -> Vec<Workload> {
    let mut v = vec![
        seismic::full_suite(DataSize::Small, Variant::Serial),
        gamess::suite(DataSize::Small),
        sander::suite(DataSize::Small),
    ];
    v.extend(perfect::codes());
    v.push(linpack::suite());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_parse_and_resolve() {
        for w in all_suites() {
            apar_minifort::frontend(&w.source).unwrap_or_else(|e| {
                let snippet: String = w
                    .source
                    .lines()
                    .enumerate()
                    .map(|(i, l)| format!("{:4} {}\n", i + 1, l))
                    .collect();
                panic!("{} failed: {}\n{}", w.name, e, snippet)
            });
        }
    }

    #[test]
    fn target_markers_match_manifests() {
        for w in all_suites() {
            let rp = apar_minifort::frontend(&w.source).expect("frontend");
            let mut marked: Vec<String> = Vec::new();
            for u in &rp.program.units {
                for (t, _) in u.target_loops() {
                    marked.push(t);
                }
            }
            marked.sort();
            let mut expected: Vec<String> =
                w.targets.iter().map(|t| t.name.clone()).collect();
            expected.sort();
            assert_eq!(marked, expected, "{} manifest mismatch", w.name);
        }
    }
}
