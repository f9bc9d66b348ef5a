//! Golden report signatures: the ops-exact gate.
//!
//! Symbolic ops are the *modeled* cost of the paper's 2008 Range Test —
//! they define the `complexity` class and every Figure 2/3/5 number —
//! so an implementation change may make the compiler faster in wall
//! time but must leave every published op count, classification and
//! budget trip where it was. This test pins an FNV-1a digest of
//! `CompileResult::report_signature()` for each of the eight suites
//! under both paper profiles. The digests were generated at the commit
//! *before* the dependence-test fast path landed (PR 13's parent); a
//! change that moves one is a deliberate re-baseline, never a drift.
//!
//! To regenerate after an intended change to the cost model:
//! `GOLDEN_PRINT=1 cargo test --test signature_golden -- --nocapture`.

use apar_core::{Compiler, CompilerProfile};
use apar_workloads as wl;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(suite, polaris2008 digest, full digest)` in `all_suites()` order.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("SEISMIC", 0x09ca_0e3c_26c4_1f79, 0xcba2_159b_4063_1507),
    ("GAMESS", 0xd7dc_91ad_2c70_07fd, 0x9b48_c430_c542_33fb),
    ("SANDER", 0x7711_d858_5c33_7581, 0xf32a_50ff_4bfd_215c),
    ("PERFECT/ADM", 0xce08_acdf_212f_9f80, 0xce08_acdf_212f_9f80),
    ("PERFECT/TRFD", 0x9a7b_efdf_a047_542f, 0x4ffc_92c8_32fc_1c10),
    ("PERFECT/MDG", 0x2004_c6d1_7fbc_8a5c, 0x2004_c6d1_7fbc_8a5c),
    ("PERFECT/BDNA", 0x50a2_d29d_68a0_14fb, 0x50a2_d29d_68a0_14fb),
    ("LINPACK", 0xbe51_5d48_ba20_e630, 0x9058_2530_6f6b_168d),
];

/// Sanity anchors from `perf/baseline.json` (`core.ops.<suite>` under
/// polaris2008): if these move, the digests moved for a real reason.
const OPS_ANCHORS: [(&str, u64); 3] = [("SEISMIC", 86_405), ("GAMESS", 46_406), ("SANDER", 17_859)];

#[test]
fn report_signatures_match_the_pinned_digests() {
    let suites = wl::all_suites();
    assert_eq!(suites.len(), GOLDEN.len());
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut drift = Vec::new();
    for (w, (name, want_base, want_full)) in suites.iter().zip(GOLDEN) {
        assert_eq!(w.name, name, "suite order changed");
        let base = Compiler::new(CompilerProfile::polaris2008())
            .compile_source(&w.name, &w.source)
            .expect("compile");
        let full = Compiler::new(CompilerProfile::full())
            .compile_source(&w.name, &w.source)
            .expect("compile");
        if let Some((_, ops)) = OPS_ANCHORS.iter().find(|(n, _)| *n == name) {
            assert_eq!(base.report.total_ops(), *ops, "{name}: total ops anchor");
        }
        let got_base = fnv1a(&base.report_signature());
        let got_full = fnv1a(&full.report_signature());
        if print {
            println!("    (\"{name}\", 0x{got_base:016x}, 0x{got_full:016x}),");
        } else if (got_base, got_full) != (want_base, want_full) {
            drift.push(format!(
                "{name}: polaris2008 0x{got_base:016x} (pinned 0x{want_base:016x}), \
                 full 0x{got_full:016x} (pinned 0x{want_full:016x})"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "report signatures drifted:\n{}",
        drift.join("\n")
    );
}
