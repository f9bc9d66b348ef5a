//! Program analyses for MiniFort, implementing the pass inventory of the
//! Polaris compiler that the paper's Figures 2, 3 and 5 are built on.
//!
//! The modules mirror the passes named in Figure 2:
//!
//! * data-dependence test — [`ddtest`] (Range Test + GCD),
//! * array privatization — [`privatize`],
//! * induction variable substitution — [`induction`],
//! * inline expansion — [`inline`],
//! * GSA translation — [`gsa`] (gated scalar value analysis),
//! * interprocedural constant propagation — [`constprop`],
//! * reduction recognition — [`reduction`],
//!
//! plus the substrate they stand on: symbolic conversion ([`symx`]),
//! control-flow graphs ([`cfg`]), the call graph ([`callgraph`]), loop
//! nests and nesting metrics ([`loops`]), value ranges ([`ranges`]),
//! storage-level alias analysis ([`alias`]), array access collection
//! ([`access`]), and interprocedural access summaries ([`summary`]).
//!
//! Analyses are *capability-gated*: a [`Capabilities`] value says which
//! enabling techniques are available, letting the driver reproduce the
//! 2008 state of the art (the paper's baseline) or selectively enable
//! the techniques the paper identifies as missing (the ablations).

pub mod access;
pub mod alias;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod constprop;
pub mod ddtest;
pub mod gsa;
pub mod incr;
pub mod induction;
pub mod inline;
pub mod loops;
pub mod lru;
pub mod privatize;
pub mod ranges;
pub mod reduction;
pub mod summary;
pub mod symx;

pub use access::{AccessKind, ArrayAccess, LoopAccesses};
pub use alias::AliasInfo;
pub use cache::{caps_bits, AnalysisCache, LoopRecordStore, LoopStoreStats, ProgramFacts};
pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use ddtest::{DdOutcome, Dependence, DependenceKind};
pub use loops::{LoopForest, LoopId, LoopInfo, NestingMetrics};
pub use lru::{BoundedLru, SyncLru};
pub use symx::SymMap;

/// Enabling techniques that may be switched on or off. The paper's §3
/// hindrance categories map one-to-one onto these switches: a loop whose
/// parallelization needs a disabled capability lands in the matching
/// category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Cross-language analysis: look inside `!LANG C` units. Off in the
    /// baseline (§2.4 — Polaris cannot analyze the C parts of SEISMIC).
    pub multilingual: bool,
    /// Interprocedural no-alias proofs for subroutine array parameters
    /// from call-site inspection. Off in the baseline (the `aliasing`
    /// hindrance).
    pub interprocedural_noalias: bool,
    /// Value ranges for variables set from input decks, propagated from
    /// `SEISPREP`-style relation code. Off in the baseline (the
    /// `rangeless` hindrance).
    pub input_deck_ranges: bool,
    /// Analysis of subscripted subscripts (injectivity of permutation /
    /// gather index arrays). Off in the baseline (the `indirection`
    /// hindrance).
    pub indirection_analysis: bool,
    /// Extended symbolic simplification (nonlinear products, min/max
    /// reasoning, symbolic division). Off in the baseline (the
    /// `symbol analysis` hindrance).
    pub extended_symbolic: bool,
    /// Linearized comparison of array accesses whose declared and used
    /// shapes differ (reshaped COMMON / argument arrays). Off in the
    /// baseline (the `access representation` hindrance).
    pub reshaped_access: bool,
    /// Guarded array regions / gated conditions in dependence analysis
    /// (multifunctionality, §2.1). Off in the baseline.
    pub guarded_regions: bool,
}

impl Capabilities {
    /// The 2008 state of the art the paper measures (Polaris).
    pub fn polaris2008() -> Self {
        Capabilities {
            multilingual: false,
            interprocedural_noalias: false,
            input_deck_ranges: false,
            indirection_analysis: false,
            extended_symbolic: false,
            reshaped_access: false,
            guarded_regions: false,
        }
    }

    /// Everything on — the hypothetical compiler the paper calls for.
    pub fn full() -> Self {
        Capabilities {
            multilingual: true,
            interprocedural_noalias: true,
            input_deck_ranges: true,
            indirection_analysis: true,
            extended_symbolic: true,
            reshaped_access: true,
            guarded_regions: true,
        }
    }
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities::polaris2008()
    }
}
