//! The autopar parallelizing compiler — the reproduction's counterpart
//! of Polaris.
//!
//! [`pipeline::Compiler`] drives the full pass sequence of Figure 2 —
//! GSA translation, interprocedural constant propagation, induction
//! variable substitution, inline expansion, data-dependence testing
//! (Range Test + GCD), array/scalar privatization, and reduction
//! recognition — over a MiniFort program, recording wall time *and*
//! deterministic symbolic-op counts per pass.
//!
//! Two artifacts drive the paper's experiments:
//!
//! * a [`report::CompileReport`] with per-pass timings (Figures 2/3),
//!   per-loop [`classify::Classification`]s (Figure 5), and nesting
//!   metrics for target loops (Figure 4);
//! * the transformed program itself, with `auto_par` annotations on the
//!   loops the compiler parallelized — executable by `apar-runtime` to
//!   produce the "Polaris" bars of Figure 1.
//!
//! The compiler's precision frontier is set by a
//! [`profile::CompilerProfile`]: [`profile::CompilerProfile::polaris2008`]
//! reproduces the paper's baseline; individual capability flags serve as
//! ablations for the "missing enabling techniques" of §3.

pub mod cancel;
pub mod classify;
pub mod fanout;
pub mod jsonio;
pub mod nesting;
pub mod pipeline;
pub mod profile;
pub mod report;
pub mod splice;

pub use cancel::CancelToken;
pub use classify::Classification;
pub use fanout::fan_out;
pub use pipeline::{CompileResult, Compiler, EmitResult, LoopReport};
pub use profile::CompilerProfile;
pub use report::{CompileReport, DegradeTier, PassId};
pub use splice::SplicedLoop;

pub use apar_analysis::Capabilities;
