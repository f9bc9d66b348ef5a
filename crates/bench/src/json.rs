//! JSON conversions for the figure artifacts.
//!
//! The value tree and renderer live in [`apar_core::jsonio`] (shared
//! with the service layer); this module re-exports them and keeps the
//! `ToJson` impls for bench-local row types.

use crate::ablation::AblationRow;
use crate::exec_bench::{ExecBenchData, ExecBenchRow};
use crate::fig1::{Fig1Data, Fig1Row};
use crate::fig2::Fig2Row;
use crate::fig4::Fig4Data;
use crate::fig5::Fig5Row;
use crate::spec::{DynamicRow, ReachRow, SpecReport};

pub use apar_core::jsonio::{Json, ToJson};

impl ToJson for ExecBenchRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite", self.suite.to_json()),
            ("loops", self.loops.to_json()),
            ("emitted", self.emitted.to_json()),
            ("not_emittable", self.not_emittable.to_json()),
            ("reparse_diags", self.reparse_diags.to_json()),
            ("serial_virt_s", self.serial_virt_s.to_json()),
            ("auto_virt_s", self.auto_virt_s.to_json()),
            ("speedup", self.speedup.to_json()),
            ("regions", self.regions.to_json()),
            ("correct", self.correct.to_json()),
        ])
    }
}

impl ToJson for ExecBenchData {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("threads", self.threads.to_json()),
            ("all_correct", self.all_correct().to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("profile", self.profile.to_json()),
            ("per_app", self.per_app.to_json()),
            ("total", self.total.to_json()),
        ])
    }
}

impl ToJson for Fig1Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("component", self.component.to_json()),
            ("serial_s", self.serial_s.to_json()),
            ("mpi_s", self.mpi_s.to_json()),
            ("openmp_s", self.openmp_s.to_json()),
            ("polaris_s", self.polaris_s.to_json()),
            ("serial_wall_s", self.serial_wall_s.to_json()),
            ("polaris_regions", self.polaris_regions.to_json()),
        ])
    }
}

impl ToJson for Fig1Data {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("size", self.size.to_json()),
            ("threads", self.threads.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for Fig2Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("app", self.app.to_json()),
            ("statements", self.statements.to_json()),
            ("total_seconds", self.total_seconds.to_json()),
            ("total_ops", self.total_ops.to_json()),
            (
                "seconds_per_statement",
                self.seconds_per_statement.to_json(),
            ),
            ("ops_per_statement", self.ops_per_statement.to_json()),
            ("per_pass", self.per_pass.to_json()),
        ])
    }
}

impl ToJson for Fig4Data {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("perfect", self.perfect.to_json()),
            ("seismic", self.seismic.to_json()),
        ])
    }
}

impl ToJson for Fig5Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("app", self.app.to_json()),
            ("total_targets", self.total_targets.to_json()),
            ("counts", self.counts.to_json()),
        ])
    }
}

impl ToJson for ReachRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("profile", self.profile.to_json()),
            ("per_app", self.per_app.to_json()),
            ("total_static", self.total_static.to_json()),
            ("total_speculative", self.total_speculative.to_json()),
        ])
    }
}

impl ToJson for DynamicRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario", self.scenario.to_json()),
            ("baseline_virt_s", self.baseline_virt_s.to_json()),
            ("spec_virt_s", self.spec_virt_s.to_json()),
            ("speculations", self.speculations.to_json()),
            ("rollbacks", self.rollbacks.to_json()),
        ])
    }
}

impl ToJson for SpecReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("reach", self.reach.to_json()),
            ("dynamic", self.dynamic.to_json()),
        ])
    }
}
