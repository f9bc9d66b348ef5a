//! Loop records: what one loop's analysis concluded, as the driver
//! merges it ([`AnalyzedLoop`]) and as a later compile splices it
//! ([`SplicedLoop`], with the JSON codec the persistent store uses).

use std::fmt::Debug;
use std::time::Duration;

use crate::classify::Classification;
use crate::jsonio::{JVal, Json};
use crate::report::PassId;
use apar_analysis::loops::LoopInfo;
use apar_minifort::ast::{LoopDirective, RedOp, Schedule};

/// What a worker learned about one analyzable loop.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AnalyzedLoop {
    pub(crate) var: String,
    pub(crate) classification: Classification,
    /// Directive to apply if the merge pass finds no parallel ancestor
    /// (parallel or speculative candidates only).
    pub(crate) candidate: Option<LoopDirective>,
    pub(crate) pairs_tested: usize,
    pub(crate) ops_spent: u64,
    /// True when a budget trip (watchdog or dependence test) decided
    /// the classification.
    pub(crate) budget_tripped: bool,
}

/// A stored per-loop analysis outcome: everything the merge pass needs
/// to reproduce the loop's `LoopReport` and op charges bit-for-bit,
/// plus a structural echo of the loop it was computed for, re-verified
/// before every splice (`matches`). Wall time is not stored — a splice
/// bills zero wall, which report signatures deliberately exclude.
///
/// Public (with private fields) so the service's persistent store can
/// serialize records it finds in the shared store and re-admit parsed
/// ones after a restart; [`SplicedLoop::from_json`] is the only way to
/// construct one externally, and it validates every field, so a record
/// recovered from disk is structurally as trustworthy as a live one —
/// and still gets the same `matches` re-verification before any splice.
#[derive(Clone, Debug, PartialEq)]
pub struct SplicedLoop {
    // Structural echo.
    unit: String,
    loop_var: String,
    depth: usize,
    target: Option<String>,
    calls: Vec<String>,
    analyzed: AnalyzedLoop,
    /// `(pass, ops)` of every charge, in recorded order.
    charges: Vec<(PassId, u64)>,
}

impl SplicedLoop {
    pub(crate) fn capture(
        info: &LoopInfo,
        analyzed: &AnalyzedLoop,
        charges: &[(PassId, Duration, u64)],
    ) -> Self {
        SplicedLoop {
            unit: info.id.unit.clone(),
            loop_var: info.var.clone(),
            depth: info.depth,
            target: info.target.clone(),
            calls: info.calls.clone(),
            analyzed: analyzed.clone(),
            charges: charges.iter().map(|&(p, _, ops)| (p, ops)).collect(),
        }
    }

    /// Does this record's structural echo match the live loop? A
    /// mismatch means the content key collided or the stored record is
    /// stale — the splice is refused and the loop re-analyzed.
    pub(crate) fn matches(&self, info: &LoopInfo) -> bool {
        self.unit == info.id.unit
            && self.loop_var == info.var
            && self.depth == info.depth
            && self.target == info.target
            && self.calls == info.calls
    }

    /// The stored charges, at zero wall, and the stored analysis.
    pub(crate) fn replay(&self) -> (Vec<(PassId, Duration, u64)>, AnalyzedLoop) {
        let charges = self
            .charges
            .iter()
            .map(|&(p, ops)| (p, Duration::ZERO, ops));
        (charges.collect(), self.analyzed.clone())
    }

    /// Serializes the record for the persistent store. `None`-valued
    /// options are omitted rather than rendered as `null` (the renderer
    /// has no null); `from_json` treats absence as `None`.
    pub fn to_json(&self) -> Json {
        let strs = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
        let tagged = |tag: &dyn Debug, v: String| Json::Arr(vec![tag_of(tag), Json::Str(v)]);
        let a = &self.analyzed;
        let mut fields = vec![
            ("unit", Json::Str(self.unit.clone())),
            ("loop_var", Json::Str(self.loop_var.clone())),
            ("depth", Json::Int(self.depth as i64)),
            ("calls", strs(&self.calls)),
            ("var", Json::Str(a.var.clone())),
            ("class", tag_of(&a.classification)),
            ("pairs_tested", Json::Int(a.pairs_tested as i64)),
            ("ops_spent", Json::Str(a.ops_spent.to_string())),
            ("budget_tripped", Json::Bool(a.budget_tripped)),
            (
                "charges",
                Json::Arr(
                    self.charges
                        .iter()
                        .map(|(p, ops)| tagged(p, ops.to_string()))
                        .collect(),
                ),
            ),
        ];
        if let Some(t) = &self.target {
            fields.push(("target", Json::Str(t.clone())));
        }
        if let Some(d) = &a.candidate {
            let mut dir = vec![
                ("private", strs(&d.private)),
                (
                    "reductions",
                    Json::Arr(
                        d.reductions
                            .iter()
                            .map(|(op, v)| tagged(op, v.clone()))
                            .collect(),
                    ),
                ),
                ("schedule", tag_of(&d.schedule)),
                ("collapse", Json::Int(d.collapse as i64)),
                ("speculative", Json::Bool(d.speculative)),
            ];
            if let Some(w) = &d.writes {
                dir.push(("writes", strs(w)));
            }
            fields.push(("candidate", Json::Obj(dir)));
        }
        Json::Obj(fields)
    }

    /// Reconstructs a record from a parsed store payload. Total:
    /// any missing field, wrong type, or unknown enum tag returns
    /// `None` — a checksum-valid but semantically corrupt record is
    /// refused here, before it can reach the shared store.
    pub fn from_json(v: &JVal) -> Option<SplicedLoop> {
        let strs = |v: &JVal| -> Option<Vec<String>> {
            v.as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let candidate = match v.get("candidate") {
            None => None,
            Some(d) => Some(LoopDirective {
                private: strs(d.get("private")?)?,
                reductions: d
                    .get("reductions")?
                    .as_arr()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr()?;
                        let op = from_tag(&RedOp::ALL, pair.first()?.as_str()?)?;
                        Some((op, pair.get(1)?.as_str()?.to_string()))
                    })
                    .collect::<Option<Vec<_>>>()?,
                schedule: from_tag(&Schedule::ALL, d.str_field("schedule")?)?,
                collapse: u8::try_from(d.get("collapse")?.as_i64()?).ok()?,
                speculative: d.get("speculative")?.as_bool()?,
                writes: match d.get("writes") {
                    None => None,
                    Some(w) => Some(strs(w)?),
                },
            }),
        };
        Some(SplicedLoop {
            unit: v.str_field("unit")?.to_string(),
            loop_var: v.str_field("loop_var")?.to_string(),
            depth: usize::try_from(v.get("depth")?.as_i64()?).ok()?,
            target: v.str_field("target").map(str::to_string),
            calls: strs(v.get("calls")?)?,
            analyzed: AnalyzedLoop {
                var: v.str_field("var")?.to_string(),
                classification: from_tag(&Classification::ALL, v.str_field("class")?)?,
                candidate,
                pairs_tested: usize::try_from(v.get("pairs_tested")?.as_i64()?).ok()?,
                ops_spent: v.u64_field("ops_spent")?,
                budget_tripped: v.get("budget_tripped")?.as_bool()?,
            },
            charges: v
                .get("charges")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr()?;
                    let p = from_tag(&PassId::ALL, pair.first()?.as_str()?)?;
                    Some((p, pair.get(1)?.as_u64()?))
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// An enum value as the store writes it: its `Debug` name.
fn tag_of(v: &dyn Debug) -> Json {
    Json::Str(format!("{v:?}"))
}

/// Inverse of [`tag_of`]: the member of `all` that prints as `tag`. A
/// variant is decodable exactly when its type's `ALL` table lists it,
/// which `every_variant_round_trips` walks.
fn from_tag<T: Copy + Debug>(all: &[T], tag: &str) -> Option<T> {
    all.iter().copied().find(|v| format!("{v:?}") == tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::parse;

    fn record(
        classification: Classification,
        pass: PassId,
        target: Option<&str>,
        candidate: Option<LoopDirective>,
    ) -> SplicedLoop {
        SplicedLoop {
            unit: "P".into(),
            loop_var: "I".into(),
            depth: 2,
            target: target.map(str::to_string),
            calls: vec!["SET".into(), "GET".into()],
            analyzed: AnalyzedLoop {
                var: "I".into(),
                classification,
                candidate,
                pairs_tested: 7,
                ops_spent: u64::MAX - 1,
                budget_tripped: classification == Classification::Complexity,
            },
            charges: vec![(pass, 41), (PassId::Others, 0)],
        }
    }

    fn round_trip(rec: &SplicedLoop) -> Option<SplicedLoop> {
        SplicedLoop::from_json(&parse(&rec.to_json().render_compact())?)
    }

    #[test]
    fn every_variant_round_trips() {
        let directive = |op, schedule, writes: Option<&[&str]>| LoopDirective {
            private: vec!["T".into()],
            reductions: vec![(op, "S".into())],
            schedule,
            collapse: 3,
            speculative: writes.is_some(),
            writes: writes.map(|w| w.iter().map(|s| s.to_string()).collect()),
        };
        let mut records = Vec::new();
        for c in Classification::ALL {
            for p in PassId::ALL {
                records.push(record(c, p, None, None));
                records.push(record(c, p, Some("TGT"), None));
            }
        }
        for op in RedOp::ALL {
            for schedule in Schedule::ALL {
                for writes in [None, Some(&["A", "K"][..])] {
                    let d = directive(op, schedule, writes);
                    records.push(record(
                        Classification::Autoparallelized,
                        PassId::DataDependence,
                        Some("TGT"),
                        Some(d),
                    ));
                }
            }
        }
        for rec in &records {
            assert_eq!(round_trip(rec).as_ref(), Some(rec));
        }
    }

    /// The `ALL` tables are what `from_tag` can decode. These matches
    /// have no `_` arm: a new variant stops compiling here, next to the
    /// reminder to list it.
    #[test]
    fn all_tables_list_every_variant() {
        for c in Classification::ALL {
            match c {
                Classification::Autoparallelized
                | Classification::Aliasing
                | Classification::Rangeless
                | Classification::Indirection
                | Classification::SymbolAnalysis
                | Classification::AccessRepresentation
                | Classification::Complexity
                | Classification::RealDependence
                | Classification::Control => {}
            }
        }
        for p in PassId::ALL {
            match p {
                PassId::DataDependence
                | PassId::Privatization
                | PassId::InductionSubstitution
                | PassId::InlineExpansion
                | PassId::GsaTranslation
                | PassId::InterproceduralConstProp
                | PassId::Reduction
                | PassId::Others => {}
            }
        }
        for op in RedOp::ALL {
            match op {
                RedOp::Add | RedOp::Mul | RedOp::Min | RedOp::Max => {}
            }
        }
        for s in Schedule::ALL {
            match s {
                Schedule::Static | Schedule::Cyclic => {}
            }
        }
    }

    #[test]
    fn an_unknown_tag_or_a_missing_field_is_refused() {
        let d = LoopDirective {
            reductions: vec![(RedOp::Max, "S".into())],
            writes: Some(vec!["A".into()]),
            ..LoopDirective::default()
        };
        let rec = record(
            Classification::Rangeless,
            PassId::Privatization,
            Some("TGT"),
            Some(d),
        );
        let text = rec.to_json().render_compact();
        assert_eq!(round_trip(&rec), Some(rec));

        // One tag at a time, misspelt.
        for tag in ["Rangeless", "Privatization", "Max", "Static"] {
            assert_eq!(text.matches(&format!("\"{tag}\"")).count(), 1, "{tag}");
            let bad = text.replace(&format!("\"{tag}\""), &format!("\"{tag}x\""));
            assert!(SplicedLoop::from_json(&parse(&bad).expect("json")).is_none());
        }
        // One required field at a time, renamed away. `target`,
        // `candidate` and `writes` are optional by design.
        for field in [
            "unit",
            "loop_var",
            "depth",
            "calls",
            "var",
            "class",
            "pairs_tested",
            "ops_spent",
            "budget_tripped",
            "charges",
            "private",
            "reductions",
            "schedule",
            "collapse",
            "speculative",
        ] {
            let key = format!("\"{field}\":");
            assert_eq!(text.matches(&key).count(), 1, "{field}");
            let bad = text.replace(&key, &format!("\"{field}_\":"));
            assert!(
                SplicedLoop::from_json(&parse(&bad).expect("json")).is_none(),
                "{field}"
            );
        }
    }
}
