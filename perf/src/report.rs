//! Run header, metric tables on standard output, `out/results.json`,
//! and the `all` and `selfcheck` drivers that run each workload in a
//! child process of its own.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use apar_core::jsonio::{parse, JVal, Json};

use crate::metrics::{find, Kind, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::{Outcome, SETUP_REPS, SHADOW_EVERY};
use crate::Cli;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What a result was measured on.
pub struct Header {
    pub commit: String,
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
    pub rustc: String,
    /// False for `--quick` runs: same code paths, a tenth of the work.
    pub comparable: bool,
}

impl Header {
    pub fn collect(seed: u64, seconds: u64, quick: bool) -> Self {
        Header {
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            seed,
            seconds,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            comparable: !quick,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# apar-perf commit={} seed={} seconds={} nproc={} rustc=\"{}\" comparable={} \
             clients=1 workers=1 compiler_threads=1 setup_reps={} shadow_every={}",
            self.commit,
            self.seed,
            self.seconds,
            self.nproc,
            self.rustc,
            self.comparable,
            SETUP_REPS,
            SHADOW_EVERY
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("commit", Json::Str(self.commit.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("seconds", Json::Int(self.seconds as i64)),
            ("nproc", Json::Int(self.nproc as i64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("comparable", Json::Bool(self.comparable)),
            ("setup_reps", Json::Int(SETUP_REPS as i64)),
            ("shadow_every", Json::Int(SHADOW_EVERY as i64)),
        ])
    }
}

fn samples_of(def: &MetricDef, ops: usize) -> usize {
    match def.name {
        "setup_s" => SETUP_REPS,
        "peak_rss_mb" => 1,
        _ => ops,
    }
}

/// Every metric of `defs` by name with unit, direction, sample count
/// and bound.
pub fn print_metrics(workload: &str, outcome: &Outcome, defs: &[MetricDef]) {
    let consts: Vec<String> = outcome
        .constants
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# workload={} ops={} op_tail=p{} {}",
        workload,
        outcome.ops,
        outcome.tail_percentile,
        consts.join(" ")
    );
    println!(
        "{:<40} {:>16} {:<8} {:<7} {:>8} {:>6}",
        "metric", "value", "unit", "better", "samples", "bound"
    );
    for d in defs {
        let v = outcome.metrics.get(d.name).unwrap_or(0.0);
        let bound = match d.kind {
            Kind::Count => "exact".to_string(),
            Kind::Wall => format!("{:.0}%", d.bound * 100.0),
        };
        println!(
            "{:<40} {:>16.6} {:<8} {:<7} {:>8} {:>6}",
            d.name,
            v,
            d.unit,
            d.better.label(),
            samples_of(d, outcome.ops),
            bound
        );
    }
}

/// What the result line has no room for.
pub fn detail(workload: &str, outcome: &Outcome, wall_s: f64) -> Json {
    Json::Obj(vec![
        ("workload", Json::Str(workload.into())),
        ("wall_s", Json::Num(wall_s)),
        ("ops", Json::Int(outcome.ops as i64)),
        ("tail_percentile", Json::Num(outcome.tail_percentile)),
        (
            "constants",
            Json::Arr(
                outcome
                    .constants
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.to_string()), Json::Int(*v as i64)]))
                    .collect(),
            ),
        ),
    ])
}

/// One child's answer.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    detail: JVal,
}

/// Runs one workload in a child process, relays what it prints, and
/// reads its last two lines.
fn child(workload: &str, opts: &Cli, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (result, shown) = lines
        .split_last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    // The set's own header already says what the child's would.
    for l in shown
        .iter()
        .filter(|l| !l.starts_with("DETAIL ") && !l.starts_with("# apar-perf "))
    {
        println!("{l}");
    }
    let doc =
        parse(result).ok_or_else(|| format!("{workload}: last line is not JSON: {result:.80}"))?;
    let detail = shown
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("DETAIL ").and_then(parse))
        .ok_or_else(|| format!("{workload}: no DETAIL line"))?;
    let mut metrics = BTreeMap::new();
    if let Some(JVal::Obj(fields)) = doc.get("metrics") {
        for (name, v) in fields {
            let def = find(name).ok_or_else(|| format!("{workload}: unknown metric {name}"))?;
            let value = v
                .get("value")
                .and_then(JVal::as_f64)
                .ok_or_else(|| format!("{name}: no value"))?;
            metrics.insert(def.name, value);
        }
    }
    Ok(Child {
        correct: doc.get("correct").and_then(JVal::as_bool).unwrap_or(false)
            && out.status.success(),
        attempted: doc.u64_field("attempted").unwrap_or(0),
        failed: doc.u64_field("failed").unwrap_or(0),
        metrics,
        detail,
    })
}

/// One workload's untraced run and, when asked for, its traced run.
struct Row {
    name: &'static str,
    plain: Child,
    traced: Option<Child>,
    wall_s: f64,
}

impl Row {
    fn correct(&self) -> bool {
        self.plain.correct && self.traced.as_ref().is_none_or(|t| t.correct)
    }

    /// Traced median over untraced median, minus one.
    fn trace_overhead_share(&self) -> Option<f64> {
        let traced = self.traced.as_ref()?.metrics.get("trace.op_p50_ms")?;
        Some(traced / self.plain.metrics.get("op_p50_ms")? - 1.0)
    }

    /// Every metric this row measured: end-to-end from the untraced
    /// run only, per-layer from the traced one.
    fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.plain
            .metrics
            .iter()
            .chain(self.traced.iter().flat_map(|t| t.metrics.iter()))
            .map(|(k, v)| (*k, *v))
    }

    fn to_json(&self) -> Json {
        let table = |defs: &[MetricDef], from: &Child, bounded: bool| {
            Json::Obj(
                defs.iter()
                    .map(|d| {
                        let mut fields = vec![
                            (
                                "value",
                                Json::Num(from.metrics.get(d.name).copied().unwrap_or(0.0)),
                            ),
                            ("unit", Json::Str(d.unit.into())),
                            ("better", Json::Str(d.better.label().into())),
                        ];
                        if bounded {
                            fields.push(("bound", Json::Num(d.bound)));
                            let ops = from.detail.u64_field("ops").unwrap_or(0) as usize;
                            fields.push(("samples", Json::Int(samples_of(d, ops) as i64)));
                        }
                        (d.name, Json::Obj(fields))
                    })
                    .collect(),
            )
        };
        let constants = self
            .plain
            .detail
            .get("constants")
            .and_then(JVal::as_arr)
            .unwrap_or_default();
        let mut fields = vec![
            ("name", Json::Str(self.name.into())),
            ("wall_s", Json::Num(self.wall_s)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.plain.attempted as i64)),
            ("failed", Json::Int(self.plain.failed as i64)),
            (
                "ops",
                Json::Int(self.plain.detail.u64_field("ops").unwrap_or(0) as i64),
            ),
            (
                "tail_percentile",
                Json::Num(
                    self.plain
                        .detail
                        .get("tail_percentile")
                        .and_then(JVal::as_f64)
                        .unwrap_or(50.0),
                ),
            ),
            (
                "constants",
                Json::Arr(
                    constants
                        .iter()
                        .filter_map(|c| {
                            let pair = c.as_arr()?;
                            Some(Json::Arr(vec![
                                Json::Str(pair.first()?.as_str()?.to_string()),
                                Json::Int(pair.get(1)?.as_i64()?),
                            ]))
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", table(&END_TO_END, &self.plain, true)),
        ];
        if let Some(t) = &self.traced {
            fields.push(("per_layer", table(&PER_LAYER, t, false)));
            fields.push((
                "trace_overhead_share",
                Json::Num(self.trace_overhead_share().unwrap_or(0.0)),
            ));
        }
        Json::Obj(fields)
    }
}

fn run_set(opts: &Cli) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let started = Instant::now();
        let plain = child(w.name, opts, false)?;
        let traced = if opts.trace {
            Some(child(w.name, opts, true)?)
        } else {
            None
        };
        let row = Row {
            name: w.name,
            plain,
            traced,
            wall_s: started.elapsed().as_secs_f64(),
        };
        if let Some(share) = row.trace_overhead_share() {
            println!("# {} trace_overhead_share={:+.4}", w.name, share);
        }
        println!(
            "# {} wall_s={:.1} correct={}",
            w.name,
            row.wall_s,
            row.correct()
        );
        rows.push(row);
    }
    Ok(rows)
}

pub fn results_json(header: &Header, rows_json: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("header", header.to_json()),
        ("workloads", Json::Arr(rows_json)),
    ])
}

/// `all`: every workload, then `out/results.json`.
pub fn all(opts: &Cli) -> Result<ExitCode, String> {
    let header = Header::collect(opts.seed, opts.seconds, opts.quick);
    println!("{}", header.line());
    let rows = run_set(opts)?;
    let out = crate::out_dir();
    let path = out.join("results.json");
    let doc = results_json(&header, rows.iter().map(Row::to_json).collect());
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, doc.render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| !r.correct())
        .map(|r| r.name)
        .collect();
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("apar-perf: incorrect results in {}", failed.join(" "));
        Ok(ExitCode::FAILURE)
    }
}

/// Relative distance of `b` from `a`; 0 when both are 0.
fn spread(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// What two sets of one seed disagree on, one line per finding.
/// Counts must repeat exactly; end-to-end walls must agree within
/// their bound. Per-layer walls are printed with their spread but do
/// not fail the check: several are differences of medians near zero.
fn disagreements(first: &[Row], second: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let later: BTreeMap<_, _> = b.values().collect();
        for (name, va) in a.values() {
            let (def, vb) = (find(name).expect("from the tables"), later[name]);
            let gated = END_TO_END.iter().any(|d| d.name == name);
            match def.kind {
                Kind::Count if va != vb => {
                    out.push(format!("{}/{name}: count {va} then {vb}", a.name))
                }
                Kind::Wall if gated && spread(va, vb) > def.bound => out.push(format!(
                    "{}/{name}: {va} then {vb}, {:.1}% apart, bound {:.0}%",
                    a.name,
                    spread(va, vb) * 100.0,
                    def.bound * 100.0
                )),
                _ => {}
            }
        }
    }
    out
}

/// `selfcheck`: the set twice on the default seed and once on another.
pub fn selfcheck(opts: &Cli) -> Result<ExitCode, String> {
    let set = |seed| Cli {
        seed,
        trace: true,
        ..opts.clone()
    };
    let header = Header::collect(opts.seed, opts.seconds, opts.quick);
    println!("{}", header.line());
    let (a, b, c) = (
        run_set(&set(opts.seed))?,
        run_set(&set(opts.seed))?,
        run_set(&set(opts.seed + 1))?,
    );

    println!("# spread per metric: same seed twice | next seed | bound");
    for ((ra, rb), rc) in a.iter().zip(&b).zip(&c) {
        let (again, other): (BTreeMap<_, _>, BTreeMap<_, _>) =
            (rb.values().collect(), rc.values().collect());
        for (name, va) in ra.values() {
            let def = find(name).expect("from the tables");
            let bound = match def.kind {
                Kind::Count => "exact".to_string(),
                Kind::Wall => format!("{:.0}%", def.bound * 100.0),
            };
            println!(
                "{:<17} {:<40} {:>9.3}% {:>9.3}% {:>6}",
                ra.name,
                name,
                spread(va, again[name]) * 100.0,
                spread(va, other[name]) * 100.0,
                bound
            );
        }
    }
    let mut findings = disagreements(&a, &b);
    for r in a.iter().chain(&b).chain(&c).filter(|r| !r.correct()) {
        findings.push(format!("{}: incorrect results", r.name));
    }
    if findings.is_empty() {
        println!(
            "# selfcheck passed: counts repeat exactly, end-to-end walls agree within their bounds"
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &findings {
            eprintln!("selfcheck: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child_with(metrics: &[(&'static str, f64)]) -> Child {
        Child {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: metrics.iter().copied().collect(),
            detail: parse(r#"{"ops":12,"tail_percentile":75.0,"constants":[["K",4]]}"#)
                .expect("json"),
        }
    }

    fn row(p50: f64, hits: f64) -> Row {
        Row {
            name: "cold_batch",
            plain: child_with(&[("op_p50_ms", p50), ("setup_s", 0.5)]),
            traced: Some(child_with(&[
                ("trace.op_p50_ms", p50 * 1.02),
                ("service.result_hits", hits),
            ])),
            wall_s: 1.5,
        }
    }

    #[test]
    fn results_round_trip_through_jsonio() {
        let header = Header {
            commit: "abc".into(),
            seed: u64::MAX,
            seconds: 10,
            nproc: 2,
            rustc: "rustc 1.0".into(),
            comparable: true,
        };
        let text = results_json(&header, vec![row(100.0, 8.0).to_json()]).render();
        let doc = parse(&text).expect("results.json parses");
        let h = doc.get("header").expect("header");
        assert_eq!(
            h.u64_field("seed"),
            Some(u64::MAX),
            "a 64-bit seed survives as a string"
        );
        assert_eq!(h.get("comparable").and_then(JVal::as_bool), Some(true));
        let w = &doc
            .get("workloads")
            .and_then(JVal::as_arr)
            .expect("workloads")[0];
        assert_eq!(w.str_field("name"), Some("cold_batch"));
        let p50 = w
            .get("end_to_end")
            .and_then(|e| e.get("op_p50_ms"))
            .expect("op_p50_ms");
        assert_eq!(p50.get("value").and_then(JVal::as_f64), Some(100.0));
        assert_eq!(p50.u64_field("samples"), Some(12));
        assert_eq!(
            p50.get("bound").and_then(JVal::as_f64),
            Some(find("op_p50_ms").expect("def").bound)
        );
        let layers = w.get("per_layer").expect("per_layer");
        assert_eq!(
            layers
                .get("service.result_hits")
                .and_then(|m| m.get("value"))
                .and_then(JVal::as_f64),
            Some(8.0)
        );
        let share = w
            .get("trace_overhead_share")
            .and_then(JVal::as_f64)
            .expect("share");
        assert!((share - 0.02).abs() < 1e-9);
        assert_eq!(
            w.get("constants").and_then(JVal::as_arr).map(<[JVal]>::len),
            Some(1)
        );
    }

    #[test]
    fn selfcheck_rule_counts_exact_walls_within_bound() {
        assert!(disagreements(&[row(100.0, 8.0)], &[row(104.0, 8.0)]).is_empty());
        let moved = disagreements(&[row(100.0, 8.0)], &[row(150.0, 8.0)]);
        assert_eq!(moved.len(), 1, "{moved:?}");
        assert!(moved[0].contains("op_p50_ms"));
        let counted = disagreements(&[row(100.0, 8.0)], &[row(100.0, 9.0)]);
        assert_eq!(counted.len(), 1, "{counted:?}");
        assert!(counted[0].contains("service.result_hits"));
    }
}
