//! `apar-perf` — the repository's benchmark.
//!
//! ```text
//! apar-perf --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! apar-perf all [--seed <n>] [--seconds <n>] [--trace] [--quick]
//! apar-perf selfcheck [--seconds <n>] [--quick]
//! apar-perf manifest
//! ```
//!
//! The first form runs one workload in this process and ends its
//! standard output with the result line `BENCHMARK.json` describes.
//! `all` runs every workload, each in a child process of its own, and
//! writes `out/results.json`; `selfcheck` runs the set three times and
//! compares; `manifest` prints `BENCHMARK.json` from the tables.

mod check;
mod inputs;
mod metrics;
mod report;
mod shadow;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use apar_core::jsonio::Json;

use check::Gate;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Outcome, RunOpts};

pub const DEFAULT_SEED: u64 = 20_080_908;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// 0 when every checked operation was right, 1 otherwise.
pub fn exit_code(gate: &Gate) -> u8 {
    u8::from(!gate.correct())
}

/// Where trace files, results and store directories go: `perf/out`
/// of the checkout the command runs in, else next to this crate.
pub fn out_dir() -> PathBuf {
    let here = PathBuf::from("perf");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

type Runner = fn(&RunOpts) -> Outcome;

/// The runner of each workload, in the order of [`WORKLOADS`].
const RUNNERS: [(&str, Runner); 6] = [
    (workloads::cold_batch::NAME, workloads::cold_batch::run),
    (workloads::edit_stream::NAME, workloads::edit_stream::run),
    (workloads::warm_hits::NAME, workloads::warm_hits::run),
    (
        workloads::durable_restart::NAME,
        workloads::durable_restart::run,
    ),
    (
        workloads::restart_recovery::NAME,
        workloads::restart_recovery::run,
    ),
    (workloads::exec_suites::NAME, workloads::exec_suites::run),
];

/// Command-line options after the subcommand.
#[derive(Clone, Debug)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?.to_string()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            // `--trace 1` from the driver, bare `--trace` by hand.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.quick {
        cli.seconds = 1;
    }
    Ok(cli)
}

/// One workload in this process: the contract's form.
fn single(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.workload.as_deref().ok_or("no --workload given")?;
    let opts = RunOpts {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: out_dir(),
        corrupt_reference: false,
    };
    let (_, run) = RUNNERS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(" "))
    })?;
    let started = Instant::now();
    let outcome = run(&opts);
    let wall_s = started.elapsed().as_secs_f64();

    println!(
        "{}",
        report::Header::collect(cli.seed, cli.seconds, cli.quick).line()
    );
    let defs = if cli.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    report::print_metrics(name, &outcome, defs);
    println!(
        "DETAIL {}",
        report::detail(name, &outcome, wall_s).render_compact()
    );
    let line = Json::Obj(vec![
        ("correct", Json::Bool(outcome.gate.correct())),
        ("attempted", Json::Int(outcome.gate.attempted as i64)),
        ("failed", Json::Int(outcome.gate.failed as i64)),
        ("metrics", outcome.metrics.to_json(defs)),
    ]);
    println!("{}", line.render_compact());
    Ok(ExitCode::from(exit_code(&outcome.gate)))
}

fn manifest() -> Json {
    let metric = |d: &metrics::MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::Str(d.name.into())),
            ("unit", Json::Str(d.unit.into())),
            ("better", Json::Str(d.better.label().into())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(d.bound)));
        }
        Json::Obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    Json::Obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::Str(s.to_string())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("perf".into())])),
        ("run_seconds", Json::Int(DEFAULT_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("all" | "selfcheck" | "manifest")) => (s, &args[1..]),
        _ => ("single", &args[..]),
    };
    let result = parse_cli(rest).and_then(|cli| match sub {
        "all" => report::all(&cli),
        "selfcheck" => report::selfcheck(&cli),
        "manifest" => {
            println!("{}", manifest().render());
            Ok(ExitCode::SUCCESS)
        }
        _ => single(&cli),
    });
    result.unwrap_or_else(|e| {
        eprintln!("apar-perf: {e}");
        eprintln!("usage: apar-perf --workload <name> --seed <n> --seconds <n> --trace <0|1>");
        eprintln!(
            "       apar-perf all|selfcheck [--seed <n>] [--seconds <n>] [--trace] [--quick]"
        );
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let c = cli(&[
            "--workload",
            "cold_batch",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("cold_batch"), 42, 10, true)
        );
        assert!(!cli(&["--trace", "0"]).expect("parses").trace);
        assert!(cli(&["--trace", "--quick"]).expect("parses").trace);
        assert_eq!(cli(&["--quick"]).expect("parses").seconds, 1);
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    #[test]
    fn every_listed_workload_has_its_runner() {
        let listed: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        let runnable: Vec<_> = RUNNERS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, runnable);
    }

    #[test]
    fn manifest_is_what_the_repository_commits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(committed.trim_end(), manifest().render());
    }
}
