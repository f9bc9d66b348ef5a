//! `apar-serve` — the compile service from the command line.
//!
//! Batch mode compiles suite files (or a manifest) through one shared
//! [`CompileService`], writes emitted artifacts next to a stats JSON,
//! and prints a per-suite table. Daemon mode serves the line protocol
//! over stdin/stdout until `QUIT` or EOF.
//!
//! ```text
//! apar-serve [OPTIONS] <suite.f>...
//! apar-serve [OPTIONS] --manifest <file>    # lines: <name>=<path>
//! apar-serve [OPTIONS] --daemon
//!
//! OPTIONS:
//!   --workers <N>       worker pool width (default 4)
//!   --profile <name>    polaris2008 (default) or full
//!   --emit              run the source-to-source backend too
//!   --out <dir>         write emitted artifacts as <dir>/<name>.par.f
//!   --stats <file>      write batch stats JSON (default: stdout summary only)
//!   --deadline-ms <N>   wall-clock deadline per suite (expired compiles
//!                       answer structurally, they are never half-done)
//!   --lenient           serve unreadable suites as empty source instead
//!                       of failing the invocation
//!   --store <dir>       persist the cache tiers to <dir> and recover
//!                       them on startup; an unusable or already-locked
//!                       directory degrades to read-only with a
//!                       structured warning, never an error
//! ```
//!
//! Exit codes are structured for scripting: `0` success, `1` transport
//! or output-write failure, `2` usage error, `3` unreadable input
//! (suite or manifest) without `--lenient`. Hostile *content* is never
//! an error — the recovering front end turns garbled sources into
//! diagnostics — only unreadable *paths* are.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use apar_core::jsonio::ToJson;
use apar_core::CompilerProfile;
use apar_service::daemon::serve;
use apar_service::{CompileService, ServiceConfig, SuiteArtifact, SuiteRequest};

struct Args {
    workers: usize,
    profile: CompilerProfile,
    emit: bool,
    out_dir: Option<PathBuf>,
    stats_path: Option<PathBuf>,
    daemon: bool,
    manifest: Option<PathBuf>,
    suites: Vec<PathBuf>,
    deadline: Option<std::time::Duration>,
    lenient: bool,
    store: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: apar-serve [--workers N] [--profile polaris2008|full] [--emit] \
         [--out DIR] [--stats FILE] [--deadline-ms N] [--lenient] [--store DIR] \
         (<suite.f>... | --manifest FILE | --daemon)"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        workers: 4,
        profile: CompilerProfile::polaris2008(),
        emit: false,
        out_dir: None,
        stats_path: None,
        daemon: false,
        manifest: None,
        suites: Vec::new(),
        deadline: None,
        lenient: false,
        store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(usage)?;
            }
            "--profile" => match it.next().as_deref() {
                Some("polaris2008") => args.profile = CompilerProfile::polaris2008(),
                Some("full") => args.profile = CompilerProfile::full(),
                _ => return Err(usage()),
            },
            "--emit" => args.emit = true,
            "--out" => args.out_dir = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--stats" => args.stats_path = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--daemon" => args.daemon = true,
            "--manifest" => args.manifest = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--deadline-ms" => {
                let ms: u64 = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
                args.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--lenient" => args.lenient = true,
            "--store" => args.store = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--help" | "-h" => return Err(usage()),
            s if s.starts_with("--") => {
                eprintln!("apar-serve: unknown flag: {}", s);
                return Err(usage());
            }
            _ => args.suites.push(PathBuf::from(a)),
        }
    }
    if !args.daemon && args.manifest.is_none() && args.suites.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn stem_of(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Load requests from explicit paths and/or a `<name>=<path>` manifest.
/// Every unreadable entry is diagnosed on stderr and counted; strict
/// mode (the default) turns any count into exit 3, `--lenient` serves
/// the entry as empty source instead (the recovering compiler reports
/// it rather than the CLI dying).
fn load_requests(args: &Args) -> (Vec<SuiteRequest>, usize) {
    let mut reqs = Vec::new();
    let io_errors = std::cell::Cell::new(0usize);
    let mut push = |name: String, path: &Path| {
        let src = match std::fs::read(path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) => {
                io_errors.set(io_errors.get() + 1);
                let fate = if args.lenient {
                    "serving empty source"
                } else {
                    "strict mode, will fail"
                };
                eprintln!("apar-serve: {}: {} ({})", path.display(), e, fate);
                String::new()
            }
        };
        let mut req = SuiteRequest::new(name, src);
        if let Some(d) = args.deadline {
            req = req.with_deadline(d);
        }
        reqs.push(req);
    };
    if let Some(manifest) = &args.manifest {
        match std::fs::read_to_string(manifest) {
            Ok(text) => {
                for line in text.lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    match line.split_once('=') {
                        Some((name, path)) => {
                            push(name.trim().to_string(), Path::new(path.trim()))
                        }
                        None => push(stem_of(Path::new(line)), Path::new(line)),
                    }
                }
            }
            Err(e) => {
                io_errors.set(io_errors.get() + 1);
                eprintln!("apar-serve: manifest {}: {}", manifest.display(), e);
            }
        }
    }
    for p in &args.suites {
        push(stem_of(p), p);
    }
    (reqs, io_errors.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let mut service = CompileService::new(ServiceConfig {
        profile: args.profile.clone(),
        workers: args.workers,
        emit: args.emit,
        ..ServiceConfig::default()
    });
    if let Some(dir) = &args.store {
        service = service.with_store(dir);
        if let Some(reason) = service.store_read_only_reason() {
            // Structured, greppable degradation notice: the run still
            // serves (and still recovers), it just won't persist.
            eprintln!(
                "apar-serve: store {} degraded to read-only: {}",
                dir.display(),
                reason
            );
        }
        let s = service.store_stats();
        eprintln!(
            "apar-serve: store recovered {} loops, {} results ({} refusals)",
            s.recovered_loops, s.recovered_results, s.recovery_refusals
        );
    }
    let service = service;

    if args.daemon {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match serve(&service, stdin.lock(), stdout.lock()) {
            Ok(summary) => {
                eprintln!(
                    "apar-serve: {} requests, {} compiled, {} errors, {} rejected",
                    summary.requests, summary.compiled, summary.errors, summary.rejected
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("apar-serve: transport error: {}", e);
                ExitCode::FAILURE
            }
        };
    }

    let (reqs, io_errors) = load_requests(&args);
    if io_errors > 0 && !args.lenient {
        eprintln!(
            "apar-serve: {} unreadable input(s); rerun with --lenient to serve them as empty",
            io_errors
        );
        return ExitCode::from(3);
    }
    let batch = service.compile_many(&reqs);

    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>6} {:>10}",
        "suite", "served", "loops", "par", "diags", "wall_s"
    );
    for o in &batch.outcomes {
        let (loops, par, diags) = match o.artifact.compile() {
            Some(r) => (
                r.loops.len(),
                r.loops.iter().filter(|l| l.parallelized).count(),
                r.report.diags.len(),
            ),
            None => (0, 0, 0),
        };
        println!(
            "{:<16} {:>6} {:>8} {:>8} {:>6} {:>10.4}",
            o.name,
            o.served.label(),
            loops,
            par,
            diags,
            o.wall_s
        );
    }
    println!(
        "{} suites in {:.3}s ({:.1}/s): {} cold, {} hits, {} deduped, {} expired",
        batch.stats.suites,
        batch.stats.wall_s,
        batch.stats.suites_per_s,
        batch.stats.cold,
        batch.stats.result_hits,
        batch.stats.deduped,
        batch.stats.deadline_expired,
    );

    let mut write_failures = 0usize;
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("apar-serve: create {}: {}", dir.display(), e);
            write_failures += 1;
        }
        for o in &batch.outcomes {
            if let SuiteArtifact::Emitted(e) = &*o.artifact {
                let path = dir.join(format!("{}.par.f", o.name));
                match std::fs::File::create(&path).and_then(|mut f| {
                    f.write_all(e.source.as_bytes())
                }) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(err) => {
                        eprintln!("apar-serve: write {}: {}", path.display(), err);
                        write_failures += 1;
                    }
                }
            }
        }
    }

    if let Some(path) = &args.stats_path {
        let json = batch.stats.to_json().render();
        match std::fs::write(path, json + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("apar-serve: write {}: {}", path.display(), e);
                write_failures += 1;
            }
        }
    }
    if write_failures > 0 {
        eprintln!("apar-serve: {} output write failure(s)", write_failures);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
