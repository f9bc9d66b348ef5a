//! The long-lived daemon loop: a line-delimited request protocol.
//!
//! [`serve`] reads requests from any `BufRead` and writes one response
//! line per request to any `Write` — stdin/stdout in the `apar-serve`
//! binary, in-memory buffers in tests. The protocol:
//!
//! ```text
//! SRC <name> <nlines> [<deadline_ms>]
//!                       the next <nlines> lines are the suite source;
//!                       the optional third field is a per-request
//!                       wall-clock deadline in milliseconds
//! FILE <path>           compile the file at <path>
//! STATS                 one-line JSON of the service's lifetime stats
//! HEALTH                one-line JSON of queue depth, quarantine
//!                       counts, cache occupancy, and uptime
//! QUIT                  stop serving
//! ```
//!
//! Responses are exactly one line each: `OK <json>` for compiles and
//! stats, `ERR <reason>` for anything unserviceable, and
//! `REJECTED <reason>` when the service is overloaded (compile
//! commands only — `HEALTH`/`STATS`/`QUIT` always answer, so an
//! operator can watch an overloaded daemon drain). The loop is total
//! over arbitrary bytes: non-UTF-8 input is replaced lossily, unknown
//! commands and malformed headers answer `ERR` and the loop continues,
//! garbled source degrades to a compile with diagnostics (the
//! recovering front end), and any panic that still escapes a request is
//! contained by the service's sandbox. One hostile request degrades one
//! response, never the daemon.

use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use apar_core::jsonio::{Json, ToJson};

use crate::{CompileService, ServiceStats, SuiteArtifact, SuiteOutcome, SuiteRequest};

/// Upper bound on one `SRC` request's line count — a hostile header
/// like `SRC x 99999999999` must not stall the loop reading forever.
pub const MAX_SRC_LINES: usize = 100_000;

/// What one [`serve`] loop did (for tests and logging).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines handled (blank lines excluded).
    pub requests: usize,
    /// Requests that ran or looked up a compile.
    pub compiled: usize,
    /// Requests answered with `ERR`.
    pub errors: usize,
    /// Compile requests answered `REJECTED` because the service was
    /// overloaded (bodies still drained, nothing compiled).
    pub rejected: usize,
    /// True when the loop ended on `QUIT` rather than EOF.
    pub quit: bool,
}

/// The `STATS` answer (lifetime stats) and the batch stats JSON
/// `apar-serve --stats` writes: every wire rendering of the service's
/// state lives in this module.
impl ToJson for ServiceStats {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("suites", self.suites.to_json()),
            ("cold", self.cold.to_json()),
            ("result_hits", self.result_hits.to_json()),
            ("deduped", self.deduped.to_json()),
            ("failed", self.failed.to_json()),
            ("rejected", self.rejected.to_json()),
            ("deadline_expired", self.deadline_expired.to_json()),
            ("quarantined", self.quarantined.to_json()),
            ("degraded", self.degraded.to_json()),
            ("pending_peak", self.pending_peak.to_json()),
            ("quarantined_suites", self.quarantined_suites.to_json()),
            ("result_evictions", self.result_evictions.to_json()),
            ("loop_hits", self.facts.loop_hits.to_json()),
            ("loop_misses", self.facts.loop_misses.to_json()),
            ("loop_refusals", self.facts.loop_refusals.to_json()),
            ("loop_entries", self.facts.loop_entries.to_json()),
            ("loop_evictions", self.facts.loop_evictions.to_json()),
            ("detour_lookups", self.detour.lookups.to_json()),
            ("detour_unchanged", self.detour.unchanged.to_json()),
            ("detour_memo_hits", self.detour.memo_hits.to_json()),
            ("detour_builds", self.detour.builds.to_json()),
            ("detour_changed_units", self.detour.changed_units.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("suites_per_s", self.suites_per_s.to_json()),
            ("per_suite_wall_s", self.per_suite_wall_s.to_json()),
        ];
        // One source of truth for store fields: `StoreStats::fields`
        // renders here, in the daemon's STATS answer (same path), and
        // in its HEALTH reply — the three reports cannot disagree.
        fields.extend(self.store.fields());
        Json::Obj(fields)
    }
}

/// The `HEALTH` answer: everything an operator needs to see whether an
/// overloaded daemon is draining.
fn health_line(service: &CompileService) -> String {
    let cfg = service.config();
    let loops = service.loop_store().stats();
    let mut fields = vec![
        ("pending", service.pending().to_json()),
        ("peak_pending", service.peak_pending().to_json()),
        ("max_pending", cfg.max_pending.to_json()),
        ("overloaded", Json::Bool(service.overloaded())),
        ("quarantined_suites", service.quarantined_suites().to_json()),
        ("result_entries", service.result_cache_len().to_json()),
        ("loop_entries", loops.loop_entries.to_json()),
        ("loop_evictions", loops.loop_evictions.to_json()),
    ];
    // The store block is the same canonical field list STATS and batch
    // reports use ([`crate::store::StoreStats::fields`]) — one source,
    // no drift between the three surfaces.
    fields.extend(service.store_stats().fields());
    fields.push(("uptime_s", service.uptime_s().to_json()));
    Json::Obj(fields).render_compact()
}

fn outcome_line(o: &SuiteOutcome) -> String {
    let (loops, parallelized, diags, dropped) = match o.artifact.compile() {
        Some(r) => (
            r.loops.len(),
            r.loops.iter().filter(|l| l.parallelized).count(),
            r.report.diags.len(),
            r.report.dropped_units.len(),
        ),
        None => (0, 0, 0, 0),
    };
    let mut fields = vec![
        ("name", Json::Str(o.name.clone())),
        ("served", Json::Str(o.served.label().to_string())),
        ("loops", loops.to_json()),
        ("parallelized", parallelized.to_json()),
        ("diags", diags.to_json()),
        ("dropped_units", dropped.to_json()),
        ("wall_s", o.wall_s.to_json()),
    ];
    if let SuiteArtifact::Failed(msg) = &*o.artifact {
        fields.push(("failed", Json::Str(msg.clone())));
    }
    if let SuiteArtifact::Emitted(e) = &*o.artifact {
        fields.push(("emitted", e.emitted.to_json()));
        fields.push(("reparse_diags", e.reparse_diags.len().to_json()));
    }
    Json::Obj(fields).render_compact()
}

/// Read one raw line (any bytes) as lossy UTF-8 without the trailing
/// newline. `None` at EOF.
fn read_line<R: BufRead>(input: &mut R) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = input.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Run the daemon loop until `QUIT` or EOF. Never panics, never exits
/// early on hostile input; I/O errors on the transport itself are the
/// only way out besides the protocol.
pub fn serve<R: BufRead, W: Write>(
    service: &CompileService,
    mut input: R,
    mut out: W,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    while let Some(line) = read_line(&mut input)? {
        let line = line.trim().to_string();
        if line.is_empty() {
            continue;
        }
        summary.requests += 1;
        let mut parts = line.splitn(3, ' ');
        let cmd = parts.next().unwrap_or("");
        let reply = match cmd {
            "QUIT" => {
                summary.quit = true;
                writeln!(out, "OK bye")?;
                break;
            }
            "STATS" => format!("OK {}", service.cumulative_stats().to_json().render_compact()),
            "HEALTH" => format!("OK {}", health_line(service)),
            "SRC" => {
                let name = parts.next().unwrap_or("").to_string();
                // The tail is `<nlines> [<deadline_ms>]`.
                let mut tail = parts.next().unwrap_or("").split_whitespace();
                let nlines = tail.next().and_then(|s| s.parse::<usize>().ok());
                let deadline = tail
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(std::time::Duration::from_millis);
                match (name.is_empty(), nlines) {
                    (true, _) | (_, None) => {
                        summary.errors += 1;
                        "ERR usage: SRC <name> <nlines> [<deadline_ms>]".to_string()
                    }
                    (_, Some(n)) if n > MAX_SRC_LINES => {
                        summary.errors += 1;
                        format!("ERR oversized request ({} lines > {})", n, MAX_SRC_LINES)
                    }
                    (_, Some(n)) => {
                        // The body must be drained either way — a
                        // rejected request must not desync the protocol.
                        let mut src = String::new();
                        for _ in 0..n {
                            match read_line(&mut input)? {
                                Some(l) => {
                                    src.push_str(&l);
                                    src.push('\n');
                                }
                                None => break, // EOF mid-body: compile what arrived
                            }
                        }
                        if service.overloaded() {
                            summary.rejected += 1;
                            format!("REJECTED overload pending={}", service.pending())
                        } else {
                            summary.compiled += 1;
                            let mut req = SuiteRequest::new(name, src);
                            if let Some(d) = deadline {
                                req = req.with_deadline(d);
                            }
                            respond_compile(service, req)
                        }
                    }
                }
            }
            "FILE" => {
                let path: String = parts.collect::<Vec<_>>().join(" ");
                if path.is_empty() {
                    summary.errors += 1;
                    "ERR usage: FILE <path>".to_string()
                } else if service.overloaded() {
                    summary.rejected += 1;
                    format!("REJECTED overload pending={}", service.pending())
                } else {
                    match std::fs::read(&path) {
                        Ok(bytes) => {
                            let src = String::from_utf8_lossy(&bytes).into_owned();
                            let name = std::path::Path::new(&path)
                                .file_stem()
                                .map(|s| s.to_string_lossy().into_owned())
                                .unwrap_or_else(|| path.clone());
                            summary.compiled += 1;
                            respond_compile(service, SuiteRequest::new(name, src))
                        }
                        Err(e) => {
                            summary.errors += 1;
                            format!("ERR read {}: {}", path, e)
                        }
                    }
                }
            }
            _ => {
                summary.errors += 1;
                format!("ERR unknown command: {}", cmd)
            }
        };
        writeln!(out, "{}", reply)?;
        out.flush()?;
    }
    Ok(summary)
}

/// One compile request, double-sandboxed: the service already contains
/// panics per suite, and this belt-and-suspenders guard keeps even a
/// panic in outcome formatting from taking the loop down.
fn respond_compile(service: &CompileService, req: SuiteRequest) -> String {
    catch_unwind(AssertUnwindSafe(|| {
        let outcome = service.compile_one(req);
        format!("OK {}", outcome_line(&outcome))
    }))
    .unwrap_or_else(|_| "ERR internal: request panicked".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    fn run(input: &[u8]) -> (ServeSummary, String) {
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut out = Vec::new();
        let summary = serve(&service, input, &mut out).expect("io");
        (summary, String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn serves_a_src_request_and_quits() {
        let input = b"SRC tiny 7\nPROGRAM MAIN\nREAL A(10)\nINTEGER I\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nEND\nQUIT\n";
        let (summary, out) = run(input);
        assert_eq!(summary.compiled, 1);
        assert!(summary.quit);
        assert!(out.contains("\"name\":\"tiny\""), "{}", out);
        assert!(out.contains("\"diags\":0"), "clean dialect parses: {}", out);
        assert!(out.contains("OK bye"), "{}", out);
    }

    #[test]
    fn hostile_lines_answer_err_and_the_loop_lives() {
        let input: Vec<u8> = [
            b"GARBAGE whatever\n".as_slice(),
            &[0xff, 0xfe, 0x00, b'\n'],
            b"SRC\n",
            b"SRC x notanumber\n",
            b"SRC huge 99999999999\n",
            b"STATS\n",
            b"QUIT\n",
        ]
        .concat();
        let (summary, out) = run(&input);
        assert!(summary.quit, "daemon reached QUIT alive:\n{}", out);
        assert_eq!(summary.errors, 5, "{}", out);
        assert!(out.contains("OK {"), "stats still served: {}", out);
    }

    #[test]
    fn eof_mid_body_still_compiles_what_arrived() {
        let input = b"SRC cut 100\n      PROGRAM MAIN\n      END PROGRAM\n";
        let (summary, out) = run(input);
        assert_eq!(summary.compiled, 1);
        assert!(!summary.quit);
        assert!(out.contains("\"name\":\"cut\""), "{}", out);
    }

    #[test]
    fn health_answers_compact_json() {
        let (summary, out) = run(b"HEALTH\nQUIT\n");
        assert_eq!(summary.errors, 0);
        for field in [
            "\"pending\":0",
            "\"max_pending\":64",
            "\"overloaded\":false",
            "\"quarantined_suites\":0",
            "\"loop_entries\":0",
            "\"loop_evictions\":0",
            "\"store_enabled\":false",
            "\"recovery_refusals\":0",
            "\"store_bytes\":0",
            "\"uptime_s\":",
        ] {
            assert!(out.contains(field), "{field} missing from {out}");
        }
    }

    #[test]
    fn src_deadline_field_expires_the_compile() {
        let input = b"SRC slow 7 0\nPROGRAM MAIN\nREAL A(10)\nINTEGER I\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nEND\nQUIT\n";
        let (summary, out) = run(input);
        assert_eq!(summary.compiled, 1);
        assert!(
            out.contains("\"served\":\"expired\""),
            "0ms deadline expires structurally: {}",
            out
        );
    }

    #[test]
    fn overloaded_daemon_rejects_compiles_but_still_reports_health() {
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            high_watermark: 4,
            low_watermark: 1,
            ..ServiceConfig::default()
        });
        let hold = service.hold_capacity(5);
        let input: &[u8] =
            b"SRC a 2\nPROGRAM MAIN\nEND\nFILE /nonexistent\nHEALTH\nSTATS\nQUIT\n";
        let mut out = Vec::new();
        let summary = serve(&service, input, &mut out).expect("io");
        let out = String::from_utf8_lossy(&out);
        assert_eq!(summary.rejected, 2, "{}", out);
        assert_eq!(summary.compiled, 0);
        assert!(out.contains("REJECTED overload pending=5"), "{}", out);
        assert!(out.contains("\"overloaded\":true"), "{}", out);
        assert!(out.contains("OK {"), "health/stats still answer: {}", out);
        drop(hold);

        // Recovered: the same request now compiles (the rejected SRC
        // body never desynced the protocol).
        let input: &[u8] = b"SRC a 2\nPROGRAM MAIN\nEND\nHEALTH\nQUIT\n";
        let mut out = Vec::new();
        let summary = serve(&service, input, &mut out).expect("io");
        let out = String::from_utf8_lossy(&out);
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.compiled, 1, "{}", out);
        assert!(out.contains("\"overloaded\":false"), "{}", out);
    }
}
