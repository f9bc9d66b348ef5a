//! Structural rules earlier PRs earned by deleting something: each
//! test keeps one deleted layer, copy or dial from growing back, and
//! its message names the PR (CHANGES.md numbering) that removed it.
//! Sources are read relative to `CARGO_MANIFEST_DIR`; `perf/` is frozen
//! and `target/` is build output, so neither is ever scanned.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{}: {}", rel, e))
}

/// Every file under `rel` as `(path relative to the root, text)`.
fn files_under(rel: &str) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {}", dir.display(), e))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if let Ok(bytes) = fs::read(&p) {
                let rel = p.strip_prefix(root()).expect("under the root");
                out.push((
                    rel.to_string_lossy().replace('\\', "/"),
                    String::from_utf8_lossy(&bytes).into_owned(),
                ));
            }
        }
    }
    let mut out = Vec::new();
    walk(&root().join(rel), &mut out);
    out
}

/// The lines of a source file above its `mod tests`.
fn above_tests(src: &str) -> impl Iterator<Item = &str> {
    src.lines().take_while(|l| !l.starts_with("mod tests"))
}

/// `path:line: text` for every line of `files` that `bad` flags.
fn offending<'a>(
    files: impl IntoIterator<Item = &'a (String, String)>,
    bad: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files {
        for (n, line) in text.lines().enumerate() {
            if bad(line) {
                out.push(format!("{}:{}: {}", path, n + 1, line.trim()));
            }
        }
    }
    out
}

fn named(rels: &[&str]) -> Vec<(String, String)> {
    rels.iter().map(|r| (r.to_string(), read(r))).collect()
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `needle` occur in `line` with `before_ok` holding for the
/// character in front of it (`None` at the start of the line)?
fn occurs_after(line: &str, needle: &str, before_ok: impl Fn(Option<char>) -> bool) -> bool {
    line.match_indices(needle)
        .any(|(i, _)| before_ok(line[..i].chars().next_back()))
}

#[test]
fn one_worker_pool() {
    let files = named(&[
        "crates/service/src/lib.rs",
        "crates/core/src/pipeline.rs",
        "crates/core/src/splice.rs",
    ]);
    let hits = offending(&files, |l| l.contains("thread::scope"));
    assert!(
        hits.is_empty(),
        "PR 14: a second worker pool — fan out through apar_core::fan_out:\n{}",
        hits.join("\n")
    );
}

#[test]
fn deleted_service_layers_stay_deleted() {
    let gone = [
        "persisted_results",
        "retain_result_record",
        "ShedPolicy",
        "cached_facts",
        "stats_cold",
        // One load signal (`max_pending`): the parse-only tier, the
        // second watermark and the quarantine backoff are gone.
        // `degraded` itself is not listed: `ServiceStats::degraded`
        // stays, always 0, for the frozen benchmark crate.
        "DegradeTier",
        "Served::Degraded",
        "with_degrade",
        "high_watermark",
        "low_watermark",
        "overload_latch",
        "quarantine_backoff",
    ];
    // Scanned: every source outside this file, which has to name what
    // it forbids.
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files.extend(files_under(dir));
    }
    files.retain(|(p, _)| p != "tests/structure.rs");
    let hits = offending(&files, |l| gone.iter().any(|g| l.contains(g)));
    assert!(
        hits.is_empty(),
        "a deleted cache tier, shed policy, stat or second load signal is back:\n{}",
        hits.join("\n")
    );
}

#[test]
fn detour_never_resolves_the_whole_program_again() {
    let files = named(&["crates/core/src/pipeline.rs", "crates/core/src/splice.rs"]);
    let hits = offending(&files, |l| {
        occurs_after(l, "resolve(scratch)", |c| !c.is_some_and(is_word))
    });
    assert!(
        hits.is_empty(),
        "PR 15: whole-program resolve after inlining — use ResolvedProgram::reresolve:\n{}",
        hits.join("\n")
    );
}

#[test]
fn no_probe_resolve_and_no_interner_merge() {
    let files = files_under("crates");
    let hits = offending(&files, |l| {
        l.contains("resolve_recovering(prog.clone())") || l.contains(".absorb(")
    });
    assert!(
        hits.is_empty(),
        "PR 16: the probe-resolve on a clone or the interner merge is back under crates/:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_whole_program_resolution_per_front_door() {
    let src = read("crates/core/src/pipeline.rs");
    let strict = above_tests(&src)
        .filter(|l| {
            occurs_after(l, "resolve(", |c| {
                !c.is_some_and(|c| is_word(c) || c == '.')
            })
        })
        .count();
    let recovering = above_tests(&src)
        .filter(|l| l.contains("resolve_recovering("))
        .count();
    assert!(
        strict <= 1 && recovering <= 1,
        "PR 16: pipeline.rs resolves a whole program more than once per door \
         ({} `resolve(`, {} `resolve_recovering(`): resolve once, then reresolve",
        strict,
        recovering
    );
}

#[test]
fn one_partial_resolution_entry_point() {
    let src = read("crates/minifort/src/resolve.rs");
    let n = above_tests(&src)
        .filter(|l| l.contains("fn reresolve"))
        .count();
    assert_eq!(
        n, 1,
        "PR 16: resolve.rs must have exactly one partial-resolution entry point"
    );
}

#[test]
fn inliner_splices_without_a_second_copy() {
    let files = named(&["crates/analysis/src/inline.rs"]);
    let hits = offending(&files, |l| l.contains("replacement.clone()"));
    assert!(
        hits.is_empty(),
        "PR 15: inline::replace_stmt_with copies the spliced body again:\n{}",
        hits.join("\n")
    );
}

#[test]
fn whole_program_reference_walk_is_a_test_oracle_only() {
    let src = read("crates/analysis/src/inline.rs");
    let mut prev = "";
    for (n, line) in above_tests(&src).enumerate() {
        assert!(
            !line.contains("referenced_units") || prev.contains("cfg(test)"),
            "PR 15: referenced_units (the whole-program walk) is the test oracle only — \
             crates/analysis/src/inline.rs:{}: {}",
            n + 1,
            line.trim()
        );
        prev = line;
    }
}

#[test]
fn one_clock_and_a_typed_loop_store() {
    let mut files = files_under("crates");
    files.extend(files_under(".github"));
    let retired = [
        "bench_compile",
        "bench_service",
        "bench_incr",
        "bench_persist",
        "criterion",
    ];
    let mut hits = offending(&files, |l| retired.iter().any(|r| l.contains(r)));
    hits.extend(offending(&named(&["crates/analysis/src/cache.rs"]), |l| {
        l.contains("dyn Any")
    }));
    assert!(
        hits.is_empty(),
        "PR 17: a retired wall-clock harness (perf/ is the only clock) or the untyped \
         loop record is back:\n{}",
        hits.join("\n")
    );
}

#[test]
fn stack_size_is_a_bound_nobody_tunes() {
    // Scanned: every Rust source outside the runtime's own `src/` (and
    // outside this file, which has to name what it forbids).
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        files.extend(files_under(dir));
    }
    files.retain(|(p, _)| {
        p.ends_with(".rs") && !p.starts_with("crates/runtime/src/") && p != "tests/structure.rs"
    });
    let dial: Vec<&str> = files
        .iter()
        .filter(|(p, text)| {
            text.contains("seg_words") && !(p.contains("tests/") && text.contains("StackOverflow"))
        })
        .map(|(p, _)| p.as_str())
        .collect();
    assert!(
        dial.is_empty(),
        "PR 18: an arena costs what the program touches, so `seg_words` is a bound with one \
         default; only a test asserting RtError::StackOverflow sets it: {:?}",
        dial
    );
    let hits = offending(&files, |l| {
        l.contains("run_mpi_lowered") || l.contains("run_mpi_cfg")
    });
    assert!(
        hits.is_empty(),
        "PR 18: the interpreter has two entry points, run(rp, deck, &cfg) and \
         run_mpi(rp, deck, ranks, &cfg):\n{}",
        hits.join("\n")
    );
}

/// The quoted entries of the root manifest's `key = [...]` line.
fn manifest_list(manifest: &str, key: &str) -> Vec<String> {
    let line = manifest
        .lines()
        .find(|l| l.starts_with(&format!("{} = [", key)))
        .unwrap_or_else(|| panic!("Cargo.toml has no `{} = [...]` line", key));
    line.split('"').skip(1).step_by(2).map(str::to_string).collect()
}

#[test]
fn every_workspace_member_is_a_default_member() {
    let manifest = read("Cargo.toml");
    let defaults = manifest_list(&manifest, "default-members");
    let mut wanted = manifest_list(&manifest, "members");
    wanted.push(".".to_string());
    let missing: Vec<&String> = wanted.iter().filter(|m| !defaults.contains(m)).collect();
    assert!(
        missing.is_empty(),
        "plain `cargo test` at the root must run every crate's tests, as CI's --workspace \
         does; not in default-members: {:?}",
        missing
    );
}

#[test]
fn the_interpreter_has_one_expression_evaluator() {
    // Expressions are compiled to closures once, at lowering; the only
    // code that looks at an expression tree's nodes is `compile`.
    let src = read("crates/runtime/src/interp.rs");
    let lines: Vec<&str> = above_tests(&src).collect();
    let starts: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("pub(crate) fn compile("))
        .collect();
    assert_eq!(starts.len(), 1, "interp.rs must have one `fn compile`");
    let end = (starts[0]..lines.len())
        .find(|&i| lines[i] == "}")
        .expect("compile ends");
    let hits: Vec<String> = (0..lines.len())
        .filter(|&i| (i < starts[0] || i > end) && lines[i].contains("Node::"))
        .map(|i| format!("crates/runtime/src/interp.rs:{}: {}", i + 1, lines[i].trim()))
        .collect();
    assert!(
        hits.is_empty(),
        "a second expression evaluator: expression-tree nodes are matched outside \
         `compile`:\n{}",
        hits.join("\n")
    );
    let rprog = read("crates/runtime/src/rprog.rs");
    assert!(
        !rprog.contains("pub enum RExpr"),
        "`RExpr` is compiled code, not a tree an interpreter walks"
    );
}
