//! `repolint` — workspace-native static analysis for the SBR repo.
//!
//! A std-only pass that lexes the workspace's Rust sources (comment,
//! string, raw-string and char-literal aware — no `syn`, consistent with
//! the vendored-deps policy) and enforces the invariants the test suite
//! cannot see per-commit:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `panic-free` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in the decode/network-facing zones |
//! | `index` | no unguarded slice/array subscripts in those zones |
//! | `panic-reachability` | zone fns must not *transitively* reach a panicking sink through the workspace call graph (reported with the call path) |
//! | `cast-truncation` | `as u32/u64/usize` narrowing of length/offset-like values in the wire zones — `try_from` + `SbrError::Corrupt` instead |
//! | `determinism` | hash-container iteration that can leak order into output; wall-clock reads outside `sbr-obs`/`bench` |
//! | `lock-discipline` | Mutex guards in `sbr-obs::timeline`/`sensor-net` not held across recorder re-entry |
//! | `float-eq` | no `==`/`!=` against float literals outside tests |
//! | `atomics` | raw atomics confined to `sbr-obs` (facade elsewhere) |
//! | `obs-gate` | `sbr_obs` paths in `sbr-core` confined to the `obs.rs` facade |
//! | `wire-drift` | codec constants == golden bytes == DESIGN.md §3b table |
//! | `manifest` | every locked package vendored or local; uniform `[lints]` wall |
//! | `bad-suppression` | every `lint:allow` carries a reason |
//!
//! Inline escape hatch: `// lint:allow(<rule>): <reason>` on the
//! offending line or the line above. Findings are emitted human-readable
//! plus as `LINT_REPORT.json` (schema `repolint/v2`); the process exits
//! non-zero when any finding survives.

use std::path::{Path, PathBuf};

pub mod items;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod wire;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`panic-free`, `index`, …).
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// For `panic-reachability`: the zone→sink call chain, each element
    /// `name@path:line`. Empty for single-site findings.
    pub call_path: Vec<String>,
}

/// The coarse family a rule belongs to (`repolint/v2` report field).
pub fn rule_family(rule: &str) -> &'static str {
    match rule {
        "panic-free" | "index" | "panic-reachability" => "panic",
        "cast-truncation" => "cast",
        "determinism" => "determinism",
        "lock-discipline" => "lock",
        "float-eq" => "float",
        "atomics" | "obs-gate" => "confinement",
        "wire-drift" => "wire",
        "manifest" => "manifest",
        "bad-suppression" => "hygiene",
        _ => "other",
    }
}

/// A finding silenced by a reasoned `lint:allow`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The justification the suppression carried.
    pub reason: String,
}

/// Outcome of a full lint pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Reasoned suppressions that fired.
    pub suppressed: Vec<Suppressed>,
    /// Rust source files scanned by the token rules.
    pub files_scanned: usize,
}

/// Recursively collect `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lex one source file, run the token rules, and collect its fn items
/// for the call-graph pass. Shared by [`run`] and [`run_sources`].
fn scan_file(rel: &str, crate_name: &str, src: &str, rep: &mut Report) -> items::FileItems {
    let ctx = rules::FileCtx {
        path: rel,
        crate_dir: crate_name,
    };
    // One lex per file, shared between the token rules and the
    // item/call-graph pass.
    let lexed = lexer::lex(src);
    let test = rules::find_test_regions(&lexed.tokens);
    let scan = rules::scan_lexed(&ctx, &lexed, &test);
    rep.findings.extend(scan.findings);
    rep.suppressed.extend(scan.suppressed);
    let fns = items::collect(&ctx, &lexed, &test, &mut rep.suppressed);
    rep.files_scanned += 1;
    items::FileItems {
        path: rel.to_string(),
        fns,
        allows: lexed.allows,
    }
}

/// Sort findings/suppressions, then dedupe by (rule, path, line): two
/// detectors hitting the same site (or one allow silencing two same-line
/// findings) must not double-report.
fn finish(rep: &mut Report) {
    rep.findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    rep.findings
        .dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    rep.suppressed
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    rep.suppressed
        .dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
}

/// Run the token rules and the cross-file call-graph pass over in-memory
/// sources — `(workspace-relative path, source)` pairs. No filesystem,
/// wire, or manifest checks; this is the golden-fixture entry point the
/// linter's own tests drive the call-graph analysis through.
pub fn run_sources(files: &[(&str, &str)]) -> Report {
    let mut rep = Report::default();
    let mut graph_files: Vec<items::FileItems> = Vec::new();
    for (rel, src) in files {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or_default();
        graph_files.push(scan_file(rel, crate_name, src, &mut rep));
    }
    items::reachability(&graph_files, &mut rep.findings, &mut rep.suppressed);
    finish(&mut rep);
    rep
}

/// Run every rule against the workspace at `root`.
pub fn run(root: &Path) -> Report {
    let mut rep = Report::default();

    // Token rules over every crate's production sources (src/ only — unit
    // test modules are excluded by region, integration tests by path).
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    let mut graph_files: Vec<items::FileItems> = Vec::new();
    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut files = Vec::new();
        rust_files(&crate_dir.join("src"), &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            graph_files.push(scan_file(&rel, &crate_name, &src, &mut rep));
        }
    }

    // Cross-file pass: the panic-reachability call-graph walk.
    items::reachability(&graph_files, &mut rep.findings, &mut rep.suppressed);

    // Cross-artifact rules.
    rep.findings.extend(wire::check(root));
    rep.findings.extend(manifest::check(root));

    finish(&mut rep);
    rep
}
