//! Token-stream rules: panic-freedom zones, unguarded indexing, the
//! float-eq ban, and atomics and `sbr_obs` confinement.
//!
//! Every rule honours `// lint:allow(<rule>): <reason>` on the finding's
//! line or the line directly above. A suppression with an empty reason is
//! itself a finding (`bad-suppression`): the escape hatch exists, but it
//! must say why.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::{Finding, Suppressed};

/// Source files in which *any* panic path (and unguarded indexing) is a
/// finding: the decode/network-facing surface whose contract is "fails
/// explicitly, never silently wrong" — a malformed frame must map to
/// `SbrError`, not take down the node.
pub const PANIC_FREE_ZONES: &[&str] = &[
    "crates/sbr-core/src/codec.rs",
    "crates/sbr-core/src/decoder.rs",
    "crates/sbr-core/src/transmission.rs",
    "crates/sbr-core/src/error.rs",
    "crates/sensor-net/src/base_station.rs",
    "crates/sensor-net/src/storage.rs",
    "crates/sensor-net/src/node.rs",
    "crates/sensor-net/src/fault.rs",
    "crates/cli/src/commands.rs",
];

/// Files that parse or emit wire/storage bytes: `as` narrowing of
/// length/offset/sequence values here silently truncates and corrupts
/// streams instead of failing typed.
pub const CAST_ZONES: &[&str] = &[
    "crates/sbr-core/src/codec.rs",
    "crates/sbr-core/src/decoder.rs",
    "crates/sbr-core/src/transmission.rs",
    "crates/sensor-net/src/storage.rs",
];

/// Keywords that can directly precede a `[` without it being an index
/// expression (`return [..]`, `match [a, b] {..}`, …).
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "if", "else", "match", "return", "break", "continue", "for", "as", "dyn",
    "where", "move", "ref", "pub", "use", "crate", "type", "const", "static", "enum", "struct",
    "trait", "fn", "impl", "mod", "unsafe", "loop", "while", "await", "box",
];

/// Per-file context the token rules run under.
pub struct FileCtx<'a> {
    /// Workspace-relative path (`crates/x/src/y.rs`), `/`-separated.
    pub path: &'a str,
    /// The crate directory name (`sbr-core`, `cli`, …).
    pub crate_dir: &'a str,
}

/// Result of scanning one file's source.
#[derive(Debug, Default)]
pub struct ScanOut {
    /// Findings that survived suppression.
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `lint:allow`.
    pub suppressed: Vec<Suppressed>,
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Find the line span of the item an attribute at `toks[i..]` is attached
/// to: skip any further attributes, then run to the matching `}` of the
/// first open brace, or to a `;` if one comes first.
fn item_span(toks: &[Tok], mut i: usize) -> (u32, u32) {
    let start = toks[i].line;
    let mut depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return (start, t.line);
                    }
                }
                ";" if depth == 0 => return (start, t.line),
                _ => {}
            }
        }
        i += 1;
    }
    (start, toks.last().map_or(start, |t| t.line))
}

/// Walk the token stream for `#[…]` attributes and return the line ranges
/// (1-based, inclusive) of the items `#[cfg(test)]` / `#[test]` cover.
pub(crate) fn find_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_attr = toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks[i + 1].kind == TokKind::Punct
            && toks[i + 1].text == "[";
        if !is_attr {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut body: Vec<&Tok> = Vec::new();
        while j < toks.len() && depth > 0 {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
            }
            if depth > 0 {
                body.push(t);
            }
            j += 1;
        }
        let is_ident = |t: &&Tok, name: &str| t.kind == TokKind::Ident && t.text == name;
        let is_test_attr = body.first().is_some_and(|t| is_ident(t, "test"))
            || (body.first().is_some_and(|t| is_ident(t, "cfg"))
                && body.iter().any(|t| is_ident(t, "test")));
        if is_test_attr {
            regions.push(item_span(toks, j));
        }
        i = j;
    }
    regions
}

/// Run every token rule over one source file.
pub fn scan_source(ctx: &FileCtx<'_>, src: &str) -> ScanOut {
    let lexed = lex(src);
    let test = find_test_regions(&lexed.tokens);
    scan_lexed(ctx, &lexed, &test)
}

/// Run every token rule over an already-lexed file (the driver lexes each
/// file once and shares the stream with the item/call-graph pass).
pub(crate) fn scan_lexed(ctx: &FileCtx<'_>, lexed: &Lexed, test: &[(u32, u32)]) -> ScanOut {
    let mut out = ScanOut::default();
    let zone = PANIC_FREE_ZONES.contains(&ctx.path);

    let mut raw: Vec<Finding> = Vec::new();
    let toks = &lexed.tokens;
    if CAST_ZONES.contains(&ctx.path) {
        cast_truncation(ctx, toks, test, &mut raw);
    }
    determinism(ctx, toks, test, &mut raw);
    if ctx.path == "crates/sbr-obs/src/timeline.rs"
        || ctx.path.starts_with("crates/sensor-net/src/")
    {
        lock_discipline(ctx, toks, test, &mut raw);
    }
    for (i, t) in toks.iter().enumerate() {
        if in_ranges(test, t.line) {
            continue; // every rule here is production-code-only
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);

        if zone {
            panic_free(ctx, t, prev, next, &mut raw);
            index_guard(ctx, t, prev, &mut raw);
        }
        float_eq(ctx, t, prev, next, toks.get(i + 2), &mut raw);
        if ctx.crate_dir != "sbr-obs" {
            atomics(ctx, t, prev, next, &mut raw);
        }
        if ctx.crate_dir == "sbr-core" && ctx.path != "crates/sbr-core/src/obs.rs" {
            obs_gate(ctx, t, &mut raw);
        }
    }

    // Apply suppressions: an allow on the finding's line or the line above.
    for f in raw {
        let hit = lexed
            .allows
            .iter()
            .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        match hit {
            Some(a) if !a.reason.is_empty() => out.suppressed.push(Suppressed {
                rule: f.rule,
                path: f.path,
                line: f.line,
                reason: a.reason.clone(),
            }),
            _ => out.findings.push(f),
        }
    }
    // Reason-less suppressions are findings in their own right.
    for a in &lexed.allows {
        if a.reason.is_empty() {
            out.findings.push(Finding {
                rule: "bad-suppression".into(),
                path: ctx.path.into(),
                line: a.line,
                message: format!(
                    "lint:allow({}) without a reason — every escape hatch must say why",
                    a.rule
                ),
                call_path: Vec::new(),
            });
        }
    }
    out.findings.sort_by_key(|f| f.line);
    out
}

fn finding(ctx: &FileCtx<'_>, rule: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.into(),
        path: ctx.path.into(),
        line,
        message,
        call_path: Vec::new(),
    }
}

/// `panic-free`: no `.unwrap()` / `.expect(…)` / `panic!` /
/// `unreachable!` / `todo!` / `unimplemented!` in the zones.
fn panic_free(
    ctx: &FileCtx<'_>,
    t: &Tok,
    prev: Option<&Tok>,
    next: Option<&Tok>,
    out: &mut Vec<Finding>,
) {
    if t.kind != TokKind::Ident {
        return;
    }
    let next_is = |s: &str| next.is_some_and(|n| n.kind == TokKind::Punct && n.text == s);
    let prev_is_dot = prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == ".");
    match t.text.as_str() {
        "unwrap" | "expect" if prev_is_dot && next_is("(") => out.push(finding(
            ctx,
            "panic-free",
            t.line,
            format!(
                ".{}() in a panic-freedom zone — return a typed SbrError instead",
                t.text
            ),
        )),
        "panic" | "unreachable" | "todo" | "unimplemented" if next_is("!") => out.push(finding(
            ctx,
            "panic-free",
            t.line,
            format!(
                "{}! in a panic-freedom zone — malformed input must fail explicitly, not abort",
                t.text
            ),
        )),
        _ => {}
    }
}

/// `index`: `expr[…]` indexing in the zones — any out-of-range subscript
/// panics, so zone code must bounds-check (`get`/`get_mut`) or carry a
/// reasoned `lint:allow(index)` proving the index in range.
fn index_guard(ctx: &FileCtx<'_>, t: &Tok, prev: Option<&Tok>, out: &mut Vec<Finding>) {
    if t.kind != TokKind::Punct || t.text != "[" {
        return;
    }
    let Some(p) = prev else { return };
    let indexable = match p.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
        TokKind::Punct => p.text == ")" || p.text == "]",
        _ => false,
    };
    if indexable {
        out.push(finding(
            ctx,
            "index",
            t.line,
            "unguarded slice/array index in a panic-freedom zone — use .get()/.get_mut() or justify with lint:allow(index)".into(),
        ));
    }
}

/// `float-eq`: `==`/`!=` with a floating-point literal operand, anywhere
/// outside tests. Exact float comparison is occasionally intentional
/// (zero-variance guards); those sites carry a reasoned suppression so
/// the byte-identity story stays auditable.
fn float_eq(
    ctx: &FileCtx<'_>,
    t: &Tok,
    prev: Option<&Tok>,
    next: Option<&Tok>,
    next2: Option<&Tok>,
    out: &mut Vec<Finding>,
) {
    if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
        return;
    }
    let is_float =
        |t: Option<&Tok>| matches!(t, Some(t) if t.kind == (TokKind::Num { float: true }));
    let next_neg_float =
        next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "-") && is_float(next2);
    if is_float(prev) || is_float(next) || next_neg_float {
        out.push(finding(
            ctx,
            "float-eq",
            t.line,
            format!(
                "`{}` against a float literal — exact float comparison; justify with lint:allow(float-eq) or compare with a tolerance",
                t.text
            ),
        ));
    }
}

/// `atomics`: raw atomic types / `std::sync::atomic` confined to
/// `sbr-obs`; every other crate records through the `sbr_core::obs`
/// facade handles so metrics stay swappable and orderings live in one
/// audited place.
fn atomics(
    ctx: &FileCtx<'_>,
    t: &Tok,
    prev: Option<&Tok>,
    next: Option<&Tok>,
    out: &mut Vec<Finding>,
) {
    if t.kind != TokKind::Ident {
        return;
    }
    let is_atomic_type = t.text.starts_with("Atomic")
        && t.text
            .as_bytes()
            .get(6)
            .is_some_and(|c| c.is_ascii_uppercase() || c.is_ascii_digit());
    let is_atomic_path = t.text == "atomic"
        && prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == "::")
        && next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "::");
    if is_atomic_type || is_atomic_path {
        out.push(finding(
            ctx,
            "atomics",
            t.line,
            format!(
                "`{}` outside sbr-obs — metrics go through the sbr_core::obs facade; other uses need lint:allow(atomics)",
                t.text
            ),
        ));
    }
}

/// `obs-gate`: inside `sbr-core`, `sbr_obs` paths are confined to the
/// `obs.rs` facade; every other module names the handles through
/// `crate::obs`.
fn obs_gate(ctx: &FileCtx<'_>, t: &Tok, out: &mut Vec<Finding>) {
    if t.kind == TokKind::Ident && t.text == "sbr_obs" {
        out.push(finding(
            ctx,
            "obs-gate",
            t.line,
            "direct sbr_obs path outside the obs facade — name it through crate::obs".into(),
        ));
    }
}

/// Identifier fragments that suggest a length/offset/sequence quantity —
/// the values whose silent truncation corrupts wire or storage bytes.
const SUSPECT_SUBSTR: &[&str] = &[
    "len",
    "count",
    "seq",
    "offset",
    "pos",
    "size",
    "total",
    "ordinal",
    "covered",
    "record",
    "slot",
    "sample",
    "signal",
    "frame",
    "byte",
    "remaining",
    "budget",
    "idx",
    "index",
    "num",
    "first",
];

/// Short identifiers that are length-like in this codebase (`w` is the
/// paper's window width, `n`/`m` element counts, …) — exact match only.
const SUSPECT_EXACT: &[&str] = &[
    "w", "n", "m", "ns", "nu", "ni", "start", "chunk", "cold", "ord",
];

/// Cursor/byte reads whose result provably fits 32 bits: casting them to
/// `usize`/`u64` widens and cannot truncate (the workspace targets
/// 64-bit; DESIGN.md §7b records the assumption).
const SMALL_SOURCES: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "get_u8",
    "get_u16",
    "get_u16_le",
    "get_u32",
    "get_u32_le",
    "take_u8",
    "take_u16",
    "take_u32",
    "read_u16",
    "read_u32",
];

/// `cast-truncation`: in the wire/storage zones, `expr as u32/u64/usize`
/// where the source expression names a length/offset/seq-like value must
/// become `try_from` + `SbrError::Corrupt` (or carry a reasoned allow) —
/// `as` silently wraps, and a wrapped length is a corrupt stream that
/// still parses.
fn cast_truncation(ctx: &FileCtx<'_>, toks: &[Tok], test: &[(u32, u32)], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || in_ranges(test, t.line) {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !matches!(target.text.as_str(), "u32" | "u64" | "usize")
        {
            continue;
        }
        // Walk the source expression backwards (`as` binds tighter than
        // binary operators, so stop at any depth-0 operator) collecting
        // the identifiers it mentions.
        let mut idents: Vec<&str> = Vec::new();
        let mut depth = 0u32;
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 24 {
            j -= 1;
            steps += 1;
            let p = &toks[j];
            match p.kind {
                TokKind::Punct => match p.text.as_str() {
                    ")" | "]" => depth += 1,
                    "(" | "[" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "." | "::" | "?" => {}
                    _ if depth > 0 => {}
                    _ => break,
                },
                TokKind::Ident if p.text == "as" => break,
                TokKind::Ident => idents.push(p.text.as_str()),
                TokKind::Num { .. } => {}
                _ => break,
            }
        }
        let suspect = idents.iter().any(|id| {
            SUSPECT_EXACT.contains(id)
                || SUSPECT_SUBSTR.iter().any(|s| id.to_lowercase().contains(s))
        });
        let widening = matches!(target.text.as_str(), "u64" | "usize")
            && idents.iter().any(|id| SMALL_SOURCES.contains(id));
        if suspect && !widening {
            out.push(finding(
                ctx,
                "cast-truncation",
                t.line,
                format!(
                    "`as {}` on a length/offset-like value in a wire zone — use {}::try_from + SbrError::Corrupt, or justify with lint:allow(cast-truncation)",
                    target.text, target.text
                ),
            ));
        }
    }
}

/// Hash-container methods whose visit order is the hasher's, not the
/// data's.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// `determinism`: iteration over a `HashMap`/`HashSet` declared in the
/// same file (order can leak into output, breaking byte-identity and
/// seeded replay), and wall-clock reads (`Instant::now`, `SystemTime`)
/// outside `sbr-obs`/`bench`.
fn determinism(ctx: &FileCtx<'_>, toks: &[Tok], test: &[(u32, u32)], out: &mut Vec<Finding>) {
    // Pass 1: names declared with a hash-container type or constructor
    // (`pairs: HashMap<…>`, `let seen = HashSet::new()`, …).
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Strip `path::` prefixes and wrapper generics (`Mutex<HashMap…`,
        // `Arc<RwLock<HashMap…`), then expect `name :` or `name =`.
        let mut j = i;
        loop {
            if j >= 2
                && toks[j - 1].kind == TokKind::Punct
                && matches!(toks[j - 1].text.as_str(), "::" | "<")
                && toks[j - 2].kind == TokKind::Ident
            {
                j -= 2;
                continue;
            }
            break;
        }
        if j >= 2
            && toks[j - 1].kind == TokKind::Punct
            && matches!(toks[j - 1].text.as_str(), ":" | "=")
            && toks[j - 2].kind == TokKind::Ident
        {
            hash_names.push(toks[j - 2].text.as_str());
        }
    }
    if !hash_names.is_empty() {
        for (i, t) in toks.iter().enumerate() {
            if in_ranges(test, t.line) {
                continue;
            }
            // `name.iter()` and friends, walking the receiver chain back
            // through `.lock()`-style adaptors.
            let is_iter_call = t.kind == TokKind::Ident
                && HASH_ITER_METHODS.contains(&t.text.as_str())
                && i >= 2
                && toks[i - 1].kind == TokKind::Punct
                && toks[i - 1].text == "."
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
            if is_iter_call {
                let mut depth = 0u32;
                let mut j = i - 1;
                let mut steps = 0;
                let mut hit: Option<&str> = None;
                while j > 0 && steps < 16 {
                    j -= 1;
                    steps += 1;
                    let p = &toks[j];
                    match p.kind {
                        TokKind::Punct => match p.text.as_str() {
                            ")" | "]" => depth += 1,
                            "(" | "[" => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            "." | "::" | "?" => {}
                            _ if depth > 0 => {}
                            _ => break,
                        },
                        TokKind::Ident if depth == 0 => {
                            if hash_names.contains(&p.text.as_str()) {
                                hit = Some(p.text.as_str());
                                break;
                            }
                        }
                        _ => break,
                    }
                }
                if let Some(name) = hit {
                    out.push(finding(
                        ctx,
                        "determinism",
                        t.line,
                        format!(
                            ".{}() on hash container `{}` — iteration order is nondeterministic; use BTreeMap/BTreeSet or sort, or justify with lint:allow(determinism)",
                            t.text, name
                        ),
                    ));
                }
            }
            // `for x in &name { … }` iterating the container directly.
            if t.kind == TokKind::Ident && t.text == "in" {
                let mut j = i + 1;
                while toks
                    .get(j)
                    .is_some_and(|n| n.kind == TokKind::Punct && (n.text == "&" || n.text == "&&"))
                    || toks
                        .get(j)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text == "mut")
                {
                    j += 1;
                }
                let named = toks
                    .get(j)
                    .filter(|n| n.kind == TokKind::Ident && hash_names.contains(&n.text.as_str()));
                let then_brace = toks
                    .get(j + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == "{");
                if let (Some(n), true) = (named, then_brace) {
                    out.push(finding(
                        ctx,
                        "determinism",
                        t.line,
                        format!(
                            "for-loop over hash container `{}` — iteration order is nondeterministic; use BTreeMap/BTreeSet or sort, or justify with lint:allow(determinism)",
                            n.text
                        ),
                    ));
                }
            }
        }
    }
    // Pass 2: wall-clock reads outside the observability/bench crates.
    if ctx.crate_dir == "sbr-obs" || ctx.crate_dir == "bench" {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_ranges(test, t.line) {
            continue;
        }
        let now_read = t.text == "Instant"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "::")
            && toks
                .get(i + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == "now");
        if now_read || t.text == "SystemTime" {
            out.push(finding(
                ctx,
                "determinism",
                t.line,
                format!(
                    "wall-clock read ({}) outside sbr-obs/bench — breaks seeded replay; derive time from the simulation clock, or justify with lint:allow(determinism)",
                    if now_read { "Instant::now" } else { "SystemTime" }
                ),
            ));
        }
    }
}

/// Methods that enter the recorder (and may take its internal locks).
const RECORDER_METHODS: &[&str] = &[
    "record",
    "record_value",
    "frame_event",
    "counter",
    "gauge",
    "histogram",
    "span",
];

/// `lock-discipline`: in `sbr-obs::timeline` and `sensor-net`, a `Mutex`
/// guard must not be held across a call that can re-enter the recorder —
/// the recorder takes its own locks, and holding an unrelated guard
/// across that boundary is how lock-order inversions are born.
///
/// Scope model (conservative, statement-shaped):
/// - `let g = x.lock()…;` holds to the enclosing block's `}` or `drop(g)`;
/// - `for … in x.lock()…` holds through the loop body (the temporary
///   guard lives for the whole loop);
/// - any other `x.lock()` temporary holds to the end of its statement.
fn lock_discipline(ctx: &FileCtx<'_>, toks: &[Tok], test: &[(u32, u32)], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let is_lock = t.kind == TokKind::Ident
            && t.text == "lock"
            && i >= 1
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text == "."
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
        if !is_lock || in_ranges(test, t.line) {
            continue;
        }
        // Statement start: the token after the previous `;`/`{`/`}`.
        let mut s = i;
        while s > 0 {
            let p = &toks[s - 1];
            if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}") {
                break;
            }
            s -= 1;
        }
        let stmt_is_let = toks
            .get(s)
            .is_some_and(|p| p.kind == TokKind::Ident && p.text == "let");
        let stmt_is_for = toks[s..i]
            .iter()
            .any(|p| p.kind == TokKind::Ident && p.text == "for");
        // Walk past the lock-call chain: `lock()` plus any
        // unwrap/expect/unwrap_or_else(...) adaptors.
        let mut j = i + 1; // at `(`
        let mut close = j;
        let mut depth = 0i32;
        while close < toks.len() {
            let p = &toks[close];
            if p.kind == TokKind::Punct {
                match p.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            close += 1;
        }
        j = close + 1;
        loop {
            let dot_adapt = toks
                .get(j)
                .is_some_and(|p| p.kind == TokKind::Punct && p.text == ".")
                && toks.get(j + 1).is_some_and(|p| {
                    p.kind == TokKind::Ident
                        && matches!(p.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                });
            if !dot_adapt {
                break;
            }
            let mut k = j + 2; // at `(`
            let mut d = 0i32;
            while k < toks.len() {
                let p = &toks[k];
                if p.kind == TokKind::Punct {
                    match p.text.as_str() {
                        "(" => d += 1,
                        ")" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
            j = k + 1;
        }
        // Determine the guard's live token span [start, end).
        let chain_ends_stmt = toks
            .get(j)
            .is_some_and(|p| p.kind == TokKind::Punct && p.text == ";");
        let (start, end) = if stmt_is_let && chain_ends_stmt {
            // Guard binding: to the enclosing block's `}` or `drop(g)`.
            let guard = toks[s..i]
                .iter()
                .skip(1)
                .find(|p| p.kind == TokKind::Ident && p.text != "mut")
                .map(|p| p.text.as_str())
                .unwrap_or("");
            let mut e = j + 1;
            let mut d = 0i32;
            while e < toks.len() {
                let p = &toks[e];
                if p.kind == TokKind::Punct {
                    match p.text.as_str() {
                        "{" => d += 1,
                        "}" => {
                            if d == 0 {
                                break;
                            }
                            d -= 1;
                        }
                        _ => {}
                    }
                }
                let dropped = p.kind == TokKind::Ident
                    && p.text == "drop"
                    && toks
                        .get(e + 2)
                        .is_some_and(|g| g.kind == TokKind::Ident && g.text == guard);
                if dropped {
                    break;
                }
                e += 1;
            }
            (j + 1, e)
        } else if stmt_is_for {
            // Loop temporary: through the loop body.
            let mut b = j;
            while b < toks.len() && !(toks[b].kind == TokKind::Punct && toks[b].text == "{") {
                b += 1;
            }
            let mut e = b;
            let mut d = 0i32;
            while e < toks.len() {
                let p = &toks[e];
                if p.kind == TokKind::Punct {
                    match p.text.as_str() {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                e += 1;
            }
            (b, e)
        } else {
            // Statement temporary: to the statement's `;`.
            let mut e = j;
            let mut d = 0i32;
            while e < toks.len() {
                let p = &toks[e];
                if p.kind == TokKind::Punct {
                    match p.text.as_str() {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => d -= 1,
                        ";" if d <= 0 => break,
                        _ => {}
                    }
                }
                e += 1;
            }
            (j, e)
        };
        for k in start..end.min(toks.len()) {
            let p = &toks[k];
            let reenters = p.kind == TokKind::Ident
                && RECORDER_METHODS.contains(&p.text.as_str())
                && k >= 1
                && toks[k - 1].kind == TokKind::Punct
                && toks[k - 1].text == "."
                && toks
                    .get(k + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
            if reenters {
                out.push(finding(
                    ctx,
                    "lock-discipline",
                    p.line,
                    format!(
                        "Mutex guard (locked on line {}) held across recorder call .{}() — release the guard first, or justify with lint:allow(lock-discipline)",
                        t.line, p.text
                    ),
                ));
            }
        }
    }
}

/// Expose the parsed token stream (used by the wire-drift rule and the
/// lexer tests).
pub fn lex_file(src: &str) -> Lexed {
    lex(src)
}
