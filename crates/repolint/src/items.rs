//! Item-level analysis: a lightweight `fn` parser over the lexer's token
//! stream, a name-resolution-lite call graph across the workspace, and
//! the `panic-reachability` pass that walks it.
//!
//! The parser extracts every production `fn` item (name, definition line,
//! self-receiver, body span) and, inside each body, the call sites and
//! panicking sinks. Resolution is *name-resolution-lite* by design —
//! std-only, no `syn`, no type inference:
//!
//! - a method call `.foo(…)` widens to every workspace `fn foo` that
//!   takes a `self` receiver;
//! - a free or path call `foo(…)` / `x::foo(…)` widens to every
//!   workspace `fn foo`;
//! - calls that resolve to nothing in the workspace (std, vendored
//!   crates) contribute no edge.
//!
//! The contract is conservative over-approximation: the graph may
//! contain edges the compiler would never take (same-named methods on
//! unrelated types), so a clean pass proves the absence of reachable
//! panics, while an individual finding may need a reasoned
//! `lint:allow(panic-reachability)` at the sink or call site.

use std::collections::HashMap;

use crate::lexer::{Allow, Lexed, Tok, TokKind};
use crate::rules::{FileCtx, NON_INDEX_KEYWORDS, PANIC_FREE_ZONES};
use crate::{Finding, Suppressed};

/// Keywords that read like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "in", "for", "loop", "let", "as", "move", "fn", "unsafe",
    "else", "await", "box", "ref", "mut", "use", "pub", "where", "impl", "dyn",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`decode_exact`, `push`, …).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// True for `.name(…)` method syntax (widened over self-receivers).
    pub method: bool,
}

/// The kind of panicking sink a body contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `.unwrap()` / `.expect(…)` — workspace-wide.
    UnwrapExpect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` — workspace-wide.
    PanicMacro,
    /// Unguarded `expr[…]` subscript — panic-freedom zones only.
    Index,
    /// `.copy_from_slice(…)` / `.copy_to_slice(…)` (length-mismatch
    /// panics) — panic-freedom zones only.
    CopySlice,
    /// Integer `/` or `%` by a non-constant — panic-freedom zones only.
    DivMod,
}

/// One panicking sink inside a function body.
#[derive(Debug, Clone)]
pub struct SinkSite {
    /// What kind of sink.
    pub kind: SinkKind,
    /// Short spelling for messages (`unwrap()`, `copy_from_slice()`, …).
    pub what: String,
    /// 1-based line of the sink token.
    pub line: u32,
}

/// One parsed production `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Call sites inside the body (nested items included, conservatively).
    pub calls: Vec<CallSite>,
    /// Panicking sinks inside the body, after suppression.
    pub sinks: Vec<SinkSite>,
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

fn reasoned_allow<'a>(allows: &'a [Allow], rule: &str, line: u32) -> Option<&'a Allow> {
    allows
        .iter()
        .find(|a| a.rule == rule && !a.reason.is_empty() && (a.line == line || a.line + 1 == line))
}

/// Parse every production `fn` item out of one file's token stream.
/// Sinks carrying a reasoned `lint:allow(panic-reachability)` are dropped
/// from the graph and recorded in `suppressed`; sinks already excused by
/// the token rules' own allows (`panic-free`, `index`) are dropped
/// silently — those suppressions are recorded by the token rules.
pub fn collect(
    ctx: &FileCtx<'_>,
    lexed: &Lexed,
    test_ranges: &[(u32, u32)],
    suppressed: &mut Vec<Suppressed>,
) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let zone = PANIC_FREE_ZONES.contains(&ctx.path);
    let mut items = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let t = &toks[i];
        let named = t.kind == TokKind::Ident
            && t.text == "fn"
            && toks[i + 1].kind == TokKind::Ident
            && !in_ranges(test_ranges, t.line);
        if !named {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = t.line;
        // Params `(` at generic-angle depth 0 (so `fn f<F: Fn() -> T>` is
        // not fooled by the bound's parens); `;`/`{` first means a
        // bodyless trait signature or malformed item — skip.
        let mut j = i + 2;
        let mut angle: i32 = 0;
        let mut params = None;
        while j < toks.len() {
            let tt = &toks[j];
            if tt.kind == TokKind::Punct {
                match tt.text.as_str() {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle = (angle - 1).max(0),
                    ">>" => angle = (angle - 2).max(0),
                    "(" if angle == 0 => {
                        params = Some(j);
                    }
                    ";" | "{" => break,
                    _ => {}
                }
            }
            if params.is_some() {
                break;
            }
            j += 1;
        }
        let Some(ps) = params else {
            i += 2;
            continue;
        };
        // Self receiver: an Ident `self` in the first parameter slot.
        let mut has_self = false;
        let mut k = ps + 1;
        let mut depth = 1i32;
        while k < toks.len() && depth > 0 {
            let tt = &toks[k];
            if tt.kind == TokKind::Punct {
                match tt.text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "," if depth == 1 => break,
                    _ => {}
                }
            }
            if tt.kind == TokKind::Ident && tt.text == "self" {
                has_self = true;
                break;
            }
            k += 1;
        }
        // Skip to the params' closing `)`, then the body braces.
        let mut k = ps;
        let mut depth = 0i32;
        while let Some(tt) = toks.get(k) {
            if is_punct(tt, "(") {
                depth += 1;
            } else if is_punct(tt, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let mut body = None;
        let mut m = k + 1;
        while m < toks.len() {
            let tt = &toks[m];
            if is_punct(tt, ";") {
                break; // trait method declaration, no body
            }
            if is_punct(tt, "{") {
                body = Some(m);
                break;
            }
            m += 1;
        }
        let Some(bs) = body else {
            i += 2;
            continue;
        };
        let mut be = bs;
        let mut depth = 0i32;
        while be < toks.len() {
            let tt = &toks[be];
            if is_punct(tt, "{") {
                depth += 1;
            } else if is_punct(tt, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            be += 1;
        }
        let mut item = FnItem {
            name,
            path: ctx.path.to_string(),
            line,
            has_self,
            calls: Vec::new(),
            sinks: Vec::new(),
        };
        extract_body(
            toks,
            bs + 1..be,
            &lexed.allows,
            zone,
            ctx,
            &mut item,
            suppressed,
        );
        items.push(item);
        // Continue right after the name so nested `fn` items are also
        // collected as their own nodes (their calls stay attributed to the
        // enclosing item too — conservative, per the module contract).
        i += 2;
    }
    items
}

/// Scan one body span for call sites and panicking sinks.
#[allow(clippy::too_many_arguments)]
fn extract_body(
    toks: &[Tok],
    range: std::ops::Range<usize>,
    allows: &[Allow],
    zone: bool,
    ctx: &FileCtx<'_>,
    item: &mut FnItem,
    suppressed: &mut Vec<Suppressed>,
) {
    let mut push_sink = |kind: SinkKind, what: &str, line: u32, sinks: &mut Vec<SinkSite>| {
        if let Some(a) = reasoned_allow(allows, "panic-reachability", line) {
            suppressed.push(Suppressed {
                rule: "panic-reachability".into(),
                path: ctx.path.into(),
                line,
                reason: a.reason.clone(),
            });
            return;
        }
        // In the zones, the token rules already police (and record
        // suppressions for) these sink kinds — honour their allows
        // silently so one annotation clears both passes.
        if zone {
            let token_rule = match kind {
                SinkKind::UnwrapExpect | SinkKind::PanicMacro => Some("panic-free"),
                SinkKind::Index => Some("index"),
                SinkKind::CopySlice | SinkKind::DivMod => None,
            };
            if let Some(rule) = token_rule {
                if reasoned_allow(allows, rule, line).is_some() {
                    return;
                }
            }
        }
        sinks.push(SinkSite {
            kind,
            what: what.into(),
            line,
        });
    };

    for i in range.clone() {
        let t = &toks[i];
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);
        let next_is = |s: &str| next.is_some_and(|n| is_punct(n, s));
        let prev_is = |s: &str| prev.is_some_and(|p| is_punct(p, s));

        if t.kind == TokKind::Ident && next_is("(") {
            match t.text.as_str() {
                "unwrap" | "expect" if prev_is(".") => {
                    push_sink(
                        SinkKind::UnwrapExpect,
                        &format!("{}()", t.text),
                        t.line,
                        &mut item.sinks,
                    );
                }
                "copy_from_slice" | "copy_to_slice" if zone && prev_is(".") => {
                    push_sink(
                        SinkKind::CopySlice,
                        &format!("{}()", t.text),
                        t.line,
                        &mut item.sinks,
                    );
                }
                _ => {}
            }
            let callable = !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                && !t.text.chars().next().is_some_and(|c| c.is_uppercase());
            if callable {
                item.calls.push(CallSite {
                    name: t.text.clone(),
                    line: t.line,
                    method: prev_is("."),
                });
            }
        }
        if t.kind == TokKind::Ident && next_is("!") {
            if let "panic" | "unreachable" | "todo" | "unimplemented" = t.text.as_str() {
                push_sink(
                    SinkKind::PanicMacro,
                    &format!("{}!", t.text),
                    t.line,
                    &mut item.sinks,
                );
            }
        }
        if zone && is_punct(t, "[") {
            let indexable = prev.is_some_and(|p| match p.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.text == ")" || p.text == "]",
                _ => false,
            });
            if indexable {
                push_sink(SinkKind::Index, "index[]", t.line, &mut item.sinks);
            }
        }
        if zone && t.kind == TokKind::Punct && (t.text == "/" || t.text == "%") {
            let divisor_var = next.is_some_and(|n| {
                n.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&n.text.as_str())
            });
            // Float division cannot panic; `… as f64 / x` and `1.0 / x`
            // are visibly float-typed at the token level.
            let dividend = prev.is_some_and(|p| match p.kind {
                TokKind::Ident => {
                    !NON_CALL_KEYWORDS.contains(&p.text.as_str())
                        && p.text != "f64"
                        && p.text != "f32"
                }
                TokKind::Punct => p.text == ")" || p.text == "]",
                TokKind::Num { float } => !float,
                _ => false,
            });
            if divisor_var && dividend {
                let what = if t.text == "/" {
                    "div-by-var"
                } else {
                    "mod-by-var"
                };
                push_sink(SinkKind::DivMod, what, t.line, &mut item.sinks);
            }
        }
    }
}

/// Per-file input to the reachability pass.
pub struct FileItems {
    /// Workspace-relative path.
    pub path: String,
    /// Parsed production fn items.
    pub fns: Vec<FnItem>,
    /// The file's inline allows (for call-site suppressions).
    pub allows: Vec<Allow>,
}

/// The `panic-reachability` pass: every `fn` defined in a panic-freedom
/// zone must not reach a panicking sink through the call graph.
///
/// Transitive sinks (≥ 1 call edge away) are reported once per
/// (zone fn, call-site line), anchored at the zone fn's call site, with
/// the shortest zone→sink path in `call_path`. Direct sinks of the kinds
/// the token rules do not cover (`copy_from_slice`, div-mod) are
/// reported at the sink line itself.
pub fn reachability(
    files: &[FileItems],
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<Suppressed>,
) {
    // Flatten to an indexed node list.
    let mut fns: Vec<&FnItem> = Vec::new();
    for f in files {
        fns.extend(f.fns.iter());
    }
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(id);
    }
    let resolve = |c: &CallSite| -> Vec<usize> {
        let Some(cands) = by_name.get(c.name.as_str()) else {
            return Vec::new();
        };
        cands
            .iter()
            .copied()
            .filter(|&id| !c.method || fns[id].has_self)
            .collect()
    };

    // dist[f] = call edges from f to the nearest sink-containing fn
    // (0 when f itself holds a sink); hop[f] = next callee on that path.
    // Multi-source BFS over reverse edges gives shortest paths.
    const INF: u32 = u32::MAX;
    let mut dist = vec![INF; fns.len()];
    let mut hop = vec![usize::MAX; fns.len()];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (caller, f) in fns.iter().enumerate() {
        for c in &f.calls {
            for callee in resolve(c) {
                rev[callee].push(caller);
            }
        }
    }
    let mut queue = std::collections::VecDeque::new();
    for (id, f) in fns.iter().enumerate() {
        if !f.sinks.is_empty() {
            dist[id] = 0;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &caller in &rev[id] {
            if dist[caller] == INF {
                dist[caller] = dist[id] + 1;
                hop[caller] = id;
                queue.push_back(caller);
            }
        }
    }

    // Render `name (path:line)` path elements.
    let fn_at = |id: usize| format!("{}@{}:{}", fns[id].name, fns[id].path, fns[id].line);
    let path_from = |mut id: usize| -> Vec<String> {
        let mut out = vec![fn_at(id)];
        while dist[id] > 0 {
            id = hop[id];
            out.push(fn_at(id));
        }
        let sink = &fns[id].sinks[0];
        out.push(format!("{}@{}:{}", sink.what, fns[id].path, sink.line));
        out
    };

    let mut seen: std::collections::HashSet<(String, u32)> = std::collections::HashSet::new();
    for file in files {
        if !PANIC_FREE_ZONES.contains(&file.path.as_str()) {
            continue;
        }
        for root in &file.fns {
            // Direct sinks the token rules cannot see.
            for s in &root.sinks {
                if matches!(s.kind, SinkKind::CopySlice | SinkKind::DivMod)
                    && seen.insert((file.path.clone(), s.line))
                {
                    findings.push(Finding {
                        rule: "panic-reachability".into(),
                        path: file.path.clone(),
                        line: s.line,
                        message: format!(
                            "{} in zone fn `{}` can panic — bounds-check and return SbrError::Corrupt, or justify with lint:allow(panic-reachability)",
                            s.what, root.name
                        ),
                        call_path: vec![
                            fn_at_item(root),
                            format!("{}@{}:{}", s.what, file.path, s.line),
                        ],
                    });
                }
            }
            // Transitive sinks through the call graph.
            for c in &root.calls {
                let best = resolve(c)
                    .into_iter()
                    .filter(|&id| dist[id] != INF)
                    .min_by_key(|&id| dist[id]);
                let Some(id) = best else { continue };
                if let Some(a) = reasoned_allow(&file.allows, "panic-reachability", c.line) {
                    suppressed.push(Suppressed {
                        rule: "panic-reachability".into(),
                        path: file.path.clone(),
                        line: c.line,
                        reason: a.reason.clone(),
                    });
                    continue;
                }
                if !seen.insert((file.path.clone(), c.line)) {
                    continue;
                }
                let mut call_path = vec![fn_at_item(root)];
                call_path.extend(path_from(id));
                let sink = call_path.last().cloned().unwrap_or_default();
                findings.push(Finding {
                    rule: "panic-reachability".into(),
                    path: file.path.clone(),
                    line: c.line,
                    message: format!(
                        "zone fn `{}` can reach {} via {} — make the path return SbrError, or justify with lint:allow(panic-reachability)",
                        root.name,
                        sink,
                        call_path.join(" -> "),
                    ),
                    call_path,
                });
            }
        }
    }
}

fn fn_at_item(f: &FnItem) -> String {
    format!("{}@{}:{}", f.name, f.path, f.line)
}
