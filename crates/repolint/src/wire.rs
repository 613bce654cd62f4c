//! Wire-constant drift check: the v2 frame constants live in three
//! places — `crates/sbr-core/src/codec.rs` (the implementation),
//! `tests/wire_compat.rs` (the golden bytes) and the layout table in
//! `DESIGN.md` §3b. They are a compatibility contract with deployed
//! fleets, so this rule parses all three and fails on any disagreement:
//! the magic, the 41-byte v2 header, the kind/epoch field widths, the kind
//! byte values and the CRC-32 check value.
//!
//! The segmented storage format (`sensor-net::storage`, DESIGN.md §3d)
//! is the same kind of contract — stores on disk outlive any one build —
//! so its constants get the same treatment: the `SEG_*`/`CK_*` sizes and
//! magics are evaluated from the source (sum/product const expressions),
//! and both `tests/storage_compat.rs` (golden bytes) and the §3d prose
//! must pin the identical values.

use std::path::Path;

use crate::lexer::{lex, Tok, TokKind};
use crate::Finding;

const CODEC: &str = "crates/sbr-core/src/codec.rs";
const GOLDEN: &str = "tests/wire_compat.rs";
const DESIGN: &str = "DESIGN.md";
const STORAGE: &str = "crates/sensor-net/src/storage.rs";
const STORAGE_GOLDEN: &str = "tests/storage_compat.rs";

/// What the implementation claims the wire format is.
#[derive(Debug)]
struct CodecFacts {
    magic_v2: u64,
    v2_header: u64,
    kind_data: u64,
    kind_resync: u64,
    crc_kat: bool,
}

fn fail(path: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: "wire-drift".into(),
        path: path.into(),
        line,
        message,
        call_path: Vec::new(),
    }
}

/// Parse `0x5342_5232` / `41` (ignoring `_` and type suffixes) to a u64.
fn num(text: &str) -> Option<u64> {
    let t: String = text
        .chars()
        .filter(|c| *c != '_')
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect();
    if let Some(hex) = t.strip_prefix("0x") {
        let hex: String = hex.chars().take_while(char::is_ascii_hexdigit).collect();
        u64::from_str_radix(&hex, 16).ok()
    } else {
        let dec: String = t.chars().take_while(char::is_ascii_digit).collect();
        dec.parse().ok()
    }
}

/// Evaluate `const NAME: … = <literal sum-of-products> ;` from a token
/// stream — covers the `4 + 2 + 4 + 8 + 4` (header sizes) and
/// `64 * 1024` (budgets) spellings the format constants use.
fn const_in(toks: &[Tok], name: &str) -> Option<u64> {
    let ident = |i: usize, n: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == n)
    };
    let punct = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    };
    for i in 0..toks.len() {
        if !(ident(i, name) && punct(i + 1, ":")) {
            continue;
        }
        let eq = (i..toks.len().min(i + 8)).find(|&j| punct(j, "="))?;
        let (mut total, mut product): (u64, Option<u64>) = (0, None);
        for t in &toks[eq + 1..] {
            match &t.kind {
                TokKind::Num { .. } => {
                    let v = num(&t.text)?;
                    product = Some(product.map_or(v, |p| p * v));
                }
                TokKind::Punct if t.text == "+" => {
                    total += product.take()?;
                }
                TokKind::Punct if t.text == "*" => {}
                TokKind::Punct if t.text == ";" => {
                    return Some(total + product.unwrap_or(0));
                }
                _ => return None,
            }
        }
        return None;
    }
    None
}

/// Extract the wire facts out of codec.rs via its token stream.
fn codec_facts(src: &str, out: &mut Vec<Finding>) -> Option<CodecFacts> {
    let toks = lex(src).tokens;
    let ident = |i: usize, name: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    };
    let punct = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    };

    // `const NAME … = <num or sum-of-products expr> ;`
    let const_val = |name: &str| const_in(&toks, name);

    // `FrameKind::Data => <n>` inside encode_v2's match.
    let kind_byte = |variant: &str| -> Option<u64> {
        for i in 0..toks.len() {
            if ident(i, "FrameKind")
                && punct(i + 1, "::")
                && ident(i + 2, variant)
                && punct(i + 3, "=>")
            {
                if let Some(t) = toks.get(i + 4) {
                    if matches!(t.kind, TokKind::Num { .. }) {
                        return num(&t.text);
                    }
                }
            }
        }
        None
    };

    let mut get = |name: &str| match const_val(name) {
        Some(v) => Some(v),
        None => {
            out.push(fail(CODEC, 1, format!("cannot parse const {name}")));
            None
        }
    };
    let magic_v2 = get("MAGIC_V2")?;
    let v2_header = get("V2_HEADER")?;
    let kinds = kind_byte("Data").zip(kind_byte("Resync"));
    let Some((kind_data, kind_resync)) = kinds else {
        out.push(fail(CODEC, 1, "cannot parse FrameKind byte values".into()));
        return None;
    };
    Some(CodecFacts {
        magic_v2,
        v2_header,
        kind_data,
        kind_resync,
        crc_kat: src_has_value(src, 0xCBF4_3926),
    })
}

/// Whether any numeric literal in `src` equals `value`.
fn src_has_value(src: &str, value: u64) -> bool {
    lex(src)
        .tokens
        .iter()
        .any(|t| matches!(t.kind, TokKind::Num { .. }) && num(&t.text) == Some(value))
}

/// Cross-check the golden test file against the implementation.
fn check_golden(src: &str, facts: &CodecFacts, out: &mut Vec<Finding>) {
    for (what, value) in [
        ("v2 magic", facts.magic_v2),
        ("v2 header size", facts.v2_header),
    ] {
        if !src_has_value(src, value) {
            out.push(fail(
                GOLDEN,
                1,
                format!("golden bytes never pin the {what} ({value:#x}) that codec.rs defines"),
            ));
        }
    }
    if !src_has_value(src, 0xCBF4_3926) {
        out.push(fail(
            GOLDEN,
            1,
            "CRC-32 check value 0xCBF4_3926 not pinned".into(),
        ));
    }
}

/// Cross-check the DESIGN.md §3b layout table.
fn check_design(text: &str, facts: &CodecFacts, out: &mut Vec<Finding>) {
    if !facts.crc_kat {
        out.push(fail(
            CODEC,
            1,
            "CRC-32 check value 0xCBF4_3926 missing".into(),
        ));
    }
    let magic_hex = format!("{:#06x}", facts.magic_v2); // 0x5342…
    let spelled = format!("0x5342_{:04x}", facts.magic_v2 & 0xFFFF);
    if !text.contains(&spelled) && !text.contains(&magic_hex) {
        out.push(fail(
            DESIGN,
            1,
            format!("v2 magic {spelled} never appears in the §3b layout table"),
        ));
    }

    // Walk the layout table: offsets must be the running sum of the sizes,
    // and the first variable-size row must start exactly at V2_HEADER.
    let mut cum: u64 = 0;
    let mut rows = 0u32;
    let mut header_checked = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let Some(offset) = num(cells[0]) else {
            if rows > 0 {
                break; // past the fixed-offset prefix (`…`, `end−4` rows)
            }
            continue; // header / separator rows
        };
        // Only the v2 table starts at `| 0 | 4 | magic`.
        if rows == 0 && !(offset == 0 && cells[2].contains("magic")) {
            continue;
        }
        if offset != cum {
            out.push(fail(
                DESIGN,
                lineno,
                format!(
                    "layout table row '{}' is at offset {offset}, but the preceding sizes sum to {cum}",
                    cells[2]
                ),
            ));
            return;
        }
        let field = cells[2];
        match num(cells[1]) {
            Some(size) => {
                if field.contains("kind") && size != 1 {
                    out.push(fail(
                        DESIGN,
                        lineno,
                        format!("kind field is {size} bytes, codec writes 1"),
                    ));
                }
                if field.contains("epoch") && size != 4 {
                    out.push(fail(
                        DESIGN,
                        lineno,
                        format!("epoch field is {size} bytes, codec writes 4 (u32)"),
                    ));
                }
                let plain = line.replace('`', "");
                if field.contains("kind")
                    && !(plain.contains(&format!("{} = Data", facts.kind_data))
                        && plain.contains(&format!("{} = Resync", facts.kind_resync)))
                {
                    out.push(fail(
                        DESIGN,
                        lineno,
                        format!(
                            "kind byte values drifted: codec writes {} = Data, {} = Resync",
                            facts.kind_data, facts.kind_resync
                        ),
                    ));
                }
                cum += size;
                rows += 1;
            }
            None => {
                // First variable-size row: the fixed header ends here.
                if cum != facts.v2_header {
                    out.push(fail(
                        DESIGN,
                        lineno,
                        format!(
                            "fixed header in the table is {cum} bytes, codec's V2_HEADER is {}",
                            facts.v2_header
                        ),
                    ));
                }
                header_checked = true;
                break;
            }
        }
    }
    if rows == 0 {
        out.push(fail(DESIGN, 1, "v2 layout table (§3b) not found".into()));
    } else if !header_checked {
        out.push(fail(
            DESIGN,
            1,
            "v2 layout table has no variable-size rows — cannot locate the header boundary".into(),
        ));
    }
    let header_formula = format!("encoded_len_v2 = {}", facts.v2_header);
    if !text.contains(&header_formula) {
        out.push(fail(
            DESIGN,
            1,
            format!("size formula `{header_formula} + …` missing or drifted"),
        ));
    }
    if !text.contains("0xCBF43926") && !text.contains("0xCBF4_3926") {
        out.push(fail(
            DESIGN,
            1,
            "CRC-32 check value 0xCBF43926 not documented".into(),
        ));
    }
}

/// What the storage engine claims the on-disk format is (all the
/// `pub const` values the §3d contract is built from).
#[derive(Debug)]
struct StorageFacts {
    seg_magic: u64,
    seg_version: u64,
    seg_header: u64,
    record_overhead: u64,
    seg_footer_magic: u64,
    seg_footer: u64,
    ck_magic: u64,
    ck_version: u64,
    ck_header: u64,
    ck_index_entry: u64,
    default_segment_bytes: u64,
}

/// Evaluate the storage format constants out of storage.rs.
fn storage_facts(src: &str, out: &mut Vec<Finding>) -> Option<StorageFacts> {
    let toks = lex(src).tokens;
    let mut get = |name: &str| match const_in(&toks, name) {
        Some(v) => Some(v),
        None => {
            out.push(fail(STORAGE, 1, format!("cannot parse const {name}")));
            None
        }
    };
    Some(StorageFacts {
        seg_magic: get("SEG_MAGIC")?,
        seg_version: get("SEG_VERSION")?,
        seg_header: get("SEG_HEADER")?,
        record_overhead: get("RECORD_OVERHEAD")?,
        seg_footer_magic: get("SEG_FOOTER_MAGIC")?,
        seg_footer: get("SEG_FOOTER")?,
        ck_magic: get("CK_MAGIC")?,
        ck_version: get("CK_VERSION")?,
        ck_header: get("CK_HEADER")?,
        ck_index_entry: get("CK_INDEX_ENTRY")?,
        default_segment_bytes: get("DEFAULT_SEGMENT_BYTES")?,
    })
}

/// The golden test must pin every storage format value by literal — a
/// constant change that only touches storage.rs (so the test would keep
/// passing by re-deriving) is exactly the silent drift this rule exists
/// to catch.
fn check_storage_golden(src: &str, facts: &StorageFacts, out: &mut Vec<Finding>) {
    for (what, value) in [
        ("segment magic", facts.seg_magic),
        ("segment version", facts.seg_version),
        ("segment header size", facts.seg_header),
        ("record framing overhead", facts.record_overhead),
        ("segment footer magic", facts.seg_footer_magic),
        ("segment footer size", facts.seg_footer),
        ("checkpoint magic", facts.ck_magic),
        ("checkpoint version", facts.ck_version),
        ("checkpoint header size", facts.ck_header),
        ("checkpoint index entry size", facts.ck_index_entry),
        ("default segment budget", facts.default_segment_bytes),
    ] {
        if !src_has_value(src, value) {
            out.push(fail(
                STORAGE_GOLDEN,
                1,
                format!("golden bytes never pin the {what} ({value:#x}) that storage.rs defines"),
            ));
        }
    }
    if !src_has_value(src, 0xCBF4_3926) {
        out.push(fail(
            STORAGE_GOLDEN,
            1,
            "CRC-32 check value 0xCBF4_3926 not pinned".into(),
        ));
    }
}

fn spell_magic(v: u64) -> String {
    format!("0x{:04X}_{:04X}", v >> 16, v & 0xFFFF)
}

/// Cross-check the DESIGN.md §3d storage-format section by value
/// presence: the spelled magics, the byte totals, and the default
/// budget must all appear with the numbers storage.rs actually uses.
fn check_storage_design(text: &str, facts: &StorageFacts, out: &mut Vec<Finding>) {
    let Some(at) = text.find("## 3d.") else {
        out.push(fail(
            DESIGN,
            1,
            "storage format section (§3d) not found".into(),
        ));
        return;
    };
    let section = match text[at..].find("\n## ") {
        Some(end) => &text[at..at + end],
        None => &text[at..],
    };
    let checks = [
        ("segment magic", spell_magic(facts.seg_magic)),
        ("footer magic", spell_magic(facts.seg_footer_magic)),
        ("checkpoint magic", spell_magic(facts.ck_magic)),
        (
            "segment header total",
            format!("header total: {}", facts.seg_header),
        ),
        (
            "segment footer total",
            format!("footer total: {}", facts.seg_footer),
        ),
        (
            "checkpoint header size",
            format!("fixed {}-byte header", facts.ck_header),
        ),
        (
            "checkpoint index entry size",
            format!("{}-byte index entry", facts.ck_index_entry),
        ),
        (
            "record framing overhead",
            format!("{} bytes of framing per record", facts.record_overhead),
        ),
        (
            "default segment budget",
            format!("default {} bytes", facts.default_segment_bytes),
        ),
    ];
    for (what, needle) in checks {
        if !section.contains(&needle) {
            out.push(fail(
                DESIGN,
                1,
                format!("§3d never pins the {what} (`{needle}`) that storage.rs defines"),
            ));
        }
    }
    if facts.seg_version != 1 || facts.ck_version != 1 {
        out.push(fail(
            STORAGE,
            1,
            format!(
                "storage format version bumped (segment {} / checkpoint {}): update §3d and \
                 the golden tests, then this rule",
                facts.seg_version, facts.ck_version
            ),
        ));
    }
}

/// Run the whole drift check against a workspace root.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let read = |rel: &str, out: &mut Vec<Finding>| -> Option<String> {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => Some(s),
            Err(e) => {
                out.push(fail(rel, 0, format!("cannot read: {e}")));
                None
            }
        }
    };
    let Some(codec) = read(CODEC, &mut out) else {
        return out;
    };
    let Some(facts) = codec_facts(&codec, &mut out) else {
        return out;
    };
    if let Some(golden) = read(GOLDEN, &mut out) {
        check_golden(&golden, &facts, &mut out);
    }
    let design = read(DESIGN, &mut out);
    if let Some(design) = &design {
        check_design(design, &facts, &mut out);
    }
    if let Some(storage) = read(STORAGE, &mut out) {
        if let Some(sfacts) = storage_facts(&storage, &mut out) {
            if let Some(golden) = read(STORAGE_GOLDEN, &mut out) {
                check_storage_golden(&golden, &sfacts, &mut out);
            }
            if let Some(design) = &design {
                check_storage_design(design, &sfacts, &mut out);
            }
        }
    }
    out
}
