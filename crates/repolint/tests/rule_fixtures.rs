//! Per-rule fixtures: each rule is fed a small synthetic source file and
//! must flag exactly the seeded violations — and nothing else. These are
//! the linter's own regression suite; if a rule loosens or overreaches,
//! a fixture here breaks before the workspace sweep does.

use repolint::rules::{scan_source, FileCtx};

/// A path inside the panic-freedom zones.
fn zone() -> FileCtx<'static> {
    FileCtx {
        path: "crates/sbr-core/src/decoder.rs",
        crate_dir: "sbr-core",
    }
}

/// A path outside the zones (global rules still run).
fn non_zone() -> FileCtx<'static> {
    FileCtx {
        path: "crates/baselines/src/histogram.rs",
        crate_dir: "baselines",
    }
}

fn rules_hit(ctx: &FileCtx<'_>, src: &str) -> Vec<(String, u32)> {
    scan_source(ctx, src)
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn panic_free_flags_every_panic_form() {
    let src = "\
fn f(x: Option<u32>, r: Result<u32, ()>) -> u32 {
    x.unwrap();
    r.expect(\"boom\");
    panic!(\"no\");
    unreachable!();
    todo!();
    unimplemented!()
}
";
    let hits = rules_hit(&zone(), src);
    assert_eq!(
        hits,
        (2..=7)
            .map(|l| ("panic-free".to_string(), l))
            .collect::<Vec<_>>()
    );
}

#[test]
fn panic_free_skips_test_regions_and_non_method_idents() {
    let src = "\
fn unwrap(x: u32) -> u32 { x } // a free fn named unwrap is fine
fn g() { let _ = unwrap(3); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        None::<u32>.unwrap();
        panic!(\"tests may panic\");
    }
}
";
    assert!(rules_hit(&zone(), src).is_empty());
}

#[test]
fn panic_free_and_index_only_fire_inside_the_zones() {
    let src = "fn f(v: &[u32]) -> u32 { v[0] + None::<u32>.unwrap() }\n";
    let in_zone = rules_hit(&zone(), src);
    assert_eq!(
        in_zone,
        vec![("index".to_string(), 1), ("panic-free".to_string(), 1)]
    );
    assert!(rules_hit(&non_zone(), src).is_empty());
}

#[test]
fn index_ignores_literals_macros_and_get() {
    let src = "\
fn f(v: &[u32], i: usize) -> u32 {
    for x in [1, 2, 3] {}
    let a = vec![0u32; 4];
    let b: [u32; 2] = [0, 1];
    v.get(i).copied().unwrap_or(0)
}
";
    assert!(rules_hit(&zone(), src).is_empty());
}

#[test]
fn index_flags_chained_subscripts() {
    // Indexing the result of a call or another subscript panics too.
    let src = "fn f(v: &[Vec<u32>]) -> u32 { v[0][1] + make(v)[2] }\nfn make(v: &[Vec<u32>]) -> Vec<u32> { v.concat() }\n";
    let hits = rules_hit(&zone(), src);
    assert_eq!(hits, vec![("index".to_string(), 1); 3]);
}

#[test]
fn reasoned_allow_suppresses_and_is_reported() {
    let src = "\
fn f(v: &[u32]) -> u32 {
    // lint:allow(index): caller guarantees non-empty via the type invariant
    v[0]
}
";
    let out = scan_source(&zone(), src);
    assert!(out.findings.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].rule, "index");
    assert_eq!(
        out.suppressed[0].reason,
        "caller guarantees non-empty via the type invariant"
    );
}

#[test]
fn same_line_allow_works_and_wrong_rule_does_not() {
    let both = "fn f(v: &[u32]) -> u32 { v[0] } // lint:allow(index): single-element invariant\n";
    assert!(scan_source(&zone(), both).findings.is_empty());
    // An allow for a different rule must not silence the finding.
    let wrong = "\
fn f(v: &[u32]) -> u32 {
    // lint:allow(panic-free): wrong rule name
    v[0]
}
";
    let out = scan_source(&zone(), wrong);
    assert_eq!(rules_hit(&zone(), wrong), vec![("index".to_string(), 3)]);
    assert!(out.suppressed.is_empty());
}

#[test]
fn reasonless_allow_is_itself_a_finding() {
    let src = "\
fn f(v: &[u32]) -> u32 {
    // lint:allow(index):
    v[0]
}
";
    let hits = rules_hit(&zone(), src);
    assert_eq!(
        hits,
        vec![("bad-suppression".to_string(), 2), ("index".to_string(), 3)]
    );
}

#[test]
fn float_eq_flags_literal_comparisons_everywhere() {
    let src = "\
fn f(a: f64, b: f64) -> bool {
    let x = a == 0.0;
    let y = 1.5 != b;
    let z = a == -1.0;
    let ok = a == b;
    x && y && z && ok
}
";
    // Runs outside the zones too — it is a global rule.
    let hits = rules_hit(&non_zone(), src);
    assert_eq!(
        hits,
        (2..=4)
            .map(|l| ("float-eq".to_string(), l))
            .collect::<Vec<_>>()
    );
}

#[test]
fn float_eq_skips_tests_and_integer_literals() {
    let src = "\
fn f(n: usize) -> bool { n == 0 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(super::g() == 0.25); }
}
";
    assert!(rules_hit(&non_zone(), src).is_empty());
}

#[test]
fn atomics_flag_types_and_paths_outside_sbr_obs() {
    let src = "\
use std::sync::atomic::{AtomicUsize, Ordering};
fn f() -> usize {
    let n = AtomicUsize::new(0);
    n.load(Ordering::Relaxed)
}
";
    let hits = rules_hit(&non_zone(), src);
    // Line 1: the `::atomic::` path plus the AtomicUsize import;
    // line 3: the constructor. `Ordering` alone never matches (it is also
    // cmp::Ordering all over the codebase).
    assert_eq!(
        hits,
        vec![
            ("atomics".to_string(), 1),
            ("atomics".to_string(), 1),
            ("atomics".to_string(), 3)
        ]
    );
    let obs = FileCtx {
        path: "crates/sbr-obs/src/metrics.rs",
        crate_dir: "sbr-obs",
    };
    assert!(rules_hit(&obs, src).is_empty());
}

#[test]
fn cmp_ordering_is_not_an_atomic() {
    let src = "use std::cmp::Ordering;\nfn f(a: u32, b: u32) -> Ordering { a.cmp(&b) }\n";
    assert!(rules_hit(&non_zone(), src).is_empty());
}

#[test]
fn obs_gate_requires_cfg_feature_in_sbr_core() {
    let ungated = "pub fn hot() { sbr_obs::trace(\"x\"); }\n";
    assert_eq!(
        rules_hit(&zone(), ungated),
        vec![("obs-gate".to_string(), 1)]
    );

    let gated = "\
#[cfg(feature = \"obs\")]
pub fn hot() {
    sbr_obs::trace(\"x\");
}
";
    assert!(rules_hit(&zone(), gated).is_empty());

    // The facade module itself and other crates are exempt.
    let facade = FileCtx {
        path: "crates/sbr-core/src/obs.rs",
        crate_dir: "sbr-core",
    };
    assert!(rules_hit(&facade, ungated).is_empty());
    let sensor_net = FileCtx {
        path: "crates/sensor-net/src/node.rs",
        crate_dir: "sensor-net",
    };
    assert!(rules_hit(&sensor_net, ungated).is_empty());
}

#[test]
fn obs_gate_covers_timeline_shaped_uses() {
    // The frame-lifecycle timeline hooks follow the same contract as the
    // metric handles: `sbr_obs::Timeline` in a signature or body of
    // `sbr-core` must sit under `cfg(feature = "obs")`.
    let ungated_sig = "pub fn with_timeline(t: sbr_obs::Timeline) {}\n";
    assert_eq!(
        rules_hit(&zone(), ungated_sig),
        vec![("obs-gate".to_string(), 1)]
    );

    let gated_sig = "\
#[cfg(feature = \"obs\")]
pub fn with_timeline(mut self, timeline: sbr_obs::Timeline) -> Self {
    self.obs.set_timeline(timeline);
    self
}
";
    assert!(rules_hit(&zone(), gated_sig).is_empty());

    // An ungated use *after* a gated item is still flagged: the gate
    // covers exactly one item, not the rest of the file.
    let trailing = "\
#[cfg(feature = \"obs\")]
pub fn gated() { sbr_obs::Timeline::noop(); }
pub fn leaked() { sbr_obs::Timeline::noop(); }
";
    assert_eq!(
        rules_hit(&zone(), trailing),
        vec![("obs-gate".to_string(), 3)]
    );
}

#[test]
fn report_json_escapes_and_carries_both_lists() {
    let mut rep = repolint::Report {
        files_scanned: 2,
        ..Default::default()
    };
    rep.findings.push(repolint::Finding {
        rule: "panic-free".into(),
        path: "crates/x/src/a.rs".into(),
        line: 7,
        message: "quote \" backslash \\ newline \n end".into(),
        call_path: Vec::new(),
    });
    rep.findings.push(repolint::Finding {
        rule: "panic-reachability".into(),
        path: "crates/x/src/a.rs".into(),
        line: 11,
        message: "zone fn reaches a sink".into(),
        call_path: vec![
            "zone@crates/x/src/a.rs:11".into(),
            "sink@crates/x/src/b.rs:3".into(),
        ],
    });
    rep.suppressed.push(repolint::Suppressed {
        rule: "index".into(),
        path: "crates/x/src/b.rs".into(),
        line: 9,
        reason: "tab\there".into(),
    });
    let json = repolint::report::to_json(&rep);
    assert!(json.contains("\"schema\": \"repolint/v2\""));
    assert!(json.contains("\"files_scanned\": 2"));
    assert!(json.contains("quote \\\" backslash \\\\ newline \\n end"));
    assert!(json.contains("tab\\there"));
    assert!(json.contains("\"line\": 7"));
    assert!(json.contains("\"line\": 9"));
    // v2 additions: every finding carries its rule family; only the
    // reachability finding carries a call_path.
    assert!(json.contains("\"rule_family\": \"panic\""));
    assert!(json
        .contains("\"call_path\": [\"zone@crates/x/src/a.rs:11\", \"sink@crates/x/src/b.rs:3\"]"));
    assert_eq!(json.matches("\"call_path\"").count(), 1);
}

#[test]
fn rule_families_cover_every_rule() {
    for (rule, family) in [
        ("panic-free", "panic"),
        ("index", "panic"),
        ("panic-reachability", "panic"),
        ("cast-truncation", "cast"),
        ("determinism", "determinism"),
        ("lock-discipline", "lock"),
        ("float-eq", "float"),
        ("atomics", "confinement"),
        ("obs-gate", "confinement"),
        ("wire-drift", "wire"),
        ("manifest", "manifest"),
        ("bad-suppression", "hygiene"),
    ] {
        assert_eq!(repolint::rule_family(rule), family, "{rule}");
    }
}

// --- cast-truncation ---

/// A wire-zone path (codec/decoder/transmission/storage).
fn cast_zone() -> FileCtx<'static> {
    FileCtx {
        path: "crates/sensor-net/src/storage.rs",
        crate_dir: "sensor-net",
    }
}

#[test]
fn cast_truncation_flags_narrowing_of_suspect_values() {
    let src = "\
fn f(v: &[u8], count: u64, offset: u64) -> u32 {
    let a = count as u32;
    let b = v.len() as u32;
    let c = offset as usize;
    a + b + c as u32
}
";
    let hits = rules_hit(&cast_zone(), src);
    assert!(
        hits.contains(&("cast-truncation".to_string(), 2)),
        "{hits:?}"
    );
    assert!(
        hits.contains(&("cast-truncation".to_string(), 3)),
        "{hits:?}"
    );
    assert!(
        hits.contains(&("cast-truncation".to_string(), 4)),
        "{hits:?}"
    );
}

#[test]
fn cast_truncation_skips_widening_small_sources_and_non_zones() {
    // u8/u16 reads widened to usize/u64 cannot truncate; non-suspect
    // names and non-zone files are out of scope.
    let src = "\
fn f(v: &[u8], flags: u8) -> usize {
    let a = get_u16(v) as usize;
    let b = flags as usize;
    a + b
}
fn get_u16(_v: &[u8]) -> u16 { 0 }
";
    assert!(rules_hit(&cast_zone(), src).is_empty());
    let narrowing = "fn f(count: u64) -> u32 { count as u32 }\n";
    assert!(rules_hit(&non_zone(), narrowing).is_empty());
}

#[test]
fn cast_truncation_allow_suppresses_with_reason() {
    let src = "\
fn f(v: &[u8]) -> u32 {
    // lint:allow(cast-truncation): record length guarded by append
    v.len() as u32
}
";
    let out = scan_source(&cast_zone(), src);
    assert!(out.findings.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].rule, "cast-truncation");
}

// --- determinism ---

#[test]
fn determinism_flags_hash_iteration_and_wall_clock() {
    let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> u64 {
    let table: HashMap<u32, u32> = HashMap::new();
    for (k, v) in table.iter() {
        let _ = (k, v);
    }
    let t = std::time::Instant::now();
    let _ = t;
    0
}
";
    let hits = rules_hit(&non_zone(), src);
    assert!(
        hits.contains(&("determinism".to_string(), 4)),
        "hash iteration not flagged: {hits:?}"
    );
    assert!(
        hits.contains(&("determinism".to_string(), 7)),
        "wall-clock read not flagged: {hits:?}"
    );
}

#[test]
fn determinism_tracks_wrapped_declarations_and_for_loops() {
    let src = "\
use std::collections::HashMap;
use std::sync::Mutex;
struct S { logs: Mutex<HashMap<u32, u32>> }
fn f(s: &S, table: HashMap<u32, u32>) -> u32 {
    for (k, _) in &table {
        let _ = k;
    }
    0
}
";
    let hits = rules_hit(&non_zone(), src);
    assert!(
        hits.contains(&("determinism".to_string(), 5)),
        "for-loop over a hash container not flagged: {hits:?}"
    );
}

#[test]
fn determinism_spares_btree_obs_crates_and_tests() {
    let btree = "\
use std::collections::BTreeMap;
fn f(table: BTreeMap<u32, u32>) -> u32 {
    for (k, _) in table.iter() {
        let _ = k;
    }
    0
}
";
    assert!(rules_hit(&non_zone(), btree).is_empty());
    // sbr-obs and bench own wall-clock reads by design.
    let clock = "fn f() { let _ = std::time::Instant::now(); }\n";
    let obs = FileCtx {
        path: "crates/sbr-obs/src/recorder.rs",
        crate_dir: "sbr-obs",
    };
    assert!(rules_hit(&obs, clock).is_empty());
    let in_test = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = std::time::Instant::now(); }
}
";
    assert!(rules_hit(&non_zone(), in_test).is_empty());
}

// --- lock-discipline ---

/// A path the lock-discipline rule watches.
fn lock_zone() -> FileCtx<'static> {
    FileCtx {
        path: "crates/sensor-net/src/network.rs",
        crate_dir: "sensor-net",
    }
}

#[test]
fn lock_discipline_flags_guard_held_across_recorder_reentry() {
    let src = "\
fn f(m: &std::sync::Mutex<u32>, obs: &Obs) {
    let g = m.lock().unwrap();
    obs.record(*g);
}
";
    let hits = rules_hit(&lock_zone(), src);
    assert!(
        hits.contains(&("lock-discipline".to_string(), 3)),
        "guard across recorder call not flagged: {hits:?}"
    );
}

#[test]
fn lock_discipline_accepts_drop_before_reentry_and_other_paths() {
    let dropped = "\
fn f(m: &std::sync::Mutex<u32>, obs: &Obs) {
    let g = m.lock().unwrap();
    let v = *g;
    drop(g);
    obs.record(v);
}
";
    assert!(rules_hit(&lock_zone(), dropped)
        .iter()
        .all(|(r, _)| r != "lock-discipline"));
    // Files outside timeline.rs / sensor-net are not watched.
    let src = "\
fn f(m: &std::sync::Mutex<u32>, obs: &Obs) {
    let g = m.lock().unwrap();
    obs.record(*g);
}
";
    assert!(rules_hit(&non_zone(), src)
        .iter()
        .all(|(r, _)| r != "lock-discipline"));
}
