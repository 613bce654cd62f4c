#!/usr/bin/env bash
# Tier-1+ verification entry point: everything CI runs, runnable locally.
#
#   scripts/ci.sh            # full pass
#   scripts/ci.sh --no-bench # skip the fig5 perf gate
#
# The build is fully offline: every external dependency is vendored under
# vendor/ and pinned by the committed Cargo.lock.

set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
for arg in "$@"; do
  case "$arg" in
    --no-bench) run_bench=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> one build configuration (no [features] tables, no cfg(feature gates)"
# Guard: the workspace builds one way. A [features] table in a manifest, or
# a cfg(feature …) gate in the sources, would bring back a configuration
# that the build and test steps above never compile.
if grep -ln '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
  echo "a manifest above declares a [features] table" >&2; exit 1
fi
if grep -rn 'cfg(feature' crates/*/src src tests examples; then
  echo "a cfg(feature gate is back in the sources above" >&2; exit 1
fi

echo "==> sbr-core spawns no thread (the encoder runs on the calling thread)"
# Guard: the paper's encoder runs on a sensor node's one CPU, and so does
# this one: Search probes and GetBase rows run one after another, and the
# probe cache and the sweep's window tables are RefCell/OnceCell state that
# no second thread may touch. A std::thread, thread::scope or thread::spawn
# under crates/sbr-core/src would bring a fan-out back.
if grep -rnE 'std::thread|thread::(scope|spawn)' crates/sbr-core/src; then
  echo "crates/sbr-core/src names a thread above" >&2; exit 1
fi

echo "==> one wire parser (every bytes::Buf reader is a panic-free and cast zone)"
# Guard: the codec is the one parser of outside bytes, and repolint holds
# it to "hostile bytes never panic" and "no truncating casts". A second
# file that reads frames through bytes::Buf must sit in both of repolint's
# zone lists, or that contract silently stops covering it.
panic_free="$(sed -n '/^pub const PANIC_FREE_ZONES/,/^];/p' crates/repolint/src/rules.rs)"
cast="$(sed -n '/^pub const CAST_ZONES/,/^];/p' crates/repolint/src/rules.rs)"
for f in $(grep -rlzE 'bytes::(Buf\b|\{[^}]*\bBuf\b)' crates/*/src); do
  if ! grep -qF "\"$f\"" <<<"$panic_free" || ! grep -qF "\"$f\"" <<<"$cast"; then
    echo "$f reads bytes::Buf but is not in both PANIC_FREE_ZONES and CAST_ZONES" >&2; exit 1
  fi
done

echo "==> one frame-admission step (the store never parses a frame)"
# Guard: the segmented store checks only its own format (record lengths
# and CRCs, headers, footers, checkpoints) and hands back bytes. The
# station's one step (codec::decode_exact, then QueryEngine::index_frame)
# admits every frame, received or replayed from disk. A frame decoder
# called from storage.rs outside its #[cfg(test)] items would bring back
# a second copy of the frame rules, free to disagree with the first.
if awk '
  !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
  skip {
    o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c
    if (o > 0) opened = 1
    if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
    next
  }
  /^[[:space:]]*\/\// { next }
  { print FILENAME ":" FNR ": " $0 }
' crates/sensor-net/src/storage.rs | grep -E 'codec::decode|\bdecode_(any|v1|v2|exact)\b'; then
  echo "crates/sensor-net/src/storage.rs decodes frames outside its tests (above)" >&2; exit 1
fi

echo "==> one unsafe block (the run-time AVX2 dispatch of the shift sweep)"
# Guard: the workspace denies unsafe_code, with one scoped exception: the
# call into the AVX2 build of BestMap's shift sweep, made right after the
# CPU has reported AVX2. Product code under crates/*/src holds exactly
# that one unsafe, in best_map.rs, under a // SAFETY: comment and in the
# function that runs is_x86_feature_detected!("avx2"). Every
# target_feature attribute enables avx2 alone: "fma" would let the
# backend fuse a lane's multiply and add, and the AVX2 build would stop
# giving the portable build's bits. Comments are stripped before the
# search; a string holding the word "unsafe" is not a block.
python3 - <<'PYEOF'
import pathlib, re, sys

block = re.compile(r'\bunsafe\b\s*(\{|\(|fn\b|impl\b|trait\b|extern\b|$)')
feature = re.compile(r'#\[target_feature\((.*?)\)\]')
fn_head = re.compile(r'^\s*(pub(\([^)]*\))?\s+)?(const\s+)?fn\s')
hits, bad = [], []
for path in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
    lines = path.read_text().split("\n")
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if block.search(code):
            hits.append((str(path), i, lines))
        for m in feature.finditer(code):
            if m.group(1).strip() != 'enable = "avx2"':
                bad.append(f"{path}:{i + 1}: {line.strip()}")
if bad:
    sys.exit("a target_feature attribute enables more than avx2:\n" + "\n".join(bad))
if len(hits) != 1 or hits[0][0] != "crates/sbr-core/src/best_map.rs":
    where = "\n".join(f"{p}:{i + 1}: {l[i].strip()}" for p, i, l in hits)
    sys.exit(f"want exactly one unsafe, in crates/sbr-core/src/best_map.rs; found {len(hits)}:\n{where}")
path, i, lines = hits[0]
above, j = [], i - 1
while j >= 0 and lines[j].strip().startswith("//") and not lines[j].strip().startswith("///"):
    above.append(lines[j].strip())
    j -= 1
if not any(c.startswith("// SAFETY:") for c in above):
    sys.exit(f"{path}:{i + 1}: the unsafe block has no // SAFETY: comment directly above it")
head = next((k for k in range(i, -1, -1) if fn_head.match(lines[k])), None)
if head is None or 'is_x86_feature_detected!("avx2")' not in "\n".join(lines[head:i]):
    sys.exit(f'{path}:{i + 1}: the unsafe block\'s function does not run is_x86_feature_detected!("avx2") before it')
lints = pathlib.Path("Cargo.toml").read_text()
if not re.search(r'^unsafe_code = "deny"$', lints, re.M):
    sys.exit('the root Cargo.toml no longer says unsafe_code = "deny"')
print(f"    one unsafe block: {path}:{i + 1}")
PYEOF

echo "==> portable and AVX2 sweeps agree (release build, packed lanes)"
# Guard: on an AVX2 host every sweep takes the AVX2 build, so the
# portable build is exercised only by this unit test. The debug build of
# the test step above keeps the lanes scalar; the release build runs them
# packed, two per SSE2 register and four per AVX2 register, as shipped.
sweeps="$(cargo test -q --release --offline -p sbr-core --lib -- --exact \
  best_map::tests::portable_and_dispatched_sweeps_agree_bit_for_bit)"
echo "$sweeps" | grep -q "1 passed" \
  || { echo "the portable-vs-dispatched sweep test did not run:"; echo "$sweeps"; exit 1; } >&2

echo "==> rustdoc -D warnings (every crates/* package, vendor stubs excluded)"
# Guard: broken, private or ambiguous intra-doc links are warnings that
# no other step reads; here they fail the pass.
doc_pkgs=()
for manifest in crates/*/Cargo.toml; do
  doc_pkgs+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -1)")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q "${doc_pkgs[@]}"

echo "==> reference-encoder differential suite (every config byte-identical to the reference)"
# Guard: the Search probe cache, the GetBase fit cache, the blocked shift
# sweep and the worker fan-out only reorder evaluation — every
# encoder configuration must emit the same bytes as the straight-line
# reference encoder in tests/common (direct sweeps, no caches, no threads).
# The product transmits its Search's memoized winning probe where the
# reference re-fits X_new after the search, so this also holds the final
# fit to the reference's whole-dictionary GetIntervals.
cargo test -q --offline --test reference_diff

echo "==> query differential suite (compressed-domain engine vs decode-then-scan oracle)"
# Guard: the compressed-domain query engine answers from closed-form
# interval moments and, between a range's boundary chunks, from its
# aligned chunk-block index — min/max must match the decode-then-scan
# oracle in tests/common (reference_aggregate: Decoder::replay, then fold
# the slice) bit for bit, sums within 1e-9 relative, across metrics,
# search strategies, thread counts and recovered station indexes. The
# block-index differential (a 37-chunk stream, every aligned range plus a
# seeded unaligned sweep) is run by name as well, so renaming it away
# fails here instead of silently dropping out.
cargo test -q --offline --test query_diff
blocks="$(cargo test -q --offline --test query_diff -- --exact \
  block_index_agrees_on_a_non_power_of_two_stream)"
echo "$blocks" | grep -q "1 passed" \
  || { echo "the block-index differential did not run:"; echo "$blocks"; exit 1; } >&2

echo "==> reconstruction differential (station chunks from summaries vs mirror Decoder::decode_frame)"
# Guard: the station decodes every historical chunk from its own chunk
# summary (interval records + the X_new they reference), never by replaying
# the log. Every [from, to) of a resync- and reboot-heavy stream must equal
# a Decoder::decode_frame mirror of the whole stream bit for bit, and every
# crash point of the storage matrix must recover chunks equal to the mirror.
cargo test -q --offline --test storage_crash_matrix
mirror="$(cargo test -q --offline -p sensor-net --lib -- --exact \
  base_station::tests::every_chunk_range_matches_the_decoder_mirror)"
echo "$mirror" | grep -q "1 passed" \
  || { echo "the station-vs-mirror test did not run:"; echo "$mirror"; exit 1; } >&2

echo "==> ARQ differential suite (reliable link: Strategy::Sbr log == direct-delivery reference)"
# Guard: the loss-tolerant v2 protocol is pure delivery mechanics — on a
# perfect channel Strategy::Sbr's base-station log must be byte-identical
# to the straight-line direct-delivery reference in tests/common (sensors
# without ARQ, every flush accepted by receive_frame), across metrics,
# thread counts, topologies and batch sizes.
cargo test -q --offline --test arq_diff

echo "==> pipebench build (--locked) and its own tests"
# Guard: the gated pipeline benchmark links the layer crates by path but is
# its own package, so no workspace test notices a layer-API change that
# breaks it. Build it exactly as pipebench/run.py does, then run its tests
# (outputs under target/, never inside pipebench/).
CARGO_TARGET_DIR=target/pipebench \
  cargo build --release --offline --locked --manifest-path pipebench/Cargo.toml
CARGO_TARGET_DIR=target/pipebench \
  cargo test -q --offline --locked --manifest-path pipebench/Cargo.toml

echo "==> failure-injection suite (whole-frame bit-flip sweep + seeded chaos)"
cargo test -q --offline --test failure_injection

echo "==> chaos seed matrix (sbr simulate under drops, dups and reordering)"
# Guard: without crashes the ARQ retransmission loop must heal every
# injected fault — a handful of fixed seeds must end with 100% of the
# flushed chunks delivered.
for seed in 7 42 1337; do
  sim="$(cargo run -p sbr-cli --release --offline --bin sbr -- simulate \
    --nodes 3 --len 512 --batch 64 --loss 0.1 --fault-seed "$seed" \
    --drop 0.3 --dup 0.1 --reorder 0.05)"
  echo "$sim" | grep -q "(100.0%)" \
    || { echo "seed $seed: chunks lost after recovery:"; echo "$sim"; exit 1; } >&2
done

echo "==> crash recovery smoke (sbr simulate --crash-at, metrics render)"
# Guard: a mid-run crash must fire, force a resync (epoch bump), and the
# recovery counters must land in the metrics snapshot that `sbr report`
# renders. Chunks un-ACKed at the crash are sacrificed by design, so
# delivered fraction is not asserted here — post-resync byte-exactness is
# covered by the failure-injection suite above.
sim="$(cargo run -p sbr-cli --release --offline --bin sbr -- simulate \
  --nodes 3 --len 512 --batch 64 --loss 0.1 --fault-seed 42 \
  --drop 0.3 --dup 0.1 --reorder 0.05 --crash-at 1:3 \
  --metrics target/sim-metrics.json)"
echo "$sim" | grep -Eq "crashes +1$" \
  || { echo "scheduled crash did not fire:"; echo "$sim"; exit 1; } >&2
echo "$sim" | grep -Eq "resyncs +[1-9]" \
  || { echo "crash did not force a resync:"; echo "$sim"; exit 1; } >&2
rep="$(cargo run -p sbr-cli --release --offline --bin sbr -- report \
  --input target/sim-metrics.json)"
for counter in sensor_net.recovery.acks sensor_net.recovery.resyncs; do
  echo "$rep" | grep -q "$counter" \
    || { echo "report missing $counter" >&2; exit 1; }
done

echo "==> storage recovery smoke (simulate --store, inspect audits clean)"
# Guard: the segmented store must survive a real simulate run end to end —
# every sensor directory audits clean and holds exactly one checkpoint,
# and a second simulate into the same tree is refused (nonzero exit)
# without damaging the stores it found there.
storedir="$(mktemp -d)"
trap 'rm -rf "$storedir"' EXIT
cargo run -p sbr-cli --release --offline --bin sbr -- simulate \
  --nodes 2 --len 512 --batch 64 --store "$storedir/s" --segment-bytes 4096 \
  > /dev/null
insp="$(cargo run -p sbr-cli --release --offline --bin sbr -- storage inspect "$storedir/s")"
echo "$insp" | grep -q "sensor" \
  || { echo "storage inspect reported no sensor stores:"; echo "$insp"; exit 1; } >&2
# Rows of the audit table are "node segments checkpoints ...".
echo "$insp" | awk '$1 ~ /^[0-9]+$/ { rows++; if ($3 != 1) bad++ }
  END { exit !(rows > 0 && bad == 0) }' \
  || { echo "a sensor store does not hold exactly one checkpoint:"; echo "$insp"; exit 1; } >&2
if cargo run -p sbr-cli --release --offline --bin sbr -- simulate \
    --nodes 2 --len 512 --batch 64 --store "$storedir/s" --segment-bytes 4096 \
    > /dev/null 2>&1; then
  echo "a second simulate into a populated store was accepted" >&2; exit 1
fi
insp2="$(cargo run -p sbr-cli --release --offline --bin sbr -- storage inspect "$storedir/s")" \
  || { echo "the refused second simulate damaged the store:"; echo "$insp2"; exit 1; } >&2
test "$insp2" = "$insp" \
  || { echo "the refused second simulate changed the store:"; echo "$insp2"; exit 1; } >&2

echo "==> storage corruption negative smoke (a flipped byte must exit nonzero)"
# Guard: an auditor that passes damaged stores is worse than none. Flip one
# byte in the middle of a sealed segment and require a nonzero exit.
seg="$(find "$storedir/s" -name 'seg-00000000.sbrseg' | head -1)"
test -n "$seg" || { echo "simulate --store produced no sealed segment" >&2; exit 1; }
python3 - "$seg" <<'EOF'
import sys
p = sys.argv[1]
raw = bytearray(open(p, "rb").read())
raw[len(raw) // 2] ^= 0x10
open(p, "wb").write(raw)
EOF
if cargo run -p sbr-cli --release --offline --bin sbr -- storage inspect "$storedir/s" \
    > /dev/null 2>&1; then
  echo "storage inspect passed a store with a flipped byte" >&2; exit 1
fi
rm -rf "$storedir"
trap - EXIT

echo "==> cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> repolint (workspace static analysis, LINT_REPORT.json archived)"
# Guard: the invariants DESIGN.md §7b lists — panic-freedom zones, wire
# constant agreement, atomics/obs confinement, manifest audit. The report
# is written next to the other CI artifacts.
cargo run -p repolint --release --offline -- --json target/LINT_REPORT.json
test -s target/LINT_REPORT.json \
  || { echo "LINT_REPORT.json missing or empty" >&2; exit 1; }
grep -q '"schema": "repolint/v2"' target/LINT_REPORT.json \
  || { echo "LINT_REPORT.json lost its schema tag" >&2; exit 1; }

echo "==> repolint report drift check (committed LINT_REPORT.json vs fresh run)"
# Guard: the committed report is documentation of the workspace's lint
# state — it must match what the linter actually says, modulo the file
# count (which moves with unrelated tree changes).
python3 - <<'PYEOF'
import json, sys

def canon(path):
    doc = json.load(open(path))
    doc.pop("files_scanned", None)
    return doc

committed, fresh = canon("LINT_REPORT.json"), canon("target/LINT_REPORT.json")
if committed != fresh:
    sys.exit("committed LINT_REPORT.json is stale — regenerate with "
             "'cargo run -p repolint --offline -- --json LINT_REPORT.json'")
PYEOF

echo "==> repolint negative smoke (a seeded violation must exit 1)"
# Guard: a linter that silently passes everything is worse than none.
# Seed one unguarded panic into a scratch copy of a zone file and require
# exit code 1 plus the finding in the scratch report.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
cp -r crates tests DESIGN.md Cargo.toml Cargo.lock "$smoke/"
mkdir -p "$smoke/vendor"
for v in vendor/*/; do mkdir "$smoke/$v"; done
# Three seeds in one scratch zone file: a direct unwrap (token rule), a
# narrowing cast on a length-like value (cast-truncation), and an unwrap
# two calls below a zone function (panic-reachability, with call path).
printf '\npub fn repolint_smoke() { let x: Option<u32> = None; x.unwrap(); }\n' \
  >> "$smoke/crates/sensor-net/src/storage.rs"
printf 'pub fn repolint_cast_smoke(count: u64) -> u32 { count as u32 }\n' \
  >> "$smoke/crates/sensor-net/src/storage.rs"
printf 'fn repolint_reach_inner() { let x: Option<u32> = None; x.unwrap(); }\n' \
  >> "$smoke/crates/sensor-net/src/storage.rs"
printf 'fn repolint_reach_mid() { repolint_reach_inner(); }\n' \
  >> "$smoke/crates/sensor-net/src/storage.rs"
printf 'pub fn repolint_reach_smoke() { repolint_reach_mid(); }\n' \
  >> "$smoke/crates/sensor-net/src/storage.rs"
if cargo run -p repolint --release --offline -- \
    --root "$smoke" --quiet --json "$smoke/LINT_REPORT.json"; then
  echo "repolint passed a tree with seeded violations" >&2; exit 1
fi
for rule in panic-free cast-truncation panic-reachability; do
  grep -q "\"rule\": \"$rule\"" "$smoke/LINT_REPORT.json" \
    || { echo "seeded $rule violation missing from the scratch report" >&2; exit 1; }
done
grep -q '"call_path"' "$smoke/LINT_REPORT.json" \
  || { echo "panic-reachability finding carries no call path" >&2; exit 1; }
rm -rf "$smoke"
trap - EXIT

if [ "$run_bench" = 1 ]; then
  echo "==> perf base (parent commit exported with git archive, its fig5 built offline)"
  # The perf gate compares this tree against its parent, both built from
  # source and run on the same host in the same minutes: no baseline is
  # committed. The parent is HEAD while the tree has uncommitted changes,
  # and HEAD~1 once it is clean.
  if [ -n "$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD~1; fi
  rm -rf target/perf-base target/perf
  mkdir -p target/perf-base target/perf
  git archive "$parent" | tar -x -C target/perf-base
  cargo build -p sbr-bench --release --offline --bin fig5 \
    --manifest-path target/perf-base/Cargo.toml --target-dir target/perf-base/target
  cargo build -p sbr-bench --release --offline --bin fig5 --target-dir target

  echo "==> fig5 --quick, 7 alternating parent/candidate pairs"
  # Alternating the sides, and flipping which goes first on each pair,
  # cancels the drift of a shared host over minutes. Each run writes
  # BENCH_SBR.json into its own working directory.
  pairs=7
  run_base() {
    (cd target/perf-base && ./target/release/fig5 --quick > /dev/null)
    mv target/perf-base/BENCH_SBR.json "target/perf/base-$1.json"
  }
  run_cand() {
    target/release/fig5 --quick > /dev/null
    test -s BENCH_SBR.json || { echo "BENCH_SBR.json missing or empty" >&2; exit 1; }
    cp BENCH_SBR.json "target/perf/cand-$1.json"
  }
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then run_base "$i"; run_cand "$i"; else run_cand "$i"; run_base "$i"; fi
  done
  # perf diff arguments: each parent run paired with target/perf/<side>-<i>.json.
  pair_files() {
    for i in $(seq 1 "$pairs"); do echo "target/perf/base-$i.json target/perf/$1-$i.json"; done
  }

  echo "==> sbr report (smoke run over BENCH_SBR.json)"
  cargo run -p sbr-cli --release --offline --bin sbr -- report --input BENCH_SBR.json \
    > target/BENCH_REPORT.txt

  echo "==> sbr-bench/v4 guards (caches engage, no re-fit after Search, report renders)"
  # Guards over the v4 counters and the rendered report:
  # - the fit and probe caches must report real hits — zero hits means the
  #   cached GetBase path or Search's shared fit work silently stopped
  #   engaging;
  # - no full-dictionary BestMap sweep: fig5's encoders always learn, and a
  #   learning encoder transmits its Search's winning probe, whose fits are
  #   region sweeps. A whole-dictionary sweep means a batch was re-fitted
  #   outside Search;
  # - the report must detect v4 and render rows and counters by name.
  python3 - <<'PYEOF'
import json, sys

doc = json.load(open("BENCH_SBR.json"))
report = open("target/BENCH_REPORT.txt").read()
if doc.get("schema") != "sbr-bench/v4":
    sys.exit(f"BENCH_SBR.json schema is {doc.get('schema')!r}, want sbr-bench/v4")
records = doc["records"]

for name in ("sbr_core.get_base.fit_cache.hits", "sbr_core.probe_cache.hits"):
    hits = sum(r["counters"].get(name, 0) for r in records)
    if hits <= 0:
        sys.exit(f"{name} == 0 on the quick fig5 run: the cache is not engaging")
    print(f"    {name} total: {hits:.0f}")

for r in records:
    full = r["counters"].get("sbr_core.best_map.direct_sweeps", 0)
    if full > 0:
        sys.exit(f"{r['experiment']} {r['params']}: {full:.0f} full-dictionary BestMap sweeps — "
                 "a learning encoder re-fitted a batch outside Search")

for needle in ("sbr-bench/v4", "sbr_core.search.run_ns", "sbr_core.get_base.build_ns",
               "sbr_core.best_map.calls"):
    if needle not in report:
        sys.exit(f"report of BENCH_SBR.json does not render {needle}")
PYEOF

  echo "==> perf diff negative smokes (exact A/A with one row +15%, one probe more, one record missing, the summed encode row +15%: each must exit 1)"
  # Guard: a gate that passes everything is worse than none. The
  # candidates are copies of the parent runs (an exact A/A), so every
  # other value is unchanged in every pair. Seed +15% into a single row
  # (sbr_core.search.run_ns of the heaviest fig5 record) of every copy;
  # in another set, add one Search probe to that record of the first
  # copy only (the work counters are gated exactly, per pair); then drop
  # the last record from a third set of copies; and in a fourth, raise
  # every record's sbr_core.sbr.encode_ns by 15%, so the synthetic
  # total.sbr.encode_ns row (their sum per file) grows 15%.
  python3 - "$pairs" <<'PYEOF'
import json, sys

pairs = int(sys.argv[1])
key = lambda r: (r["experiment"], json.dumps(r["params"], sort_keys=True))
search = lambda r: next((x for x in r["rows"] if x["name"] == "sbr_core.search.run_ns"), None)
first = json.load(open("target/perf/base-1.json"))["records"]
heaviest = key(max((r for r in first if search(r)), key=lambda r: search(r)["sum"]))
for i in range(1, pairs + 1):
    doc = json.load(open(f"target/perf/base-{i}.json"))
    for r in doc["records"]:
        if key(r) == heaviest:
            search(r)["sum"] = int(search(r)["sum"] * 1.15)
    json.dump(doc, open(f"target/perf/seeded-{i}.json", "w"))
    doc = json.load(open(f"target/perf/base-{i}.json"))
    for r in doc["records"]:
        if key(r) == heaviest and i == 1:
            r["counters"]["sbr_core.search.probes"] += 1
    json.dump(doc, open(f"target/perf/probes-{i}.json", "w"))
    doc = json.load(open(f"target/perf/base-{i}.json"))
    dropped = doc["records"].pop()
    json.dump(doc, open(f"target/perf/missing-{i}.json", "w"))
    doc = json.load(open(f"target/perf/base-{i}.json"))
    for r in doc["records"]:
        for x in r["rows"]:
            if x["name"] == "sbr_core.sbr.encode_ns":
                x["sum"] = int(x["sum"] * 1.15)
    json.dump(doc, open(f"target/perf/total-{i}.json", "w"))
open("target/perf/missing-experiment.txt", "w").write(dropped["experiment"])
PYEOF
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff $(pair_files seeded) \
      --tolerance 0.10 --report target/PERF_DIFF_SMOKE.txt > /dev/null 2>&1; then
    echo "perf diff passed candidates with one row seeded +15%" >&2; exit 1
  fi
  grep -q "sbr_core.search.run_ns .*REGRESSION" target/PERF_DIFF_SMOKE.txt \
    || { echo "seeded sbr_core.search.run_ns regression missing from the smoke report" >&2; exit 1; }
  test "$(grep -c "REGRESSION" target/PERF_DIFF_SMOKE.txt)" -eq 1 \
    || { echo "the single seeded row should be the only regression" >&2; exit 1; }
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff $(pair_files probes) \
      --tolerance 0.10 --report target/PERF_DIFF_PROBES.txt > /dev/null 2>&1; then
    echo "perf diff passed a candidate that ran one more Search probe" >&2; exit 1
  fi
  grep -q "sbr_core.search.probes .*REGRESSION" target/PERF_DIFF_PROBES.txt \
    || { echo "seeded sbr_core.search.probes increase missing from the smoke report" >&2; exit 1; }
  test "$(grep -c "REGRESSION" target/PERF_DIFF_PROBES.txt)" -eq 1 \
    || { echo "the single extra probe should be the only regression" >&2; exit 1; }
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff $(pair_files missing) \
      --tolerance 0.10 --report target/PERF_DIFF_MISSING.txt > /dev/null 2>&1; then
    echo "perf diff passed candidates missing a baseline record" >&2; exit 1
  fi
  grep -q "^MISSING $(cat target/perf/missing-experiment.txt) " target/PERF_DIFF_MISSING.txt \
    || { echo "missing record not named in the smoke report" >&2; exit 1; }
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff $(pair_files total) \
      --tolerance 0.10 --report target/PERF_DIFF_TOTAL.txt > /dev/null 2>&1; then
    echo "perf diff passed candidates whose summed encode row grew 15%" >&2; exit 1
  fi
  grep -q "total.sbr.encode_ns .*REGRESSION" target/PERF_DIFF_TOTAL.txt \
    || { echo "seeded total.sbr.encode_ns regression missing from the smoke report" >&2; exit 1; }

  echo "==> sbr perf diff (7 parent/candidate pairs, median ratio vs max(+10%, 2·IQR))"
  # Guard: every *_ns row sum (1 ms floor) and every hits/misses hit rate
  # of every parent record is gated on its median per-pair change, held
  # to max(tolerance, 2·IQR) of the per-pair changes, and so is one
  # synthetic total.sbr.encode_ns row per file (the sum of
  # sbr_core.sbr.encode_ns over its records); the work and quality
  # counters (BestMap calls, Search probes, GetBase matrix cells, fit- and
  # probe-cache misses, bench.quality.*) fail on any per-pair increase; a
  # parent record missing from the candidate fails. The full diff report is archived
  # next to the other CI artifacts.
  cargo run -p sbr-cli --release --offline --bin sbr -- perf diff $(pair_files cand) \
    --tolerance 0.10 --report target/PERF_DIFF.txt
  test -s target/PERF_DIFF.txt \
    || { echo "PERF_DIFF.txt missing or empty" >&2; exit 1; }
fi

echo "CI pass complete."
