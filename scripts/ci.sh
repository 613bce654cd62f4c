#!/usr/bin/env bash
# Tier-1+ verification entry point: everything CI runs, runnable locally.
#
#   scripts/ci.sh            # full pass
#   scripts/ci.sh --no-bench # skip the fig5 smoke benchmark
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

echo "==> cargo build -p sbr-core --no-default-features"
# Guard: the obs facade's disabled half must keep compiling (callers are
# cfg-free, so a drift here only surfaces on minimal builds).
cargo build -p sbr-core --no-default-features --offline

echo "==> reference-encoder differential suite (every config byte-identical to the reference)"
# Guard: the Search probe cache, the GetBase fit cache, the blocked and FFT
# shift sweeps and the worker fan-out only reorder evaluation — every
# encoder configuration must emit the same bytes as the straight-line
# reference encoder in tests/common (direct sweeps, no caches, no threads).
cargo test -q --offline --test reference_diff

echo "==> query differential suite (compressed-domain engine vs full decode)"
# Guard: the compressed-domain query engine answers from closed-form
# interval moments — min/max must match the decode-then-scan baseline bit
# for bit, sums within 1e-9 relative, across metrics, search strategies,
# thread counts and recovered station indexes.
cargo test -q --offline --test query_diff

echo "==> ARQ differential suite (reliable link: ARQ log == direct delivery)"
# Guard: the loss-tolerant v2 protocol is pure delivery mechanics — on a
# perfect channel its base-station log must be byte-identical to legacy
# direct delivery.
cargo test -q --offline --test arq_diff

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
# every sensor directory audits clean, and a second simulate into the same
# tree resumes from checkpoints instead of erroring.
storedir="$(mktemp -d)"
trap 'rm -rf "$storedir"' EXIT
cargo run -p sbr-cli --release --offline --bin sbr -- simulate \
  --nodes 2 --len 512 --batch 64 --store "$storedir/s" --segment-bytes 4096 \
  > /dev/null
insp="$(cargo run -p sbr-cli --release --offline --bin sbr -- storage inspect "$storedir/s")"
echo "$insp" | grep -q "sensor" \
  || { echo "storage inspect reported no sensor stores:"; echo "$insp"; exit 1; } >&2

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
  mkdir -p target
  echo "==> fig5 --quick (emits BENCH_SBR.json; the committed baseline is never rewritten)"
  cargo run -p sbr-bench --release --offline --bin fig5 -- --quick
  test -s BENCH_SBR.json || { echo "BENCH_SBR.json missing or empty" >&2; exit 1; }
  echo "==> sbr report (smoke run over BENCH_SBR.json)"
  cargo run -p sbr-cli --release --offline --bin sbr -- report --input BENCH_SBR.json \
    > target/BENCH_REPORT.txt

  echo "==> sbr-bench/v4 guards (caches engage, checkpoint replay stays bounded, report renders)"
  # Guards over the v4 counters and the rendered report:
  # - the fit, probe and plan caches must report real hits — zero hits
  #   means the cached GetBase path, Search's shared fit work or the
  #   compressed-domain plan cache silently stopped engaging;
  # - the storage_recovery records sweep history 10x, and checkpointed
  #   recovery replays only the tail, so at the largest history the
  #   replayed records must stay under a tenth of the store;
  # - the ARQ run must carry its bench.recovery.* counters;
  # - the report must detect v4 and render rows and counters by name.
  python3 - <<'PYEOF'
import json, sys

doc = json.load(open("BENCH_SBR.json"))
report = open("target/BENCH_REPORT.txt").read()
if doc.get("schema") != "sbr-bench/v4":
    sys.exit(f"BENCH_SBR.json schema is {doc.get('schema')!r}, want sbr-bench/v4")
records = doc["records"]

def total(name):
    return sum(r["counters"].get(name, 0) for r in records)

for name in ("sbr_core.get_base.fit_cache.hits",
             "sbr_core.probe_cache.hits",
             "sbr_core.query.plan_cache.hits"):
    hits = total(name)
    if hits <= 0:
        sys.exit(f"{name} == 0 on the quick fig5 run: the cache is not engaging")
    print(f"    {name} total: {hits:.0f}")

storage = [r for r in records if "bench.storage.records" in r["counters"]]
if not storage:
    sys.exit("no record carries bench.storage.records")
largest = max(storage, key=lambda r: r["counters"]["bench.storage.records"])
n = largest["counters"]["bench.storage.records"]
replayed = largest["counters"].get("sensor_net.storage.segments.replayed_records")
if replayed is None or replayed * 10 > n:
    sys.exit(f"replayed_records {replayed} scales with history {n}: "
             "checkpoint recovery is not engaging")
print(f"    replayed {replayed:.0f} of {n:.0f} records at the largest history")

if not any(k.startswith("bench.recovery.") for r in records for k in r["counters"]):
    sys.exit("no record carries bench.recovery.* counters")

for needle in ("sbr-bench/v4", "sbr_core.search.run_ns", "sbr_core.get_base.build_ns",
               "sbr_core.best_map.calls", "sbr_core.query.query_ns",
               "bench.storage.load_ns", "bench.recovery.resyncs", "sensor_net.recovery"):
    if needle not in report:
        sys.exit(f"report of BENCH_SBR.json does not render {needle}")
PYEOF

  echo "==> sbr perf diff (fresh fig5 --quick vs committed baseline, +25% gate)"
  # Guard: every *_ns row sum of the fresh quick run is gated against the
  # committed baseline (+25%, 1 ms floor), every hits/misses pair as a hit
  # rate, and a baseline record missing from the run fails. Refresh the
  # baseline with `cp BENCH_SBR.json results/BENCH_SBR_v4.json`. The full
  # diff report is archived next to the other CI artifacts.
  cargo run -p sbr-cli --release --offline --bin sbr -- perf diff \
    results/BENCH_SBR_v4.json BENCH_SBR.json \
    --tolerance 0.25 --report target/PERF_DIFF.txt
  test -s target/PERF_DIFF.txt \
    || { echo "PERF_DIFF.txt missing or empty" >&2; exit 1; }

  echo "==> perf diff negative smokes (one row +30%, one record missing: each must exit 1)"
  # Guard: a gate that passes everything is worse than none. Seed +30%
  # into a single row (sbr_core.search.run_ns of one fig5 record) of a
  # scratch copy of the baseline, then drop one record from another copy.
  python3 - <<'PYEOF'
import json

doc = json.load(open("results/BENCH_SBR_v4.json"))
fig5 = max((r for r in doc["records"] if r["experiment"] == "fig5"),
           key=lambda r: next(x["sum"] for x in r["rows"]
                              if x["name"] == "sbr_core.search.run_ns"))
for row in fig5["rows"]:
    if row["name"] == "sbr_core.search.run_ns":
        row["sum"] = int(row["sum"] * 1.3)
json.dump(doc, open("target/PERF_REGRESSED.json", "w"))

doc = json.load(open("results/BENCH_SBR_v4.json"))
dropped = doc["records"].pop()
json.dump(doc, open("target/PERF_MISSING.json", "w"))
open("target/PERF_MISSING_EXPERIMENT.txt", "w").write(dropped["experiment"])
PYEOF
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff \
      results/BENCH_SBR_v4.json target/PERF_REGRESSED.json \
      --report target/PERF_DIFF_SMOKE.txt; then
    echo "perf diff passed a candidate with one row seeded +30%" >&2; exit 1
  fi
  grep -q "sbr_core.search.run_ns .*REGRESSION" target/PERF_DIFF_SMOKE.txt \
    || { echo "seeded sbr_core.search.run_ns regression missing from the smoke report" >&2; exit 1; }
  test "$(grep -c "REGRESSION" target/PERF_DIFF_SMOKE.txt)" -eq 1 \
    || { echo "the single seeded row should be the only regression" >&2; exit 1; }
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff \
      results/BENCH_SBR_v4.json target/PERF_MISSING.json \
      --report target/PERF_DIFF_MISSING.txt; then
    echo "perf diff passed a candidate missing a baseline record" >&2; exit 1
  fi
  grep -q "^MISSING $(cat target/PERF_MISSING_EXPERIMENT.txt) " target/PERF_DIFF_MISSING.txt \
    || { echo "missing record not named in the smoke report" >&2; exit 1; }
fi

echo "CI pass complete."
