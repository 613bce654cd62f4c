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

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --offline -- -D warnings

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
  echo "==> perf baseline snapshot (fig5 overwrites results/BENCH_SBR_v3.json)"
  # The committed baseline must be captured before fig5 runs, or the
  # regression gate below would compare the fresh run against itself.
  mkdir -p target
  cp results/BENCH_SBR_v3.json target/PERF_BASELINE.json

  echo "==> fig5 --quick (emits BENCH_SBR.json)"
  cargo run -p sbr-bench --release --offline --bin fig5 -- --quick
  test -s BENCH_SBR.json || { echo "BENCH_SBR.json missing or empty" >&2; exit 1; }
  echo "==> sbr report (smoke run over BENCH_SBR.json)"
  report="$(cargo run -p sbr-cli --release --offline --bin sbr -- report --input BENCH_SBR.json)"
  echo "$report" | grep -q "sbr-bench/v3" || { echo "report did not detect sbr-bench/v3" >&2; exit 1; }
  echo "$report" | grep -q "BestMap calls" || { echo "report missing pipeline counters" >&2; exit 1; }
  echo "$report" | grep -q "search:" || { echo "report missing search block" >&2; exit 1; }
  echo "$report" | grep -q "sensor_net.recovery" || { echo "report missing ARQ recovery counters" >&2; exit 1; }
  grep -q '"recovery": {' BENCH_SBR.json || { echo "BENCH_SBR.json missing recovery block" >&2; exit 1; }

  echo "==> perf smoke (get_base block: fit cache must actually engage)"
  # Guard: every fig5 record must carry the additive get_base block, and
  # the fit cache must report real traffic — hits == 0 would mean the
  # cached GetBase path silently stopped being exercised.
  grep -q '"get_base": {' BENCH_SBR.json \
    || { echo "BENCH_SBR.json missing get_base block" >&2; exit 1; }
  echo "$report" | grep -q "get_base:" \
    || { echo "report missing get_base block" >&2; exit 1; }
  # Records are one JSON object per line; sum fit_cache_hits across the
  # fig5 records and fail on zero.
  hits="$(grep -o '"fit_cache_hits": [0-9]*' BENCH_SBR.json \
    | awk -F': ' '{s += $2} END {print s+0}')"
  if [ "$hits" -eq 0 ]; then
    echo "fit_cache.hits == 0 on the quick fig5 sweep: incremental GetBase is not engaging" >&2
    exit 1
  fi
  echo "    fit_cache_hits total: $hits"

  echo "==> perf smoke (search block: probe cache must actually engage)"
  # Guard: the search block's probe-cache traffic must be real — hits == 0
  # would mean Search silently stopped sharing fit work across probes.
  phits="$(grep -o '"cache_hits": [0-9]*' BENCH_SBR.json \
    | awk -F': ' '{s += $2} END {print s+0}')"
  if [ "$phits" -eq 0 ]; then
    echo "probe_cache.hits == 0 on the quick fig5 sweep: the probe cache is not engaging" >&2
    exit 1
  fi
  echo "    probe cache_hits total: $phits"

  echo "==> perf smoke (query block: plan cache must actually engage)"
  # Guard: the query_sweep record must carry the additive query block and
  # the plan cache must report real traffic — hits == 0 would mean the
  # compressed-domain engine silently stopped serving repeated queries.
  grep -q '"query": {' BENCH_SBR.json \
    || { echo "BENCH_SBR.json missing query block" >&2; exit 1; }
  echo "$report" | grep -q "query:" \
    || { echo "report missing query block" >&2; exit 1; }
  qhits="$(grep -o '"plan_cache_hits": [0-9]*' BENCH_SBR.json \
    | awk -F': ' '{s += $2} END {print s+0}')"
  if [ "$qhits" -eq 0 ]; then
    echo "plan_cache.hits == 0 on the quick query sweep: the plan cache is not engaging" >&2
    exit 1
  fi
  echo "    plan_cache_hits total: $qhits"
  echo "==> perf smoke (storage block: checkpoint replay must stay bounded)"
  # Guard: the storage_recovery records sweep history 10x; checkpointed
  # recovery must replay only the tail segment, so replayed_records must
  # NOT scale with total records — at the largest history it has to be
  # under a tenth of the store.
  grep -q '"storage": {' BENCH_SBR.json \
    || { echo "BENCH_SBR.json missing storage block" >&2; exit 1; }
  echo "$report" | grep -q "storage:" \
    || { echo "report missing storage block" >&2; exit 1; }
  grep -o '"storage": {[^}]*}' BENCH_SBR.json | awk '
    {
      match($0, /"records": [0-9]+/); n = substr($0, RSTART + 11, RLENGTH - 11)
      match($0, /"replayed_records": [0-9]+/); m = substr($0, RSTART + 20, RLENGTH - 20)
      if (n + 0 > maxn + 0) { maxn = n; maxm = m }
    }
    END {
      if (maxn == "") { print "no storage records parsed" > "/dev/stderr"; exit 1 }
      if (maxm * 10 > maxn) {
        printf "replayed_records %d scales with history %d: checkpoint recovery is not engaging\n", maxm, maxn > "/dev/stderr"
        exit 1
      }
    }' || exit 1

  test -s results/BENCH_SBR_v3.json \
    || { echo "results/BENCH_SBR_v3.json copy missing" >&2; exit 1; }

  echo "==> sbr perf diff (fresh fig5 --quick vs committed baseline, +25% gate)"
  # Guard: the regression gate compares the encode/search/get_base walls,
  # cache hit rates and recovery counters of the fresh quick run against
  # the committed baseline; a wall more than 25% over fails the build.
  # The full diff report is archived next to the other CI artifacts.
  cargo run -p sbr-cli --release --offline --bin sbr -- perf diff \
    target/PERF_BASELINE.json BENCH_SBR.json \
    --tolerance 0.25 --report target/PERF_DIFF.txt
  test -s target/PERF_DIFF.txt \
    || { echo "PERF_DIFF.txt missing or empty" >&2; exit 1; }

  echo "==> perf diff negative smoke (a seeded 30% wall regression must exit 1)"
  # Guard: a gate that passes everything is worse than none. Scale every
  # wall in a scratch candidate by 1.3x and require exit code 1 plus the
  # regression verdict in the archived report.
  awk '{
    out = ""; rest = $0
    while (match(rest, /"(avg_encode_secs|wall_secs)": [0-9.eE+-]+/)) {
      seg = substr(rest, RSTART, RLENGTH)
      sep = index(seg, ": ")
      out = out substr(rest, 1, RSTART - 1) substr(seg, 1, sep + 1) substr(seg, sep + 2) * 1.3
      rest = substr(rest, RSTART + RLENGTH)
    }
    print out rest
  }' target/PERF_BASELINE.json > target/PERF_REGRESSED.json
  if cargo run -p sbr-cli --release --offline --bin sbr -- perf diff \
      target/PERF_BASELINE.json target/PERF_REGRESSED.json \
      --report target/PERF_DIFF_SMOKE.txt; then
    echo "perf diff passed a candidate with a seeded 30% wall regression" >&2; exit 1
  fi
  grep -q "REGRESSION" target/PERF_DIFF_SMOKE.txt \
    || { echo "seeded regression missing from the smoke report" >&2; exit 1; }
fi

echo "CI pass complete."
