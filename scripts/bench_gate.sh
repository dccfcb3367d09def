#!/usr/bin/env bash
# Perf regression gate: re-runs the wall-clock benches in --quick mode
# and compares their headline rates against the committed per-machine
# reference numbers in bench/baselines/BENCH_*.json.
#
# The gate is a FLOOR, not a band: a fresh run must reach
# AURORA_BENCH_TOLERANCE (default 0.30) of the baseline rate. That is
# deliberately loose — absolute rates vary several-fold across hosts —
# while still catching a lost integer factor (e.g. regressing the slab
# event engine or the COW page store back to deep copies).
#
# Deterministic counts are gated EXACTLY instead: the simulation is
# deterministic, so C7's executed events, fan-out copies and retransmits
# must equal the baseline bit for bit (a change that adds a round trip or
# a resend fails here even when the throughput floor still passes). So
# must the fleet's block-version bytes at the end of the run: a return to
# one page copy per coalesced record multiplies it. So must the writer's
# commit-wait p50/p99 in simulated µs: a change meant to save only host
# time must not move simulated latency. So must what the rest of the
# storage pipeline keeps: the fleet's hot-log bytes, the archive's bytes
# (one copy per record per PG) and the records folded into versions. So
# must C7's heap allocations per txn (calls and bytes, counted by the
# bench's replacement operator new): a change that adds a per-write
# allocation fails here. So must every number of the F5 membership-change
# figure (per-phase epoch, commits and p50/p99/max commit latency, the
# step-2 hydration+commit time, the revert epoch): a change to the
# Figure-5 control plane shows up there as a number, not as drift. A
# deliberate schedule, storage-layout or allocation change refreshes those
# baseline keys.
#
# Knobs for noisy machines (documented in EXPERIMENTS.md, C9 section):
#   AURORA_BENCH_TOLERANCE=0.1  scripts/bench_gate.sh   # looser floor
#   AURORA_BENCH_GATE=off       scripts/bench_gate.sh   # skip entirely
#
# Usage: scripts/bench_gate.sh [build-dir]   (default: ./build)

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${AURORA_BENCH_GATE:-on}" == "off" ]]; then
  echo "bench_gate: skipped (AURORA_BENCH_GATE=off)"
  exit 0
fi

TOLERANCE="${AURORA_BENCH_TOLERANCE:-0.30}"
BUILD_DIR="${1:-build}"
BASELINE_DIR="bench/baselines"

# Run artifacts belong in AURORA_BENCH_JSON_DIR (or a scratch cwd), never
# at the repo root: a stray root-level BENCH_*.json is an uncommitted
# baseline candidate that silently drifts from the gated numbers. Fail
# loudly so it gets moved into bench/baselines/ (or deleted).
shopt -s nullglob
ROOT_ORPHANS=(BENCH_*.json)
shopt -u nullglob
if [[ ${#ROOT_ORPHANS[@]} -gt 0 ]]; then
  echo "bench_gate: FAIL stray bench dump(s) at repo root: ${ROOT_ORPHANS[*]}"
  echo "  Commit as a baseline (bench/baselines/) or delete."
  exit 1
fi

if [[ ! -x "${BUILD_DIR}/bench/bench_c7_write_throughput" ||
      ! -x "${BUILD_DIR}/bench/bench_c9_event_engine" ||
      ! -x "${BUILD_DIR}/bench/bench_c10_read_path" ||
      ! -x "${BUILD_DIR}/bench/bench_c11_multi_tenant" ||
      ! -x "${BUILD_DIR}/bench/bench_c12_adversarial" ||
      ! -x "${BUILD_DIR}/bench/bench_fig5_membership_changes" ]]; then
  echo "bench_gate: building benches in ${BUILD_DIR}"
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >/dev/null
  cmake --build "${BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)" \
    --target bench_c7_write_throughput bench_c9_event_engine \
    bench_c10_read_path bench_c11_multi_tenant \
    bench_c12_adversarial bench_fig5_membership_changes >/dev/null
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

echo "bench_gate: running bench_c7_write_throughput --quick"
AURORA_BENCH_JSON_DIR="${TMP}" \
  "${BUILD_DIR}/bench/bench_c7_write_throughput" --quick >/dev/null
echo "bench_gate: running bench_c9_event_engine --quick"
AURORA_BENCH_JSON_DIR="${TMP}" \
  "${BUILD_DIR}/bench/bench_c9_event_engine" --quick >/dev/null
echo "bench_gate: running bench_c10_read_path --quick"
AURORA_BENCH_JSON_DIR="${TMP}" \
  "${BUILD_DIR}/bench/bench_c10_read_path" --quick >/dev/null
echo "bench_gate: running bench_c11_multi_tenant --quick"
AURORA_BENCH_JSON_DIR="${TMP}" \
  "${BUILD_DIR}/bench/bench_c11_multi_tenant" --quick >/dev/null
echo "bench_gate: running bench_c12_adversarial --quick"
AURORA_BENCH_JSON_DIR="${TMP}" \
  "${BUILD_DIR}/bench/bench_c12_adversarial" --quick >/dev/null
echo "bench_gate: running bench_fig5_membership_changes --quick"
AURORA_BENCH_JSON_DIR="${TMP}" \
  "${BUILD_DIR}/bench/bench_fig5_membership_changes" --quick >/dev/null

# Extracts a numeric field from a flat BENCH_*.json.
json_value() {
  local file="$1" key="$2"
  sed -n "s/^  \"${key}\": \([0-9.eE+-]*\),\{0,1\}$/\1/p" "${file}" | head -1
}

# A usable baseline is a real file that parses as one of our BENCH JSON
# dumps (has the "bench" name field). Anything else — empty file, merge
# damage, truncated write — must fail LOUDLY, not read as zero and
# vacuously pass the floor.
validate_baseline() {
  local file="$1"
  if [[ ! -s "${file}" ]]; then
    echo "bench_gate: FAIL baseline ${file} is missing or empty"
    return 1
  fi
  if ! grep -q '"bench"[[:space:]]*:' "${file}"; then
    echo "bench_gate: FAIL baseline ${file} is malformed (no \"bench\" field)"
    return 1
  fi
  return 0
}

is_number() {
  [[ -n "$1" ]] && awk -v v="$1" 'BEGIN { exit !(v + 0 == v) }'
}

FAILED=0
check_metric() {
  local label="$1" fresh_file="$2" base_file="$3" key="$4"
  local fresh base
  fresh="$(json_value "${fresh_file}" "${key}")"
  base="$(json_value "${base_file}" "${key}")"
  if ! is_number "${base}"; then
    echo "bench_gate: FAIL ${label}.${key}: baseline value missing or" \
         "non-numeric in ${base_file} (got '${base}') — refresh and commit" \
         "the baseline"
    FAILED=1
    return
  fi
  if ! is_number "${fresh}"; then
    echo "bench_gate: FAIL ${label}.${key}: fresh run did not emit a" \
         "numeric value (got '${fresh}')"
    FAILED=1
    return
  fi
  if awk -v f="${fresh}" -v b="${base}" -v t="${TOLERANCE}" \
       'BEGIN { exit !(f + 0 >= (b + 0) * (t + 0)) }'; then
    echo "bench_gate: ok   ${label}.${key}: ${fresh} >= ${TOLERANCE} * ${base}"
  else
    echo "bench_gate: FAIL ${label}.${key}: ${fresh} < ${TOLERANCE} * ${base}" \
         "(floor $(awk -v b="${base}" -v t="${TOLERANCE}" 'BEGIN{printf "%.0f", b*t}'))"
    FAILED=1
  fi
}

for spec in \
  "c7:BENCH_c7_write_throughput.json:records_per_sec" \
  "c7:BENCH_c7_write_throughput.json:events_per_sec" \
  "c9:BENCH_c9_event_engine.json:events_per_sec" \
  "c9:BENCH_c9_event_engine.json:cancel_mix_ops_per_sec" \
  "c10:BENCH_c10_read_path.json:reads_per_sec" \
  "c11:BENCH_c11_multi_tenant.json:commits_per_sec" \
  "c12:BENCH_c12_adversarial.json:events_per_sec" \
  "c12:BENCH_c12_adversarial.json:control_events_per_sec"; do
  IFS=: read -r label file key <<<"${spec}"
  if ! validate_baseline "${BASELINE_DIR}/${file}"; then
    FAILED=1
    continue
  fi
  check_metric "${label}" "${TMP}/${file}" "${BASELINE_DIR}/${file}" "${key}"
done

check_exact() {
  local label="$1" fresh_file="$2" base_file="$3" key="$4"
  local fresh base
  fresh="$(json_value "${fresh_file}" "${key}")"
  base="$(json_value "${base_file}" "${key}")"
  if ! is_number "${base}" || ! is_number "${fresh}"; then
    echo "bench_gate: FAIL ${label}.${key}: non-numeric value (baseline" \
         "'${base}', fresh '${fresh}')"
    FAILED=1
  elif [[ "${fresh}" == "${base}" ]]; then
    echo "bench_gate: ok   ${label}.${key}: ${fresh} == ${base}"
  else
    echo "bench_gate: FAIL ${label}.${key}: ${fresh} != ${base} (exact" \
         "deterministic count)"
    FAILED=1
  fi
}

for spec in \
  "c7:BENCH_c7_write_throughput.json:events_executed" \
  "c7:BENCH_c7_write_throughput.json:fanout_records" \
  "c7:BENCH_c7_write_throughput.json:retransmitted_records" \
  "c7:BENCH_c7_write_throughput.json:fleet_version_bytes" \
  "c7:BENCH_c7_write_throughput.json:commit_wait_p50_us" \
  "c7:BENCH_c7_write_throughput.json:commit_wait_p99_us" \
  "c7:BENCH_c7_write_throughput.json:fleet_hot_log_bytes" \
  "c7:BENCH_c7_write_throughput.json:archive_bytes_stored" \
  "c7:BENCH_c7_write_throughput.json:records_coalesced" \
  "c7:BENCH_c7_write_throughput.json:allocs_per_txn" \
  "c7:BENCH_c7_write_throughput.json:alloc_bytes_per_txn" \
  "f5:BENCH_fig5_membership_changes.json:healthy_epoch" \
  "f5:BENCH_fig5_membership_changes.json:healthy_commits" \
  "f5:BENCH_fig5_membership_changes.json:healthy_p50_us" \
  "f5:BENCH_fig5_membership_changes.json:healthy_p99_us" \
  "f5:BENCH_fig5_membership_changes.json:healthy_max_us" \
  "f5:BENCH_fig5_membership_changes.json:f_failed_epoch" \
  "f5:BENCH_fig5_membership_changes.json:f_failed_commits" \
  "f5:BENCH_fig5_membership_changes.json:f_failed_p50_us" \
  "f5:BENCH_fig5_membership_changes.json:f_failed_p99_us" \
  "f5:BENCH_fig5_membership_changes.json:f_failed_max_us" \
  "f5:BENCH_fig5_membership_changes.json:dual_quorum_epoch" \
  "f5:BENCH_fig5_membership_changes.json:dual_quorum_commits" \
  "f5:BENCH_fig5_membership_changes.json:dual_quorum_p50_us" \
  "f5:BENCH_fig5_membership_changes.json:dual_quorum_p99_us" \
  "f5:BENCH_fig5_membership_changes.json:dual_quorum_max_us" \
  "f5:BENCH_fig5_membership_changes.json:committed_epoch" \
  "f5:BENCH_fig5_membership_changes.json:committed_commits" \
  "f5:BENCH_fig5_membership_changes.json:committed_p50_us" \
  "f5:BENCH_fig5_membership_changes.json:committed_p99_us" \
  "f5:BENCH_fig5_membership_changes.json:committed_max_us" \
  "f5:BENCH_fig5_membership_changes.json:change_time_us" \
  "f5:BENCH_fig5_membership_changes.json:revert_epoch"; do
  IFS=: read -r label file key <<<"${spec}"
  check_exact "${label}" "${TMP}/${file}" "${BASELINE_DIR}/${file}" "${key}"
done

if [[ ${FAILED} -ne 0 ]]; then
  echo "bench_gate: FAILED — perf floor or exact count breached (or baselines missing)."
  echo "  On a slow/noisy host: AURORA_BENCH_TOLERANCE=0.1 or AURORA_BENCH_GATE=off."
  echo "  After a deliberate perf change: refresh bench/baselines/ via"
  echo "  AURORA_BENCH_JSON_DIR=bench/baselines <bench> --quick and commit."
  exit 1
fi
echo "bench_gate: green (tolerance ${TOLERANCE})"
