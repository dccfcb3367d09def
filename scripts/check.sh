#!/usr/bin/env bash
# Full verification sweep: the plain RelWithDebInfo build plus one
# sanitized build per sanitizer (AURORA_SANITIZE=address, =undefined,
# =thread), each running the ctest suite. This is the pre-merge gate; the
# sanitized configs catch the lifetime and UB mistakes the callback-heavy
# simulator makes easy, and the tsan config is a tripwire: the simulator
# is single-threaded, so any thread a change introduces gets raced.
#
# Usage:
#   scripts/check.sh              # all four configs
#   scripts/check.sh address      # just the asan config
#   scripts/check.sh thread       # just the tsan config
#   scripts/check.sh plain        # just the unsanitized config
#   scripts/check.sh --campaign   # sustained-chaos campaign sweep under asan
#
# --campaign builds the address config and runs the self-healing campaign
# suite (fixed seeds; see tests/chaos_campaign_test.cc) instead of the full
# ctest matrix. Combine with configs to widen it: `--campaign undefined`.
#
# The plain config builds with -Werror, so a new warning under the repo's
# -Wall -Wextra fails the gate.
#
# Build trees live under build-check/<config> so they never disturb an
# existing ./build directory.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

CAMPAIGN=0
ARGS=()
for arg in "$@"; do
  case "${arg}" in
    --campaign) CAMPAIGN=1 ;;
    *) ARGS+=("${arg}") ;;
  esac
done

if [[ ${CAMPAIGN} -eq 1 ]]; then
  # Sustained chaos wants the sanitizer that catches lifetime bugs in the
  # repair/hydration callback chains; asan is the default campaign config.
  CONFIGS=("${ARGS[@]:-address}")
else
  CONFIGS=("${ARGS[@]:-plain address undefined thread}")
fi
# Word-split the default string when no args were given.
if [[ ${#CONFIGS[@]} -eq 1 && ${CONFIGS[0]} == *" "* ]]; then
  read -r -a CONFIGS <<<"${CONFIGS[0]}"
fi

run_config() {
  local config="$1"
  local dir="build-check/${config}"
  local -a cmake_args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
  case "${config}" in
    plain) cmake_args+=(-DCMAKE_CXX_FLAGS=-Werror) ;;
    address|undefined|thread) cmake_args+=("-DAURORA_SANITIZE=${config}") ;;
    *)
      echo "unknown config '${config}' (want plain, address, undefined," \
           "thread)" >&2
      exit 2
      ;;
  esac
  echo "=== [${config}] configure + build (${dir}) ==="
  cmake -B "${dir}" -S . "${cmake_args[@]}" >"${dir}.configure.log" 2>&1 ||
    { cat "${dir}.configure.log"; exit 1; }
  cmake --build "${dir}" -j "${JOBS}"
  if [[ ${CAMPAIGN} -eq 1 ]]; then
    echo "=== [${config}] campaign sweep (sustained chaos, repair loop on) ==="
    (cd "${dir}" && ctest --output-on-failure -R 'chaos_campaign_test')
    echo "campaign report: ${dir}/tests/campaign_report.json"
  elif [[ ${config} == thread ]]; then
    # TSan is 5-15x; run common_test plus the campaign smoke rather than
    # the whole protocol matrix the other configs already cover (nothing
    # in the tree starts a thread today).
    echo "=== [${config}] ctest (concurrency subset) ==="
    (cd "${dir}" && ctest --output-on-failure \
       -R '^(common_test|chaos_campaign_smoke)$')
  else
    echo "=== [${config}] ctest ==="
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
  fi
}

echo "=== docs_check ==="
scripts/docs_check.sh

mkdir -p build-check
for config in "${CONFIGS[@]}"; do
  run_config "${config}"
done
if [[ ${CAMPAIGN} -eq 1 ]]; then
  echo "=== campaign green: ${CONFIGS[*]} ==="
else
  # Perf floor vs committed bench/baselines (skippable: AURORA_BENCH_GATE=off,
  # tunable: AURORA_BENCH_TOLERANCE; see scripts/bench_gate.sh). Runs on the
  # plain build only — sanitized binaries measure the sanitizer, not the code.
  for config in "${CONFIGS[@]}"; do
    if [[ ${config} == plain ]]; then
      echo "=== bench_gate (plain) ==="
      scripts/bench_gate.sh build-check/plain
    fi
  done
  echo "=== all configs green: ${CONFIGS[*]} ==="
fi
