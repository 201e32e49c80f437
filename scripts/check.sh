#!/usr/bin/env sh
# Tier-1 verify: configure, build everything (library, tests, bench,
# examples), run the full ctest suite. This is the exact sequence CI
# runs and the gate every PR must keep green.
#
#   scripts/check.sh [--torture|--scenarios|--overload] [build-dir]
#
#   --torture    run only the fault-injection and crash-recovery
#                suites (the crash-point matrix) instead of the full
#                suite — the quick loop while working on the storage
#                layer.
#   --scenarios  run only the stream-workload suites (stressed replay
#                vs sequential oracle, generator seed stability,
#                degraded fan-out) — the quick loop while working on
#                the workload generators or the serving path.
#   --overload   run only the overload-control suites (deadlines,
#                admission/shedding, circuit breaker, brownout, the
#                shed-vs-serve stress race) — the quick loop while
#                working on the admission layer.
#
# Extra CMake arguments can be passed via CMAKE_ARGS, e.g.
#   CMAKE_ARGS="-DEVOREC_BUILD_BENCHMARKS=OFF" scripts/check.sh
#
# Also enforces the Env-layer boundary: raw POSIX/stdio file I/O
# (fopen/fwrite/fsync/...) is allowed only inside src/common/env.cc
# (PosixEnv). Everything else must go through evorec::Env, or fault
# injection and the crash-point torture harness silently lose
# coverage of those bytes.
#
# And the single-flight boundary: std::promise/std::shared_future are
# allowed in src/ only inside src/common/single_flight.h. Every memo
# goes through SingleFlightCache, so its build/wait/failure policy
# stays in one place.

set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

torture=0
scenarios=0
overload=0
build_dir=""
for arg in "$@"; do
  case "${arg}" in
    --torture) torture=1 ;;
    --scenarios) scenarios=1 ;;
    --overload) overload=1 ;;
    *) build_dir="${arg}" ;;
  esac
done
build_dir=${build_dir:-"${repo_root}/build"}

# --- Env-layer guard (cheap; runs before the build) ---
raw_io=$(grep -rnE '[^_[:alnum:]](fopen|fwrite|fread|fsync|fdatasync|fclose|ftruncate|unlink)[[:space:]]*\(' \
           "${repo_root}/src" --include='*.cc' \
         | grep -v 'src/common/env\.cc' \
         | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|\*)' || true)
if [ -n "${raw_io}" ]; then
  echo "error: raw file I/O outside src/common/env.cc — route it through evorec::Env:" >&2
  echo "${raw_io}" >&2
  exit 1
fi

# --- Single-flight guard (cheap; runs before the build) ---
hand_rolled=$(grep -rnE 'std::(promise|shared_future)' "${repo_root}/src" \
                --include='*.h' --include='*.cc' \
              | grep -v 'src/common/single_flight\.h' || true)
if [ -n "${hand_rolled}" ]; then
  echo "error: std::promise/std::shared_future outside src/common/single_flight.h — use SingleFlightCache:" >&2
  echo "${hand_rolled}" >&2
  exit 1
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
cmake -B "${build_dir}" -S "${repo_root}" ${CMAKE_ARGS:-}
cmake --build "${build_dir}" -j "${jobs}"
cd "${build_dir}"
if [ "${torture}" -eq 1 ]; then
  ctest --output-on-failure -j "${jobs}" -R 'Fault|Torture|Degraded|RetryBackoff'
elif [ "${scenarios}" -eq 1 ]; then
  ctest --output-on-failure -j "${jobs}" \
    -R 'ScenarioReplay|StreamGenerator|GeneratorSeedStability|Degraded'
elif [ "${overload}" -eq 1 ]; then
  ctest --output-on-failure -j "${jobs}" \
    -R 'Admission|Breaker|Overload|Deadline|Brownout'
else
  ctest --output-on-failure -j "${jobs}"
fi
