#!/usr/bin/env bash
# Configure, build, and run the test suite under a sanitizer preset (the
# PDN3D_SANITIZE CMake option). Intended for CI and pre-release checks; see
# docs/ROBUSTNESS.md and docs/PARALLELISM.md.
#
# Presets (select with the PDN3D_SANITIZE environment variable):
#   address (default)  ASan + UBSan over the full test suite
#   thread             TSan over the concurrency suites (thread pool, parallel
#                      Monte Carlo / LUT / co-optimizer sweeps, platform cache)
#
# Usage: [PDN3D_SANITIZE=address|thread] scripts/run_sanitized_tests.sh \
#          [build-dir] [-- extra ctest args]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
preset="${PDN3D_SANITIZE:-address}"

case "$preset" in
  address|ON|on|1)
    preset=address
    default_build_dir="$repo_root/build-sanitize"
    ;;
  thread)
    default_build_dir="$repo_root/build-tsan"
    ;;
  *)
    echo "error: unknown PDN3D_SANITIZE preset '$preset' (want address or thread)" >&2
    exit 1
    ;;
esac

build_dir="${1:-$default_build_dir}"
shift $(( $# > 0 ? 1 : 0 )) || true

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu)"

if [[ "$preset" == thread ]]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPDN3D_SANITIZE=thread
  cmake --build "$build_dir" -j "$jobs"
  # The concurrency suites: the thread-pool unit tests plus every test that
  # drives a multi-threaded sweep, hammers a shared cache, or exercises the
  # batch service / fault registry across threads. The naming convention
  # (ThreadPool.*, Concurrent*, Parallel*, Service*, Faults*) is what this
  # regex keys on -- new concurrency tests should follow it to be picked up.
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
    -R '(ThreadPool|Concurrent|Parallel|Service|Faults)' "$@"
else
  # Abort on the first sanitizer report instead of trying to continue, and
  # make UBSan print stacks so CI logs are actionable.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPDN3D_SANITIZE=ON
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "$@"
fi
