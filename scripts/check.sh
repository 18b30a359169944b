#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
# This is the line CI and reviewers run; it must pass on every commit.
#
# Environment knobs (all optional):
#   BUILD_TYPE  CMake build type (Debug, Release, RelWithDebInfo, ...).
#   SANITIZE    comma-separated sanitizers for -fsanitize=, e.g.
#               "address,undefined" or "thread" (the TSan run CI uses to
#               race-check the server's engine pool); implies frame
#               pointers.
#   BUILD_DIR   build tree to use (default: build, or build-<sanitize>
#               when SANITIZE is set, so sanitized trees don't clobber
#               the regular one).
#   TEST_FILTER ctest -R regex to run a subset of the suite (e.g.
#               "server_test|governance_test" for the threaded tests
#               only).
#   FAILPOINTS  1/0 to force the deterministic fault-injection sites on
#               or off (-DHYPO_FAILPOINTS=...); unset leaves the CMake
#               default (on except in Release builds).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake_args=()
build_dir="${BUILD_DIR:-build}"
if [ -n "${BUILD_TYPE:-}" ]; then
  cmake_args+=("-DCMAKE_BUILD_TYPE=${BUILD_TYPE}")
fi
if [ -n "${FAILPOINTS:-}" ]; then
  case "${FAILPOINTS}" in
    1|ON|on) cmake_args+=("-DHYPO_FAILPOINTS=ON") ;;
    0|OFF|off) cmake_args+=("-DHYPO_FAILPOINTS=OFF") ;;
    *) echo "FAILPOINTS must be 1/0 (got '${FAILPOINTS}')" >&2; exit 2 ;;
  esac
fi
if [ -n "${SANITIZE:-}" ]; then
  flags="-fsanitize=${SANITIZE} -fno-omit-frame-pointer"
  cmake_args+=("-DCMAKE_CXX_FLAGS=${flags}"
               "-DCMAKE_EXE_LINKER_FLAGS=${flags}")
  if [ -z "${BUILD_DIR:-}" ]; then
    build_dir="build-$(echo "${SANITIZE}" | tr ',' '-')"
  fi
fi

cmake -B "$build_dir" -S . "${cmake_args[@]}"
cmake --build "$build_dir" -j "$(nproc)"
cd "$build_dir" && ctest --output-on-failure -j "$(nproc)" \
  ${TEST_FILTER:+-R "$TEST_FILTER"}
