#!/usr/bin/env bash
# Lint driver for the oakcpp tree: textual protocol greps (always run), then
# clang-tidy (.clang-tidy holds the profile) when LLVM is installed.
#
#   tools/lint.sh [build-dir]
#
# clang-tidy needs a compile_commands.json; pass the build dir (default:
# build — every preset exports the database).  The script exits 0 with a
# notice when clang-tidy is missing, so it is safe to call unconditionally
# from CI shells that lack LLVM.  The deeper protocol rules (EBR/SpinLock
# scope analysis) live in tools/oaklint.py.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

# --------------------------------------------------------- textual rules --
# Table-driven greps: no toolchain needed, so these gate every CI shell.
# Each rule is  name | extended-regex | remedy | pathspecs... ; a match
# fails the build with the remedy printed.  Fixtures are excluded
# everywhere — they exist to violate the rules.
FIX=':!tests/lint_fixtures'

run_rule() {
  local name="$1" regex="$2" remedy="$3"
  shift 3
  if git grep -nE "${regex}" -- "$@" "${FIX}"; then
    echo "lint.sh: ${name} violation (shown above)" >&2
    echo "  ${remedy}" >&2
    exit 1
  fi
  echo "lint.sh: ${name}: clean"
}

# OOM signalling must go through the typed hierarchy in common/error.hpp
# (OffHeapOutOfMemory / ManagedOutOfMemory) — a raw std::bad_alloc is
# indistinguishable at catch sites and breaks the tryPut/tryCompute
# degraded-path classification.
run_rule "bad_alloc" \
  'throw std::bad_alloc' \
  "throw OffHeapOutOfMemory or ManagedOutOfMemory from common/error.hpp instead." \
  'src/' ':!src/common/error.hpp'

# Environment reads go through the oak::env gateway (typed parsing, single
# audit point).  This grep is the no-toolchain fallback for oaklint rule R2.
run_rule "raw-getenv" \
  '(^|[^A-Za-z0-9_:.])getenv[[:space:]]*\(' \
  "route environment reads through oak::env (src/common/env.hpp)." \
  'src/' 'tests/' 'bench/' ':!src/common/env.hpp'

# Map knobs come from the config alone: library code under src/ reads no
# environment variable (the gateway, the fault schedule and the bench
# harness excepted).  No-toolchain fallback for oaklint rule R8.
run_rule "env-read" \
  '(^|[^A-Za-z0-9_])env::[A-Za-z0-9_]+[[:space:]]*\(' \
  "take the knob from the config (OakConfig and its groups), not the environment." \
  'src/' ':!src/common/env.hpp' ':!src/common/fault.cpp' ':!src/benchcore/'

# SpinLock holds must use oak::SpinGuard: std::lock_guard<SpinLock> carries
# no capability annotations, so Clang's analysis cannot see the acquire.
run_rule "spinlock-guard" \
  'std::lock_guard<[[:space:]]*(oak::)?SpinLock' \
  "use oak::SpinGuard (src/common/spin.hpp) so -Wthread-safety sees the hold." \
  'src/' 'tests/' 'bench/'

# Library mutexes must be the annotated wrappers (oak::Mutex/SharedMutex,
# src/common/mutex.hpp); raw std types are invisible to the analysis.
# Tests may keep std::mutex for their own scaffolding.
run_rule "raw-std-mutex" \
  'std::(shared_)?mutex[[:space:]]+[A-Za-z_]' \
  "use oak::Mutex / oak::SharedMutex (src/common/mutex.hpp) so the capability contract stays checkable." \
  'src/' ':!src/common/mutex.hpp'

# ------------------------------------------------------------ clang-tidy --
TIDY="$(command -v clang-tidy || true)"
if [[ -z "${TIDY}" ]]; then
  echo "lint.sh: clang-tidy not found on PATH; skipping static analysis." >&2
  exit 0
fi

if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "lint.sh: ${BUILD_DIR}/compile_commands.json missing; configure with" >&2
  echo "  cmake -B ${BUILD_DIR} -S .   (all presets export the database)" >&2
  exit 1
fi

# Library, test and bench .cpp files all compile standalone; header-only
# templates are covered through them via HeaderFilterRegex in .clang-tidy.
mapfile -t SOURCES < <(git ls-files 'src/**/*.cpp' 'tests/*.cpp' 'bench/*.cpp' |
  grep -v '^tests/lint_fixtures/')

echo "lint.sh: running ${TIDY} on ${#SOURCES[@]} sources"
"${TIDY}" -p "${BUILD_DIR}" --quiet "${SOURCES[@]}"
echo "lint.sh: clean"
