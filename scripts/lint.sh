#!/usr/bin/env bash
# Invariant lint for mpcsd.  Three layers:
#
#   1. grep-based repository invariants (zero dependencies) — rules the MPC
#      simulation's correctness argument relies on that neither a compiler
#      nor the conformance analyzer enforces;
#   2. mpcsd_verify (tools/mpcsd_verify), the conformance analyzer, over
#      src/, fuzz/ and examples/ (mandatory: build it first) — the
#      determinism and boundary-confinement rules;
#   3. clang-tidy over src/ and fuzz/ with the committed .clang-tidy
#      profile (run only when a clang-tidy binary exists; CI installs one,
#      minimal containers may not have it).
#
# Zero suppressions: a rule that needs an exception is a wrong rule.
# Usage: scripts/lint.sh [build_dir]   (default: build; it must hold the
#        built mpcsd_verify, and compile_commands.json for clang-tidy)
set -uo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
status=0

# Layer-2 analyzer: prefer an explicit override, else the built tool.
verify_bin="${MPCSD_VERIFY_BIN:-$build_dir/tools/mpcsd_verify/mpcsd_verify}"

fail() {
  echo "lint: FAIL: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  status=1
}

# Every rule scans the library and harness sources.  Tests deliberately
# violate some invariants (e.g. the auditor negative tests share a mutable
# counter across machines, and a backend test writes through its inbox
# view to pin process isolation), so they are out of scope.
sources=(src fuzz examples)

# --- No C rand()/srand() — all randomness must flow through the seeded
# Pcg32 streams, or machine results depend on global hidden state.
hits=$(grep -rnE '\b(s?rand)\s*\(' "${sources[@]}" --include='*.hpp' --include='*.cpp' || true)
[ -n "$hits" ] && fail "rand()/srand() forbidden; use common/rng.hpp streams" "$hits"

# --- No raw new/delete — ownership goes through containers and smart
# pointers, so round arenas cannot leak across rounds.  Line comments are
# stripped before matching (prose talks about "deleting" edits).
pat='(^|[^_[:alnum:]])(new|delete(\[\])?)[[:space:]]+[A-Za-z_:<(]'
hits=$(grep -rnE "$pat" "${sources[@]}" --include='*.hpp' --include='*.cpp' \
  | sed 's#//.*##' | grep -E "$pat" || true)
[ -n "$hits" ] && fail "raw new/delete forbidden; use containers or make_unique" "$hits"

# --- No nondeterministic seeds in library code — time only through
# common/timer.hpp Stopwatch, which metering excludes.
hits=$(grep -rnE 'std::random_device|time\(NULL\)|time\(nullptr\)' \
  src --include='*.hpp' --include='*.cpp' || true)
[ -n "$hits" ] && fail "nondeterministic seed source in src/; seeds must be explicit" "$hits"

if [ $status -ne 0 ]; then
  echo "lint: invariant rules failed" >&2
  exit 1
fi
echo "lint: invariant rules OK"

# --- Layer 2: mpcsd_verify conformance analyzer.
if [ ! -x "$verify_bin" ]; then
  echo "lint: $verify_bin not found; build it first:" >&2
  echo "    cmake --build $build_dir --target mpcsd_verify" >&2
  exit 1
fi
echo "lint: mpcsd_verify over ${sources[*]}"
"$verify_bin" --quiet "${sources[@]}" || {
  echo "lint: mpcsd_verify failed (re-run without --quiet for details):" >&2
  "$verify_bin" "${sources[@]}" >&2 || true
  exit 1
}
echo "lint: mpcsd_verify OK"

# --- Layer 3: clang-tidy (optional tool, mandatory pass when present).
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "lint: no $build_dir/compile_commands.json; configure first (cmake --preset default)" >&2
    exit 1
  fi
  mapfile -t files < <(find src fuzz -name '*.cpp' | sort)
  echo "lint: clang-tidy over ${#files[@]} files"
  clang-tidy -p "$build_dir" --quiet "${files[@]}" || {
    echo "lint: clang-tidy failed" >&2
    exit 1
  }
  echo "lint: clang-tidy OK"
else
  echo "lint: clang-tidy not found; skipped (grep invariants and mpcsd_verify still enforced)"
fi
