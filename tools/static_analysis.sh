#!/usr/bin/env bash
# Static analysis driver: annotation lint, clang-tidy, clang thread-safety
# analysis, sanitizer test-suite runs (serving drills included), and
# netlist lint over every generated benchmark.
#
# Usage: tools/static_analysis.sh [--fast]
#                                 [--skip-annotations] [--skip-tidy]
#                                 [--skip-thread-safety] [--skip-sanitizers]
#                                 [--skip-kernels] [--skip-lint]
#
# --fast runs only the cheap compile-level stages (1-3): annotation lint,
# clang-tidy, and the -Wthread-safety build — the pre-commit loop. The full
# run adds the sanitizer suites and the netlist lint sweep.
#
# Stages (each independently skippable):
#   1. tools/check_annotations.sh — bans raw std::mutex & friends outside
#      the annotated util::Mutex wrapper (see DESIGN.md "Locking
#      discipline").
#   2. clang-tidy over src/ and apps/ using a compile_commands.json build
#      (.clang-tidy enables concurrency-* with WarningsAsErrors). Skipped
#      with a notice when clang-tidy is not installed (the container image
#      ships only gcc).
#   3. clang thread-safety capability analysis: a clang++ rebuild of the
#      whole tree with -Wthread-safety -Wthread-safety-beta
#      -Werror=thread-safety-analysis and REBERT_DCHECKS=ON, so every
#      GUARDED_BY / REQUIRES / EXCLUDES annotation is enforced at compile
#      time. Skipped with a notice when clang++ is not installed.
#   4. ASan and UBSan builds of the full test suite, run under ctest, then
#      explicit `ctest -L persist`, `ctest -L chaos` and `ctest -L drill`
#      gates in the same build dirs (crash-safety suites: atomic writer,
#      RBPC snapshots, checkpoint truncation, warm-start serving; chaos
#      suites: fault injection, admission control, deadlines, structural
#      degradation, lock-order death tests; drills: the built rebert_cli's
#      serve and route processes faulted and SIGKILLed), plus a TSan build
#      running the `concurrency`, `chaos` and `drill` labelled tests.
#      Sanitizer builds force REBERT_DCHECKS on, so the runtime lock-order
#      registry is armed during every run.
#   4b. Kernel backend gate: the dispatched SIMD kernels' parity and
#      determinism suite (`ctest -L kernels`) re-run in the ASan and
#      UBSan build dirs with REBERT_KERNELS pinned first to `scalar`,
#      then to `avx2` — an out-of-bounds read in a packed GEMM panel or
#      a UB cast in the exp polynomial must not hide behind whichever
#      backend cpuid happens to pick. The avx2 leg SKIPs gracefully on
#      hosts without AVX2+FMA. (clang-tidy already covers src/kernels
#      through stage 2's sweep of src/.)
#   5. `rebert_cli lint` over every circuitgen benchmark (b03..b18) at
#      R-Index 0 and 0.4. Error-severity diagnostics fail the stage;
#      warnings are reported but tolerated (generated circuits contain
#      intentional dead distractor logic).
#
# Exits non-zero when any stage FAILed; SKIPped stages (missing clang) do
# not fail the run. A PASS/FAIL/SKIP table is printed at the end.
set -u

cd "$(dirname "$0")/.."
ROOT=$(pwd)

RUN_ANNOTATIONS=1
RUN_TIDY=1
RUN_TSAFETY=1
RUN_SAN=1
RUN_KERNELS=1
RUN_LINT=1
for arg in "$@"; do
  case "$arg" in
    --fast) RUN_SAN=0; RUN_KERNELS=0; RUN_LINT=0 ;;
    --skip-annotations) RUN_ANNOTATIONS=0 ;;
    --skip-tidy) RUN_TIDY=0 ;;
    --skip-thread-safety) RUN_TSAFETY=0 ;;
    --skip-sanitizers) RUN_SAN=0 ;;
    --skip-kernels) RUN_KERNELS=0 ;;
    --skip-lint) RUN_LINT=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS=$(nproc 2>/dev/null || echo 2)
FAILURES=0

# Stage ledger for the summary table: record <name> <PASS|FAIL|SKIP>.
STAGE_NAMES=()
STAGE_RESULTS=()
record() {
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  [ "$2" = "FAIL" ] && FAILURES=$((FAILURES + 1))
  return 0
}

note() { printf '\n== %s ==\n' "$1"; }

# Build (if needed) and export $CLI, the plain-build rebert_cli binary used
# by the lint stage. Returns non-zero when the build fails.
ensure_cli() {
  local build=build
  if [ ! -x "$build/apps/rebert_cli" ]; then
    cmake -B "$build" -S . >/dev/null && cmake --build "$build" -j "$JOBS" --target rebert_cli >/dev/null \
      || { echo "failed to build rebert_cli" >&2; return 1; }
  fi
  CLI="$ROOT/$build/apps/rebert_cli"
}

# ---- 1. annotation lint ----------------------------------------------------
if [ "$RUN_ANNOTATIONS" -eq 1 ]; then
  note "annotation lint (tools/check_annotations.sh)"
  if tools/check_annotations.sh; then
    record annotations PASS
  else
    record annotations FAIL
  fi
fi

# ---- 2. clang-tidy ---------------------------------------------------------
if [ "$RUN_TIDY" -eq 1 ]; then
  note "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    TIDY_OK=1
    cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || TIDY_OK=0
    if [ "$TIDY_OK" -eq 1 ]; then
      mapfile -t TIDY_SOURCES < <(find src apps -name '*.cc' | sort)
      if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build-tidy -quiet "${TIDY_SOURCES[@]}" || TIDY_OK=0
      else
        clang-tidy -p build-tidy --quiet "${TIDY_SOURCES[@]}" || TIDY_OK=0
      fi
    fi
    [ "$TIDY_OK" -eq 1 ] && record clang-tidy PASS || record clang-tidy FAIL
  else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)"
    record clang-tidy SKIP
  fi
fi

# ---- 3. clang thread-safety analysis ---------------------------------------
# A full rebuild under clang with the capability analysis promoted to an
# error: every GUARDED_BY field read without its lock, every EXCLUDES
# violation, every unannotated acquisition fails the stage. DCHECKS on so
# the debug registry code itself is also compiled and checked.
if [ "$RUN_TSAFETY" -eq 1 ]; then
  note "clang -Wthread-safety"
  if command -v clang++ >/dev/null 2>&1; then
    TSAFETY_OK=1
    TSAFETY_LOG=$(mktemp)
    cmake -B build-tsafety -S . \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
        -DREBERT_DCHECKS=ON \
        -DCMAKE_CXX_FLAGS="-Wthread-safety -Wthread-safety-beta -Werror=thread-safety-analysis" \
        >/dev/null 2>"$TSAFETY_LOG" || TSAFETY_OK=0
    if [ "$TSAFETY_OK" -eq 1 ]; then
      cmake --build build-tsafety -j "$JOBS" >"$TSAFETY_LOG" 2>&1 || TSAFETY_OK=0
    fi
    if [ "$TSAFETY_OK" -eq 1 ]; then
      echo "thread-safety analysis clean"
      record thread-safety PASS
    else
      grep -E 'thread-safety|error' "$TSAFETY_LOG" | head -40
      record thread-safety FAIL
    fi
    rm -f "$TSAFETY_LOG"
  else
    echo "clang++ not installed; skipping (annotations still compile as no-ops under gcc)"
    record thread-safety SKIP
  fi
fi

# ---- 4. sanitizer builds ---------------------------------------------------
# run_sanitizer <sanitizer> [ctest-label]: builds the suite under the given
# sanitizer and runs either the whole suite or only the tests carrying the
# label (TSan runs the `concurrency|chaos|drill` subset — its runtime slows
# the numerical tests severely and they carry no threading to check).
run_sanitizer() {
  local san="$1"
  local label="${2:-}"
  local dir="build-$san"
  local ok=1
  note "sanitizer: $san${label:+ (ctest -L $label)}"
  cmake -B "$dir" -S . -DREBERT_SANITIZE="$san" >/dev/null || { record "sanitizer-$san" FAIL; return; }
  cmake --build "$dir" -j "$JOBS" >/dev/null || { record "sanitizer-$san" FAIL; return; }
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" ${label:+-L "$label"}) || ok=0
  if [ -z "$label" ]; then
    # Explicit gates: the crash-safety, chaos and drill suites must stay
    # green under this sanitizer even if the full run above is ever
    # narrowed.
    for gate in persist chaos drill; do
      (cd "$dir" && ctest --output-on-failure -j "$JOBS" -L "$gate") || ok=0
    done
  fi
  [ "$ok" -eq 1 ] && record "sanitizer-$san" PASS || record "sanitizer-$san" FAIL
}

if [ "$RUN_SAN" -eq 1 ]; then
  run_sanitizer address
  run_sanitizer undefined
  # ctest -L takes a regex: one TSan build covers all three labelled
  # subsets.
  run_sanitizer thread "concurrency|chaos|drill"
fi

# ---- 4b. kernel backend gate ------------------------------------------------
# `ctest -L kernels` once per backend per sanitizer, REBERT_KERNELS pinned
# so the run exercises the named backend rather than whatever cpuid picks.
# Reuses (or builds) the stage-4 ASan/UBSan dirs.
if [ "$RUN_KERNELS" -eq 1 ]; then
  HAVE_AVX2=0
  if grep -q ' avx2 \| avx2$\|avx2 ' /proc/cpuinfo 2>/dev/null \
      && grep -q 'fma' /proc/cpuinfo 2>/dev/null; then
    HAVE_AVX2=1
  fi
  for san in address undefined; do
    note "kernel backends under $san (ctest -L kernels, scalar + avx2)"
    KOK=1
    KDIR="build-$san"
    cmake -B "$KDIR" -S . -DREBERT_SANITIZE="$san" >/dev/null || KOK=0
    if [ "$KOK" -eq 1 ]; then
      cmake --build "$KDIR" -j "$JOBS" >/dev/null || KOK=0
    fi
    if [ "$KOK" -eq 1 ]; then
      for backend in scalar avx2; do
        if [ "$backend" = avx2 ] && [ "$HAVE_AVX2" -eq 0 ]; then
          echo "host lacks AVX2+FMA; skipping the REBERT_KERNELS=avx2 leg"
          continue
        fi
        (cd "$KDIR" && REBERT_KERNELS="$backend" \
          ctest --output-on-failure -j "$JOBS" -L kernels) || KOK=0
      done
    fi
    [ "$KOK" -eq 1 ] && record "kernels-$san" PASS || record "kernels-$san" FAIL
  done
fi

# ---- 5. netlist lint over generated benchmarks -----------------------------
if [ "$RUN_LINT" -eq 1 ]; then
  note "netlist lint (b03..b18, R-Index 0 and 0.4)"
  ensure_cli || exit 1
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT
  LINT_ERRORS=0
  for bench in b03 b04 b05 b07 b08 b11 b12 b13 b14 b15 b17 b18; do
    "$CLI" gen --bench "$bench" --out "$WORK/$bench.bench" --words "$WORK/$bench.words" >/dev/null \
      || { echo "FAIL: gen $bench"; LINT_ERRORS=$((LINT_ERRORS + 1)); continue; }
    if ! "$CLI" lint --in "$WORK/$bench.bench" --words "$WORK/$bench.words" >/dev/null; then
      echo "FAIL: lint $bench (R=0)"
      "$CLI" lint --in "$WORK/$bench.bench" --words "$WORK/$bench.words" | grep '^error' | head -5
      LINT_ERRORS=$((LINT_ERRORS + 1))
    fi
    "$CLI" corrupt --in "$WORK/$bench.bench" --r-index 0.4 --seed 7 \
      --out "$WORK/$bench.r04.bench" >/dev/null \
      || { echo "FAIL: corrupt $bench"; LINT_ERRORS=$((LINT_ERRORS + 1)); continue; }
    if ! "$CLI" lint --in "$WORK/$bench.r04.bench" >/dev/null; then
      echo "FAIL: lint $bench (R=0.4)"
      LINT_ERRORS=$((LINT_ERRORS + 1))
    fi
  done
  if [ "$LINT_ERRORS" -eq 0 ]; then
    echo "all benchmarks lint clean of errors"
    record netlist-lint PASS
  else
    record netlist-lint FAIL
  fi
fi

# ---- summary ---------------------------------------------------------------
note "summary"
printf '%-18s %s\n' "stage" "result"
printf '%-18s %s\n' "-----" "------"
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-18s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done
if [ "$FAILURES" -eq 0 ]; then
  echo "static analysis passed"
else
  echo "static analysis: $FAILURES stage(s) failed"
fi
exit "$((FAILURES > 0))"
