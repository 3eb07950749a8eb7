#!/usr/bin/env bash
# Static analysis driver: annotation lint, clang-tidy, clang thread-safety
# analysis, sanitizer test-suite runs, netlist lint over every generated
# benchmark, and serving smoke drills.
#
# Usage: tools/static_analysis.sh [--fast]
#                                 [--skip-annotations] [--skip-tidy]
#                                 [--skip-thread-safety] [--skip-sanitizers]
#                                 [--skip-kernels] [--skip-lint]
#                                 [--skip-smoke] [--skip-sharded]
#                                 [--skip-c10k]
#
# --fast runs only the cheap compile-level stages (1-3): annotation lint,
# clang-tidy, and the -Wthread-safety build — the pre-commit loop. The full
# run adds the sanitizer suites and the end-to-end drills.
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
#      explicit `ctest -L persist` and `ctest -L chaos` gates in the same
#      build dirs (crash-safety suites: atomic writer, RBPC snapshots,
#      checkpoint truncation, warm-start serving; chaos suites: fault
#      injection, admission control, deadlines, structural degradation,
#      lock-order death tests), plus a TSan build running the `concurrency`
#      and `chaos` labelled tests. Sanitizer builds force REBERT_DCHECKS
#      on, so the runtime lock-order registry is armed during every run.
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
#   6. Degraded-serving smoke: `rebert_cli serve` with REBERT_FAULTS
#      hard-failing every model forward must keep answering — recover
#      falls back to the structural baseline and tags the response
#      `degraded=structural`.
#   7. Sharded-serving smoke: `rebert_cli route` supervising two serve
#      backends behind one socket; requests relay through the router,
#      then one backend is SIGKILLed and traffic must still be answered
#      (reroute to the survivor, or the supervisor's respawn).
#   8. Warm-start kill drill: snapshots + SIGKILL + supervisor respawn;
#      the respawned backend's first answer must already be warm from the
#      mmap tier (warm_entries > 0, cache_misses = 0).
#   8b. Replica failover smoke: route (R = 2), prime a score
#      through the router so the mirror queue warms the secondary, then
#      SIGKILL the bench's primary — the resend must answer ok with ZERO
#      new cache misses on the survivor (the warm-failover acceptance,
#      end to end through the CLI).
#   9. C10K smoke: `bench/serve_overload --connections 1000` parks a
#      thousand idle sockets on the reactor and demands flat thread
#      count, answered traffic within deadline, and a clean stop() —
#      the bench exits non-zero when any of those regress.
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
RUN_SMOKE=1
RUN_SHARDED=1
RUN_C10K=1
for arg in "$@"; do
  case "$arg" in
    --fast) RUN_SAN=0; RUN_KERNELS=0; RUN_LINT=0; RUN_SMOKE=0; RUN_SHARDED=0; RUN_C10K=0 ;;
    --skip-annotations) RUN_ANNOTATIONS=0 ;;
    --skip-tidy) RUN_TIDY=0 ;;
    --skip-thread-safety) RUN_TSAFETY=0 ;;
    --skip-sanitizers) RUN_SAN=0 ;;
    --skip-kernels) RUN_KERNELS=0 ;;
    --skip-lint) RUN_LINT=0 ;;
    --skip-smoke) RUN_SMOKE=0 ;;
    --skip-sharded) RUN_SHARDED=0 ;;
    --skip-c10k) RUN_C10K=0 ;;
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
# by the lint and smoke stages. Returns non-zero when the build fails.
ensure_cli() {
  local build=build
  if [ ! -x "$build/apps/rebert_cli" ]; then
    cmake -B "$build" -S . >/dev/null && cmake --build "$build" -j "$JOBS" --target rebert_cli >/dev/null \
      || { echo "failed to build rebert_cli" >&2; return 1; }
  fi
  CLI="$ROOT/$build/apps/rebert_cli"
}

# Build (if needed) and export $OVERLOAD_BENCH, the plain-build
# serve_overload bench used by the C10K smoke.
ensure_overload_bench() {
  local build=build
  if [ ! -x "$build/bench/serve_overload" ]; then
    cmake -B "$build" -S . >/dev/null && cmake --build "$build" -j "$JOBS" --target serve_overload >/dev/null \
      || { echo "failed to build serve_overload" >&2; return 1; }
  fi
  OVERLOAD_BENCH="$ROOT/$build/bench/serve_overload"
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
# label (TSan runs the `concurrency` subset — its runtime slows the
# numerical tests severely and they carry no threading to check).
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
    # Explicit gates: the crash-safety and chaos suites must stay green
    # under this sanitizer even if the full run above is ever narrowed.
    (cd "$dir" && ctest --output-on-failure -j "$JOBS" -L persist) || ok=0
    (cd "$dir" && ctest --output-on-failure -j "$JOBS" -L chaos) || ok=0
  fi
  [ "$ok" -eq 1 ] && record "sanitizer-$san" PASS || record "sanitizer-$san" FAIL
}

if [ "$RUN_SAN" -eq 1 ]; then
  run_sanitizer address
  run_sanitizer undefined
  # ctest -L takes a regex: one TSan build covers both labelled subsets.
  run_sanitizer thread "concurrency|chaos"
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

# ---- 6. degraded-serving smoke ---------------------------------------------
# Arm the fault injector so every model forward fails, then demand that a
# stdio serving session still answers: recover must come back `ok` tagged
# `degraded=structural` (the structural baseline needs no model), and the
# health verb must report the degradation.
if [ "$RUN_SMOKE" -eq 1 ]; then
  note "degraded serving smoke (REBERT_FAULTS=model.forward:1.0:7)"
  ensure_cli || exit 1
  SMOKE_OUT=$(printf 'health\nrecover b03\nhealth\nquit\n' | \
    REBERT_FAULTS=model.forward:1.0:7 "$CLI" serve --scale 0.25 2>/dev/null)
  echo "$SMOKE_OUT"
  SMOKE_ERRORS=0
  echo "$SMOKE_OUT" | grep -q '^ok words=.*degraded=structural' \
    || { echo "FAIL: recover did not degrade to the structural baseline"; SMOKE_ERRORS=$((SMOKE_ERRORS + 1)); }
  echo "$SMOKE_OUT" | grep -q '^ok status=degraded' \
    || { echo "FAIL: health did not report status=degraded"; SMOKE_ERRORS=$((SMOKE_ERRORS + 1)); }
  if [ "$SMOKE_ERRORS" -eq 0 ]; then
    echo "degraded serving smoke passed"
    record degraded-smoke PASS
  else
    record degraded-smoke FAIL
  fi
fi

# ---- 7. sharded serving smoke ----------------------------------------------
# One router socket in front of two supervised serve backends. Drive real
# requests through the relay, SIGKILL one backend, and demand the fleet
# keeps answering — the dead backend's key range reroutes to the survivor
# (and the supervisor respawns the victim in the background).
if [ "$RUN_SHARDED" -eq 1 ]; then
  note "sharded serving smoke (route + 2 backends, one SIGKILLed)"
  ensure_cli || exit 1
  RWORK=$(mktemp -d)
  RSOCK="$RWORK/router.sock"
  SHARD_ERRORS=0
  "$CLI" route --socket "$RSOCK" --backends 2 --scale 0.25 \
    --max-inflight 8 > "$RWORK/route.log" 2>&1 &
  ROUTE_PID=$!
  # The drill kills one of two HEALTHY backends, so wait until the health
  # prober has admitted both (children boot full engines; allow minutes).
  READY=0
  for _ in $(seq 1 240); do
    if [ "$("$CLI" call --socket "$RSOCK" backends 2>/dev/null \
        | grep -o 'healthy=1' | wc -l)" -eq 2 ]; then READY=1; break; fi
    sleep 0.5
  done
  if [ "$READY" -eq 1 ]; then
    "$CLI" call --socket "$RSOCK" recover b03 2>/dev/null \
      | grep -q '^ok words=' \
      || { echo "FAIL: recover b03 through the router"; SHARD_ERRORS=$((SHARD_ERRORS + 1)); }
    BACKENDS=$("$CLI" call --socket "$RSOCK" backends 2>/dev/null)
    echo "$BACKENDS"
    VICTIM=$(echo "$BACKENDS" | grep -o 'name=backend1[^|]*' \
      | grep -o 'pid=[0-9]*' | cut -d= -f2)
    if [ -n "${VICTIM:-}" ] && [ "$VICTIM" -gt 0 ] 2>/dev/null; then
      kill -9 "$VICTIM" 2>/dev/null
      # The survivor answers once the prober evicts the corpse from the
      # ring (a few probe intervals); poll rather than demand instant
      # rerouting. --retry additionally rides out per-call shed advisories.
      REROUTED=0
      for _ in $(seq 1 60); do
        if "$CLI" call --socket "$RSOCK" --retry recover b03 2>/dev/null \
            | grep -q '^ok words='; then REROUTED=1; break; fi
        sleep 0.5
      done
      [ "$REROUTED" -eq 1 ] \
        || { echo "FAIL: recover after killing backend1"; SHARD_ERRORS=$((SHARD_ERRORS + 1)); }
      "$CLI" call --socket "$RSOCK" stats 2>/dev/null \
        | grep -q '^ok role=router' \
        || { echo "FAIL: router stats unavailable after the kill"; SHARD_ERRORS=$((SHARD_ERRORS + 1)); }
    else
      echo "FAIL: could not parse backend1 pid from backends output"
      SHARD_ERRORS=$((SHARD_ERRORS + 1))
    fi
  else
    echo "FAIL: router fleet never became ready"
    "$CLI" call --socket "$RSOCK" backends 2>/dev/null
    sed -n '1,20p' "$RWORK/route.log"
    SHARD_ERRORS=$((SHARD_ERRORS + 1))
  fi
  kill "$ROUTE_PID" 2>/dev/null
  wait "$ROUTE_PID" 2>/dev/null
  rm -rf "$RWORK"
  if [ "$SHARD_ERRORS" -eq 0 ]; then
    echo "sharded serving smoke passed"
    record sharded-smoke PASS
  else
    record sharded-smoke FAIL
  fi
fi

# ---- 8. warm-start kill drill -----------------------------------------------
# The O(1) warm-start acceptance drill: a supervised fleet snapshots each
# backend's cache to its own RBPC file after every request. One backend is primed, SIGKILLed, and
# respawned by the supervisor — and its FIRST answer must already be warm:
# stats polled before any score/recover reaches it have to show
# warm_entries > 0 (the mmap tier attached at boot) with cache_misses = 0
# (nothing was re-scored to get there).
if [ "$RUN_SHARDED" -eq 1 ]; then
  note "warm-start kill drill (route + snapshots, SIGKILL, warm respawn)"
  ensure_cli || exit 1
  WWORK=$(mktemp -d)
  WSOCK="$WWORK/router.sock"
  WARM_ERRORS=0
  "$CLI" route --socket "$WSOCK" --backends 2 --scale 0.25 \
    --max-inflight 8 --cache-file "$WWORK/cache.rbpc" --snapshot-every 1 \
    > "$WWORK/route.log" 2>&1 &
  WROUTE_PID=$!
  WREADY=0
  for _ in $(seq 1 240); do
    if [ "$("$CLI" call --socket "$WSOCK" backends 2>/dev/null \
        | grep -o 'healthy=1' | wc -l)" -eq 2 ]; then WREADY=1; break; fi
    sleep 0.5
  done
  if [ "$WREADY" -eq 1 ]; then
    # Prime the victim directly on its own socket (placement-independent);
    # --snapshot-every 1 persists the scores immediately.
    "$CLI" call --socket "$WSOCK.backend1" recover b03 2>/dev/null \
      | grep -q '^ok words=' \
      || { echo "FAIL: priming recover on backend1"; WARM_ERRORS=$((WARM_ERRORS + 1)); }
    # Wait for a snapshot written strictly AFTER the prime landed. Health
    # probes also trigger cadence snapshots (and a cadence save skips when
    # another save holds the lock), so a merely non-empty file may predate
    # the prime and hold zero entries — killing on that evidence races.
    sleep 0.6
    touch "$WWORK/prime.marker"
    SNAP_FRESH=0
    for _ in $(seq 1 60); do
      if [ -n "$(find "$WWORK/cache.rbpc.backend1" -newer "$WWORK/prime.marker" 2>/dev/null)" ]; then
        SNAP_FRESH=1; break
      fi
      sleep 0.5
    done
    [ "$SNAP_FRESH" -eq 1 ] \
      || { echo "FAIL: backend1 wrote no post-prime snapshot"; WARM_ERRORS=$((WARM_ERRORS + 1)); }
    VICTIM=$("$CLI" call --socket "$WSOCK" backends 2>/dev/null \
      | grep -o 'name=backend1[^|]*' | grep -o 'pid=[0-9]*' | cut -d= -f2)
    if [ -n "${VICTIM:-}" ] && [ "$VICTIM" -gt 0 ] 2>/dev/null; then
      kill -9 "$VICTIM" 2>/dev/null
      # First contact with the respawn is a stats probe — never a scoring
      # request — so the counters below prove the warmth came from the
      # mapped snapshot, not from re-scoring.
      WSTATS=""
      for _ in $(seq 1 240); do
        WSTATS=$("$CLI" call --socket "$WSOCK.backend1" stats 2>/dev/null)
        if echo "$WSTATS" | grep -q '^ok threads='; then break; fi
        WSTATS=""
        sleep 0.5
      done
      if [ -n "$WSTATS" ]; then
        echo "$WSTATS"
        echo "$WSTATS" | grep -q 'warm_entries=0 ' \
          && { echo "FAIL: respawned backend1 has no warm entries"; WARM_ERRORS=$((WARM_ERRORS + 1)); }
        echo "$WSTATS" | grep -q 'cache_misses=0 ' \
          || { echo "FAIL: respawned backend1 already took cold misses"; WARM_ERRORS=$((WARM_ERRORS + 1)); }
        # And the fleet answers the re-run through the router, warm.
        "$CLI" call --socket "$WSOCK" --retry recover b03 2>/dev/null \
          | grep -q '^ok words=' \
          || { echo "FAIL: recover b03 through the router after respawn"; WARM_ERRORS=$((WARM_ERRORS + 1)); }
      else
        echo "FAIL: backend1 never respawned"
        sed -n '1,20p' "$WWORK/route.log"
        WARM_ERRORS=$((WARM_ERRORS + 1))
      fi
    else
      echo "FAIL: could not parse backend1 pid from backends output"
      WARM_ERRORS=$((WARM_ERRORS + 1))
    fi
  else
    echo "FAIL: router fleet never became ready"
    sed -n '1,20p' "$WWORK/route.log"
    WARM_ERRORS=$((WARM_ERRORS + 1))
  fi
  kill "$WROUTE_PID" 2>/dev/null
  wait "$WROUTE_PID" 2>/dev/null
  rm -rf "$WWORK"
  if [ "$WARM_ERRORS" -eq 0 ]; then
    echo "warm-start kill drill passed"
    record warm-kill-drill PASS
  else
    record warm-kill-drill FAIL
  fi
fi

# ---- 8b. replica failover smoke ----------------------------------------------
# The R = 2 warm-failover acceptance, end to end through the CLI: a score
# primed through the router is answered by the bench's primary and
# asynchronously mirrored onto its secondary. After SIGKILLing the primary
# the resend must come back `ok` with ZERO new cache misses on the
# survivor — the victim's key range is served warm, not re-scored.
if [ "$RUN_SHARDED" -eq 1 ]; then
  note "replica failover smoke (route, mirror-warm, SIGKILL primary)"
  ensure_cli || exit 1
  FWORK=$(mktemp -d)
  FSOCK="$FWORK/router.sock"
  FO_ERRORS=0
  # A words file for b03 at the fleet's scale gives real bit names for the
  # score line (the words map groups exactly the netlist's bit names).
  "$CLI" gen --bench b03 --scale 0.25 --out "$FWORK/b03.bench" \
    --words "$FWORK/b03.words" >/dev/null \
    || { echo "FAIL: gen b03"; FO_ERRORS=$((FO_ERRORS + 1)); }
  BIT_A=$(grep -v '^#' "$FWORK/b03.words" | head -1 | cut -d: -f2 | awk '{print $1}')
  BIT_B=$(grep -v '^#' "$FWORK/b03.words" | head -1 | cut -d: -f2 | awk '{print $2}')
  [ -n "${BIT_B:-}" ] || BIT_B="$BIT_A"
  "$CLI" route --socket "$FSOCK" --backends 2 --scale 0.25 \
    --max-inflight 8 > "$FWORK/route.log" 2>&1 &
  FROUTE_PID=$!
  FREADY=0
  for _ in $(seq 1 240); do
    if [ "$("$CLI" call --socket "$FSOCK" backends 2>/dev/null \
        | grep -o 'healthy=1' | wc -l)" -eq 2 ]; then FREADY=1; break; fi
    sleep 0.5
  done
  if [ "$FREADY" -eq 1 ] && [ -n "${BIT_A:-}" ]; then
    # Failover order for b03: owners=<primary>,<secondary>. Poll through
    # transient probe flaps — a backend marked unhealthy for one probe
    # interval drops out of the ring and out of this listing until the
    # next successful probe revives it.
    OWNERS=""
    for _ in $(seq 1 60); do
      OWNERS=$("$CLI" call --socket "$FSOCK" owners b03 2>/dev/null \
        | grep -o 'owners=[^ ]*' | cut -d= -f2)
      case "$OWNERS" in *,*) break ;; esac
      sleep 0.5
    done
    PRIMARY=${OWNERS%%,*}
    SECONDARY=${OWNERS##*,}
    if [ -n "$PRIMARY" ] && [ -n "$SECONDARY" ] && [ "$PRIMARY" != "$SECONDARY" ]; then
      "$CLI" call --socket "$FSOCK" --retry score b03 "$BIT_A" "$BIT_B" 2>/dev/null \
        | grep -q '^ok ' \
        || { echo "FAIL: priming score through the router"; FO_ERRORS=$((FO_ERRORS + 1)); }
      # Wait until the secondary holds the scored pair. Normally the async
      # mirror replay puts it there; if an early-boot health flap made the
      # secondary answer the prime itself (a failover replica hit), it is
      # warm directly — either way its cache must be populated before the
      # kill, or the zero-cold-miss assertion below would be vacuous.
      WARMED=0
      for _ in $(seq 1 60); do
        if "$CLI" call --socket "$FSOCK.$SECONDARY" stats 2>/dev/null \
            | grep -qE 'cache_entries=[1-9]'; then WARMED=1; break; fi
        sleep 0.5
      done
      [ "$WARMED" -eq 1 ] \
        || { echo "FAIL: secondary never became warm after the prime"; FO_ERRORS=$((FO_ERRORS + 1)); }
      # The router counts a mirror only after the secondary has replied,
      # so a warm secondary can briefly precede the counter: poll it too.
      MIRRORED=0
      for _ in $(seq 1 60); do
        if "$CLI" call --socket "$FSOCK" stats 2>/dev/null \
            | grep -qE 'mirrored=[1-9]|replica_hits=[1-9]'; then MIRRORED=1; break; fi
        sleep 0.5
      done
      [ "$MIRRORED" -eq 1 ] \
        || { echo "FAIL: neither mirror replay nor a replica hit warmed the secondary"; FO_ERRORS=$((FO_ERRORS + 1)); }
      MISSES_BEFORE=$("$CLI" call --socket "$FSOCK.$SECONDARY" stats 2>/dev/null \
        | grep -o 'cache_misses=[0-9]*' | cut -d= -f2)
      VICTIM=$("$CLI" call --socket "$FSOCK" backends 2>/dev/null \
        | grep -o "name=$PRIMARY[^|]*" | grep -o 'pid=[0-9]*' | cut -d= -f2)
      if [ -n "${VICTIM:-}" ] && [ "$VICTIM" -gt 0 ] 2>/dev/null \
          && [ -n "${MISSES_BEFORE:-}" ]; then
        kill -9 "$VICTIM" 2>/dev/null
        FANSWERED=0
        for _ in $(seq 1 60); do
          if "$CLI" call --socket "$FSOCK" --retry score b03 "$BIT_A" "$BIT_B" 2>/dev/null \
              | grep -q '^ok '; then FANSWERED=1; break; fi
          sleep 0.5
        done
        [ "$FANSWERED" -eq 1 ] \
          || { echo "FAIL: score after killing the primary"; FO_ERRORS=$((FO_ERRORS + 1)); }
        MISSES_AFTER=$("$CLI" call --socket "$FSOCK.$SECONDARY" stats 2>/dev/null \
          | grep -o 'cache_misses=[0-9]*' | cut -d= -f2)
        echo "survivor $SECONDARY cache_misses: ${MISSES_BEFORE:-?} -> ${MISSES_AFTER:-?}"
        [ -n "${MISSES_AFTER:-}" ] && [ "$MISSES_AFTER" = "$MISSES_BEFORE" ] \
          || { echo "FAIL: survivor took cold misses during failover"; FO_ERRORS=$((FO_ERRORS + 1)); }
        "$CLI" call --socket "$FSOCK" stats 2>/dev/null \
          | grep -qE 'replica_hits=[1-9]|reroutes=[1-9]|backends_failed=[1-9]' \
          || { echo "FAIL: router stats show no failover evidence"; FO_ERRORS=$((FO_ERRORS + 1)); }
      else
        echo "FAIL: could not parse the primary's pid or the survivor's stats"
        FO_ERRORS=$((FO_ERRORS + 1))
      fi
    else
      echo "FAIL: owners b03 did not list two distinct replicas (got '$OWNERS')"
      FO_ERRORS=$((FO_ERRORS + 1))
    fi
  else
    echo "FAIL: router fleet never became ready (or no bit names)"
    sed -n '1,20p' "$FWORK/route.log"
    FO_ERRORS=$((FO_ERRORS + 1))
  fi
  kill "$FROUTE_PID" 2>/dev/null
  wait "$FROUTE_PID" 2>/dev/null
  rm -rf "$FWORK"
  if [ "$FO_ERRORS" -eq 0 ]; then
    echo "replica failover smoke passed"
    record replica-failover PASS
  else
    record replica-failover FAIL
  fi
fi

# ---- 9. C10K reactor smoke --------------------------------------------------
# A thousand idle connections parked on the reactor while live traffic is
# driven through it. The bench itself enforces the acceptance: thread
# count must not grow with connection count, the active clients must see
# zero errors within their deadlines, the p95 under load must stay within
# bounds of the unloaded baseline, and stop() must return (a wedge shows
# up as the bench hanging until this script's caller loses patience).
if [ "$RUN_C10K" -eq 1 ]; then
  note "C10K smoke (serve_overload --connections 1000)"
  if ensure_overload_bench; then
    CWORK=$(mktemp -d)
    if (cd "$CWORK" && \
        REBERT_SCALE=0.1 REBERT_OVERLOAD_REQUESTS=5 \
        REBERT_OVERLOAD_CLIENTS=4 \
        "$OVERLOAD_BENCH" --connections 1000); then
      echo "C10K smoke passed"
      record c10k-smoke PASS
    else
      record c10k-smoke FAIL
    fi
    rm -rf "$CWORK"
  else
    record c10k-smoke FAIL
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
