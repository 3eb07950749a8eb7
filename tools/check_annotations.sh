#!/usr/bin/env bash
# Guard against regressions of the locking discipline (DESIGN.md "Locking
# discipline"): all production code must synchronize through the annotated
# rebert::util::Mutex / MutexLock / CondVar wrappers, never the raw
# standard-library primitives. Raw primitives are invisible to clang's
# -Wthread-safety capability analysis and to the debug lock-order registry,
# so one raw std::mutex quietly punches a hole in both.
#
# Scanned: src/ apps/ bench/ (tests may use raw primitives to exercise the
# pool from outside the discipline).
# Exempt: src/util/mutex.h and src/util/mutex.cc — the wrapper itself sits
# on std::mutex, and the registry's own leaf lock is deliberately raw.
#
# A second rule bans ad-hoc `thread_local` state: per-thread storage is
# invisible to the lock hierarchy and tends to grow into hidden caches
# with unclear lifetimes. The sanctioned homes are the lock registry's
# held-locks list (src/util/mutex.cc) and the kernel scratch arena
# (src/kernels/arena.cc — see DESIGN.md "Kernel dispatch & scratch
# arenas"). Anything else should route scratch space through
# kernels::thread_arena().
#
# Exit 0 when clean, 1 with a file:line listing on any violation.
set -u

cd "$(dirname "$0")/.."

BANNED='std::mutex|std::timed_mutex|std::recursive_mutex|std::shared_mutex|std::lock_guard|std::unique_lock|std::scoped_lock|std::shared_lock|std::condition_variable|<mutex>|<shared_mutex>|<condition_variable>'

SCAN_DIRS=()
for dir in src apps bench; do
  [ -d "$dir" ] && SCAN_DIRS+=("$dir")
done

VIOLATIONS=$(grep -rnE "$BANNED" "${SCAN_DIRS[@]}" \
    --include='*.h' --include='*.cc' --include='*.hpp' --include='*.cpp' \
    | grep -v '^src/util/mutex\.\(h\|cc\):' \
    | grep -v '^\([^:]*\):[0-9]*: *//' || true)

if [ -n "$VIOLATIONS" ]; then
  echo "check_annotations: raw synchronization primitives outside src/util/mutex.{h,cc}:" >&2
  echo "$VIOLATIONS" >&2
  echo "use rebert::util::Mutex / MutexLock / CondVar (src/util/mutex.h) instead" >&2
  exit 1
fi

TL_VIOLATIONS=$(grep -rnE '(^|[^_[:alnum:]])thread_local([^_[:alnum:]]|$)' "${SCAN_DIRS[@]}" \
    --include='*.h' --include='*.cc' --include='*.hpp' --include='*.cpp' \
    | grep -v '^src/util/mutex\.cc:' \
    | grep -v '^src/kernels/arena\.cc:' \
    | grep -v '^\([^:]*\):[0-9]*: *//' || true)

if [ -n "$TL_VIOLATIONS" ]; then
  echo "check_annotations: ad-hoc thread_local outside the sanctioned homes:" >&2
  echo "$TL_VIOLATIONS" >&2
  echo "route per-thread scratch through kernels::thread_arena() (src/kernels/arena.h)" >&2
  exit 1
fi

echo "check_annotations: all synchronization goes through util::Mutex; no ad-hoc thread_local"
exit 0
