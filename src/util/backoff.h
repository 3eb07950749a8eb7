// Deterministic seeded backoff jitter — the anti-thundering-herd knob.
//
// Capped exponential backoff alone synchronizes clients: after a backend
// is SIGKILLed, every waiter computes the same delay from the same
// advisory and re-arrives in one wave, which is exactly the load the
// respawned process cannot absorb. The classic fix is randomized jitter,
// but wall-clock randomness would make retry schedules unreplayable — the
// chaos tests and benches rely on a run being a pure function of its
// seeds.
//
// This header keeps both properties: jitter is a pure function of
// (seed, sequence), where the seed identifies the waiter (client
// connection, supervised worker) and the sequence numbers its attempts.
// Two waiters with different seeds spread out; one waiter replays
// identically every run.
#pragma once

#include <cstdint>

namespace rebert::util {

/// splitmix64 — full-avalanche 64-bit mixer. Cheap, stateless, and good
/// enough to decorrelate (seed, sequence) pairs into uniform-looking
/// words; not for cryptography.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `backoff_ms` stretched by a deterministic jitter in
/// [0, backoff_ms * jitter_pct / 100], chosen by (seed, sequence).
/// jitter_pct <= 0 (or a zero base) returns backoff_ms unchanged, so the
/// default-configured paths stay bit-identical to the unjittered code.
/// Jitter only ever ADDS delay: a capped backoff never shrinks below the
/// server's advisory, and a "respawned inside backoff" assertion stays
/// valid with any jitter setting.
inline int apply_backoff_jitter(int backoff_ms, std::uint64_t seed,
                                std::uint64_t sequence, int jitter_pct) {
  if (jitter_pct <= 0 || backoff_ms <= 0) return backoff_ms;
  const std::uint64_t span =
      static_cast<std::uint64_t>(backoff_ms) *
          static_cast<std::uint64_t>(jitter_pct) / 100 +
      1;  // +1: even a 1 ms base with 10% jitter can still de-sync waiters
  const std::uint64_t word = splitmix64(seed ^ splitmix64(sequence));
  return backoff_ms + static_cast<int>(word % span);
}

}  // namespace rebert::util
