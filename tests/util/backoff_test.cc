// Seeded backoff jitter (util/backoff.h) — the determinism and bounds
// the client/supervisor retry paths rely on: replayable per (seed,
// sequence), additive-only (never earlier than the computed backoff,
// never past backoff * (1 + pct/100)), divergent across seeds so a fleet
// spreads out, and a no-op at pct = 0 (the historic schedule).
#include <gtest/gtest.h>

#include <set>

#include "util/backoff.h"
#include "util/fnv1a.h"

namespace rebert::util {
namespace {

TEST(BackoffJitterTest, ZeroPctIsIdentity) {
  for (int backoff : {0, 1, 7, 100, 5000})
    for (std::uint64_t seq = 0; seq < 5; ++seq)
      EXPECT_EQ(apply_backoff_jitter(backoff, 0x1234, seq, 0), backoff);
}

TEST(BackoffJitterTest, JitterOnlyAddsAndIsBounded) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (std::uint64_t seq = 0; seq < 50; ++seq) {
      for (int backoff : {1, 10, 100, 4000}) {
        const int pct = 25;
        const int jittered = apply_backoff_jitter(backoff, seed, seq, pct);
        EXPECT_GE(jittered, backoff);  // never earlier than the backoff
        EXPECT_LE(jittered, backoff + backoff * pct / 100 + 1);
      }
    }
  }
}

TEST(BackoffJitterTest, DeterministicPerSeedAndSequence) {
  for (std::uint64_t seq = 0; seq < 20; ++seq)
    EXPECT_EQ(apply_backoff_jitter(1000, 7, seq, 50),
              apply_backoff_jitter(1000, 7, seq, 50));
}

TEST(BackoffJitterTest, SeedsDiverge) {
  // Differently-seeded waiters given the same advisory must not march in
  // lockstep — that is the whole point. 32 seeds over a 500-wide span
  // colliding onto < 8 distinct delays would mean the mixer is broken.
  std::set<int> delays;
  for (std::uint64_t seed = 1; seed <= 32; ++seed)
    delays.insert(apply_backoff_jitter(1000, seed, 0, 50));
  EXPECT_GE(delays.size(), 8u);
}

TEST(BackoffJitterTest, SequenceAdvancesTheSchedule) {
  // One waiter's consecutive retries also spread (sequence feeds the mix).
  std::set<int> delays;
  for (std::uint64_t seq = 0; seq < 32; ++seq)
    delays.insert(apply_backoff_jitter(1000, 99, seq, 50));
  EXPECT_GE(delays.size(), 8u);
}

TEST(BackoffJitterTest, DegenerateInputsPassThrough) {
  EXPECT_EQ(apply_backoff_jitter(0, 1, 0, 50), 0);
  EXPECT_EQ(apply_backoff_jitter(-5, 1, 0, 50), -5);
  EXPECT_EQ(apply_backoff_jitter(100, 1, 0, -10), 100);
}

TEST(BackoffHashTest, Fnv1a64MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors; the seed derivation for client
  // jitter must stay stable across builds.
  EXPECT_EQ(fnv1a("", 0), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a("a", 1), 12638187200555641996ULL);
  const char* abc = "abc";
  EXPECT_EQ(fnv1a(abc, 3), fnv1a(abc, 3));
  EXPECT_NE(fnv1a("abc", 3), fnv1a("abd", 3));
}

TEST(BackoffHashTest, Splitmix64IsStable) {
  // splitmix64 reference value for input 0 (Vigna's test vector).
  EXPECT_EQ(splitmix64(0), 16294208416658607535ULL);
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

}  // namespace
}  // namespace rebert::util
