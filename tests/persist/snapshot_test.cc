// RBPC snapshots through the cache's warm-start contract: a snapshot
// carries the fingerprint of the scorer that filled the cache, identical
// caches write identical bytes, and every defective, older-version or
// foreign file starts the cache cold — no throw, no tier, counted in
// warm_rejected(). (mmap_snapshot_test.cc checks the mapper's diagnoses.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bert/model.h"
#include "circuitgen/suite.h"
#include "persist/cache_io.h"
#include "persist/mmap_snapshot.h"
#include "rebert/pipeline.h"
#include "rebert/prediction_cache.h"

namespace rebert::persist {
namespace {

constexpr std::uint64_t kScorer = 0x5c0fe7ULL;
constexpr std::uint64_t kOtherScorer = 0xa77e12ULL;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<CacheRecord> sample_records() {
  return {{42, 0.75}, {7, 0.125}, {1ULL << 60, 1.0}, {0, 0.0}};
}

/// Warm-starts a cache bound to kScorer from `path` and expects the cold,
/// counted refusal.
void expect_rejected(const std::string& path) {
  core::ShardedPredictionCache cache;
  cache.bind(kScorer);
  EXPECT_EQ(warm_start_cache(&cache, path), 0u);  // never throws
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.warm_rejected(), 1u);
}

TEST(SnapshotTest, RoundTripSortsByKey) {
  const std::string path = temp_path("snap_roundtrip.rbpc");
  core::ShardedPredictionCache cache;
  cache.bind(kScorer);
  for (const CacheRecord& record : sample_records())
    cache.insert(record.first, record.second);
  save_cache(cache, path);

  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  EXPECT_EQ(opened.snapshot->fingerprint(), kScorer);
  ASSERT_EQ(opened.snapshot->count(), 4u);
  EXPECT_EQ(opened.snapshot->record(0), (CacheRecord{0, 0.0}));
  EXPECT_EQ(opened.snapshot->record(1), (CacheRecord{7, 0.125}));
  EXPECT_EQ(opened.snapshot->record(2), (CacheRecord{42, 0.75}));
  EXPECT_EQ(opened.snapshot->record(3), (CacheRecord{1ULL << 60, 1.0}));
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  const std::string path = temp_path("snap_empty.rbpc");
  core::ShardedPredictionCache empty;
  empty.bind(kScorer);
  save_cache(empty, path);
  core::ShardedPredictionCache cache;
  cache.bind(kScorer);
  EXPECT_EQ(warm_start_cache(&cache, path), 0u);
  EXPECT_NE(cache.warm_tier(), nullptr);  // accepted, just empty
  EXPECT_EQ(cache.warm_rejected(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, DeterministicBytes) {
  // Same entries (any order) and scorer -> identical files, so snapshots
  // can be diffed and content-addressed; another scorer changes only the
  // header.
  const std::string a = temp_path("snap_det_a.rbpc");
  const std::string b = temp_path("snap_det_b.rbpc");
  const std::string c = temp_path("snap_det_c.rbpc");
  std::vector<CacheRecord> reversed = sample_records();
  std::reverse(reversed.begin(), reversed.end());
  save_snapshot(sample_records(), kScorer, a);
  save_snapshot(reversed, kScorer, b);
  save_snapshot(sample_records(), kOtherScorer, c);
  EXPECT_EQ(read_file(a), read_file(b));
  EXPECT_NE(read_file(a), read_file(c));
  EXPECT_EQ(read_file(a).substr(kSnapshotHeaderBytes),
            read_file(c).substr(kSnapshotHeaderBytes));
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

TEST(SnapshotTest, MissingFileIsMissingNotCorrupt) {
  core::ShardedPredictionCache cache;
  cache.bind(kScorer);
  EXPECT_EQ(warm_start_cache(&cache, temp_path("snap_never_written.rbpc")),
            0u);
  EXPECT_EQ(cache.warm_rejected(), 0u);  // a first run, not a refusal
}

TEST(SnapshotTest, TruncatedFileRejected) {
  const std::string path = temp_path("snap_trunc.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  const std::string bytes = read_file(path);
  // Clip at every kind of point: any truncation must reject cleanly.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{9}, std::size_t{3}}) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    write_file(path, bytes.substr(0, keep));
    expect_rejected(path);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, BadMagicRejected) {
  const std::string path = temp_path("snap_magic.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(SnapshotTest, VersionSkewRejectedGracefully) {
  // A genuine RBPC v2 file (the previous layout: a 32-byte header with no
  // fingerprint) starts cold and is counted; the next save replaces it
  // with a snapshot the same scorer accepts.
  const std::string path = temp_path("snap_version.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  const std::string v3 = read_file(path);
  std::string v2 = v3.substr(0, 32) + v3.substr(kSnapshotHeaderBytes);
  const std::uint32_t version = 2;
  std::memcpy(&v2[4], &version, sizeof(version));
  const std::string table = v3.substr(kSnapshotHeaderBytes);
  const std::uint64_t checksum = fnv1a_words(table.data(), table.size());
  std::memcpy(&v2[24], &checksum, sizeof(checksum));
  write_file(path, v2);
  expect_rejected(path);

  core::ShardedPredictionCache cache;
  cache.bind(kScorer);
  cache.insert(1, 0.5);
  save_cache(cache, path);
  core::ShardedPredictionCache restarted;
  restarted.bind(kScorer);
  EXPECT_EQ(warm_start_cache(&restarted, path), 1u);
  EXPECT_EQ(restarted.warm_rejected(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedRecordByteFailsChecksum) {
  const std::string path = temp_path("snap_checksum.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  const std::string bytes = read_file(path);
  // A record byte, and a fingerprint byte: the checksum covers both, so a
  // flipped fingerprint is corruption rather than a foreign scorer.
  for (const std::size_t at : {kSnapshotHeaderBytes + 12, std::size_t{33}}) {
    SCOPED_TRACE("flipped byte " + std::to_string(at));
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    write_file(path, flipped);
    expect_rejected(path);
    EXPECT_NE(MmapSnapshot::open(path).message.find("checksum"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  const std::string path = temp_path("snap_trailing.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  write_file(path, read_file(path) + "extra");
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(SnapshotTest, HugeCorruptCountRejectedWithoutAllocating) {
  // A flipped count field must be caught by size arithmetic, not by
  // attempting a multi-terabyte scan.
  const std::string path = temp_path("snap_count.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  std::string bytes = read_file(path);
  bytes[15] = static_cast<char>(0x7f);  // high byte of the u64 count
  write_file(path, bytes);
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(CacheIoTest, PredictionCacheRoundTrip) {
  const std::string path = temp_path("cache_serial.rbpc");
  core::ShardedPredictionCache cache(1);
  cache.bind(kScorer);
  cache.insert(11, 0.5);
  cache.insert(22, 0.25);
  save_cache(cache, path);

  core::ShardedPredictionCache warmed(1);
  warmed.bind(kScorer);
  EXPECT_EQ(warm_start_cache(&warmed, path), 2u);
  double score = 0.0;
  EXPECT_TRUE(warmed.lookup(11, &score));
  EXPECT_EQ(score, 0.5);
  EXPECT_TRUE(warmed.lookup(22, &score));
  EXPECT_EQ(score, 0.25);
  EXPECT_EQ(warmed.warm_rejected(), 0u);
  std::remove(path.c_str());
}

TEST(CacheIoTest, ShardAgnosticAcrossShardCountsAndFlavours) {
  const std::string path = temp_path("cache_shards.rbpc");
  core::ShardedPredictionCache wide(64);
  for (std::uint64_t k = 0; k < 100; ++k)
    wide.insert(k * 0x9e3779b97f4a7c15ULL, static_cast<double>(k) / 100.0);
  save_cache(wide, path);

  core::ShardedPredictionCache narrow(4);
  EXPECT_EQ(warm_start_cache(&narrow, path), 100u);
  core::ShardedPredictionCache serial(1);
  EXPECT_EQ(warm_start_cache(&serial, path), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    double a = -1.0, b = -1.0;
    ASSERT_TRUE(narrow.lookup(k * 0x9e3779b97f4a7c15ULL, &a));
    ASSERT_TRUE(serial.lookup(k * 0x9e3779b97f4a7c15ULL, &b));
    EXPECT_EQ(a, static_cast<double>(k) / 100.0);
    EXPECT_EQ(a, b);
  }
  std::remove(path.c_str());
}

TEST(CacheIoTest, ImportKeepsExistingEntries) {
  // A warm start never overrides what the cache learned itself: shard
  // entries answer before the tier does.
  const std::string path = temp_path("cache_existing.rbpc");
  save_snapshot({{5, 0.1}, {6, 0.2}}, kScorer, path);
  core::ShardedPredictionCache cache(4);
  cache.bind(kScorer);
  cache.insert(5, 0.9);
  EXPECT_EQ(warm_start_cache(&cache, path), 2u);
  double score = 0.0;
  ASSERT_TRUE(cache.lookup(5, &score));
  EXPECT_EQ(score, 0.9);
  ASSERT_TRUE(cache.lookup(6, &score));
  EXPECT_EQ(score, 0.2);
  EXPECT_EQ(cache.export_entries().size(), 2u);
  std::remove(path.c_str());
}

TEST(CacheIoTest, CorruptFileWarmsNothingAndDoesNotThrow) {
  const std::string path = temp_path("cache_corrupt.rbpc");
  write_file(path, "definitely not an RBPC snapshot");
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(CacheIoTest, AnotherScorersSnapshotStartsCold) {
  const std::string path = temp_path("cache_foreign.rbpc");
  save_snapshot(sample_records(), kOtherScorer, path);
  expect_rejected(path);

  // Saving from the bound cache rewrites the file under its own scorer.
  core::ShardedPredictionCache cache;
  cache.bind(kScorer);
  cache.insert(3, 0.3);
  save_cache(cache, path);
  EXPECT_EQ(MmapSnapshot::open(path).snapshot->fingerprint(), kScorer);
  std::remove(path.c_str());
}

TEST(CacheIoTest, SnapshotFilledAtAnotherTokenBudgetStartsCold) {
  // The same model (weights, config, backend) scoring through a tokenizer
  // with another pair budget truncates long pairs differently, so it is
  // another scorer: a snapshot filled at 256 tokens must not answer a
  // recover at 128. (b14 has pairs longer than 128 tokens, so the stale
  // scores would differ, not just the hit count.)
  const gen::GeneratedCircuit g = gen::generate_benchmark("b14", 0.25);
  core::PipelineOptions options;
  options.tokenizer.tree_code_dim = 8;
  options.tokenizer.max_seq_len = 256;
  bert::BertConfig config = bert::eval_config(32, 256);
  config.tree_code_dim = 8;
  bert::BertPairClassifier model(config);
  const std::string path = temp_path("cache_budget.rbpc");
  {
    core::ShardedPredictionCache filled;
    options.external_cache = &filled;
    (void)core::recover_words(g.netlist, model, options);
    ASSERT_GT(filled.size(), 0u);
    save_cache(filled, path);
  }

  options.tokenizer.max_seq_len = 128;
  options.external_cache = nullptr;
  const core::RecoveryArtifacts expected =
      core::recover_words_detailed(g.netlist, model, options);
  core::ShardedPredictionCache cache;
  ASSERT_GT(warm_start_cache(&cache, path), 0u);
  options.external_cache = &cache;
  const core::RecoveryArtifacts got =
      core::recover_words_detailed(g.netlist, model, options);
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.warm_rejected(), 1u);
  EXPECT_DOUBLE_EQ(got.result.cache_hit_rate, 0.0);
  EXPECT_EQ(got.result.labels, expected.result.labels);
  ASSERT_EQ(got.scores.num_edges(), expected.scores.num_edges());
  for (int i = 0; i < got.scores.size(); ++i)
    for (int j = 0; j < got.scores.size(); ++j)
      ASSERT_EQ(got.scores.at(i, j), expected.scores.at(i, j));
  std::remove(path.c_str());
}

TEST(CacheIoTest, UnboundCacheAdoptsTheSnapshotsScorer) {
  // A cache nobody bound yet takes the snapshot's scorer; the first bind
  // keeps the tier if it names the same scorer and drops it otherwise.
  const std::string path = temp_path("cache_adopt.rbpc");
  save_snapshot(sample_records(), kScorer, path);
  core::ShardedPredictionCache same;
  EXPECT_EQ(warm_start_cache(&same, path), 4u);
  EXPECT_EQ(same.fingerprint(), kScorer);
  same.bind(kScorer);
  EXPECT_NE(same.warm_tier(), nullptr);
  EXPECT_EQ(same.warm_rejected(), 0u);

  core::ShardedPredictionCache other;
  EXPECT_EQ(warm_start_cache(&other, path), 4u);
  other.bind(kOtherScorer);
  EXPECT_EQ(other.warm_tier(), nullptr);
  EXPECT_EQ(other.size(), 0u);
  EXPECT_EQ(other.warm_rejected(), 1u);
  EXPECT_FALSE(other.lookup(42, nullptr));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rebert::persist
