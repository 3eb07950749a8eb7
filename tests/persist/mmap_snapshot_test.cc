// RBPC mmap-snapshot corruption matrix: a mapped artifact is validated —
// bounds, magic, version, stride, checksum, key order — before a record
// is served, and every defect comes back kCorrupt with a diagnosis, never
// a throw or a wrong answer. Plus the warm-start contract: a valid file
// attaches as a zero-copy tier, anything else starts cold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "persist/cache_io.h"
#include "persist/mmap_snapshot.h"
#include "rebert/prediction_cache.h"

namespace rebert::persist {
namespace {

constexpr std::uint64_t kScorer = 0xfeedULL;

std::vector<CacheRecord> sample_records() {
  return {{5, 0.5}, {1, 0.1}, {9, 0.9}, {3, 0.3}};  // save sorts
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class MmapSnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: the suite runs under `ctest -j`, where every test
  // is its own process and a shared name races (one test's TearDown
  // deletes the file another test just saved).
  const std::string path_ =
      temp_path(std::string("rebert_mmap_snapshot_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".rbpc");
};

TEST_F(MmapSnapshotTest, RoundTripSortsAndServesLookups) {
  save_snapshot(sample_records(), kScorer, path_);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  ASSERT_EQ(opened.snapshot->count(), 4u);
  EXPECT_EQ(opened.snapshot->fingerprint(), kScorer);
  // record() walks the table in sorted key order.
  EXPECT_EQ(opened.snapshot->record(0).first, 1u);
  EXPECT_EQ(opened.snapshot->record(3).first, 9u);

  double score = 0.0;
  EXPECT_TRUE(opened.snapshot->lookup(3, &score));
  EXPECT_DOUBLE_EQ(score, 0.3);
  EXPECT_TRUE(opened.snapshot->lookup(9, &score));
  EXPECT_DOUBLE_EQ(score, 0.9);
  EXPECT_FALSE(opened.snapshot->lookup(4, &score));
  EXPECT_FALSE(opened.snapshot->lookup(0, &score));
  EXPECT_FALSE(opened.snapshot->lookup(10, &score));
}

TEST_F(MmapSnapshotTest, DuplicateKeysCollapseToOneRecord) {
  save_snapshot({{7, 0.7}, {7, 0.8}, {2, 0.2}}, kScorer, path_);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  EXPECT_EQ(opened.snapshot->count(), 2u);  // strict order preserved
}

TEST_F(MmapSnapshotTest, EmptySnapshotIsValid) {
  save_snapshot({}, kScorer, path_);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  EXPECT_EQ(opened.snapshot->count(), 0u);
  double score = 0.0;
  EXPECT_FALSE(opened.snapshot->lookup(1, &score));
}

TEST_F(MmapSnapshotTest, MissingFileIsMissingNotCorrupt) {
  const MmapSnapshot::OpenResult opened =
      MmapSnapshot::open(temp_path("rebert_no_such.rbpc"));
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kMissing);
}

TEST_F(MmapSnapshotTest, TruncatedFileRejected) {
  save_snapshot(sample_records(), kScorer, path_);
  const std::string bytes = slurp(path_);
  // Clip mid-table, and separately mid-header.
  spit(path_, bytes.substr(0, bytes.size() - 7));
  EXPECT_EQ(MmapSnapshot::open(path_).status, SnapshotLoadStatus::kCorrupt);
  spit(path_, bytes.substr(0, kSnapshotHeaderBytes / 2));
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("too small"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, TrailingGarbageRejected) {
  save_snapshot(sample_records(), kScorer, path_);
  spit(path_, slurp(path_) + "junk");
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("trailing garbage"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, BadMagicRejected) {
  save_snapshot(sample_records(), kScorer, path_);
  std::string bytes = slurp(path_);
  bytes[0] = 'X';
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("magic"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, BadStrideRejected) {
  save_snapshot(sample_records(), kScorer, path_);
  std::string bytes = slurp(path_);
  const std::uint64_t skewed = 24;  // u64 stride at bytes 16..23
  std::memcpy(&bytes[16], &skewed, sizeof(skewed));
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("stride"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, ChecksumFlipRejected) {
  save_snapshot(sample_records(), kScorer, path_);
  std::string bytes = slurp(path_);
  bytes[kSnapshotHeaderBytes + 3] ^= 0x10;  // one bit in the table
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("checksum"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, HostileCountRejectedByArithmetic) {
  // A count that multiplies past the file size (or past u64) must be
  // refused from the header alone, never allocate or scan.
  save_snapshot(sample_records(), kScorer, path_);
  std::string bytes = slurp(path_);
  const std::uint64_t huge = ~0ULL / 2;  // u64 count at bytes 8..15
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  spit(path_, bytes);
  EXPECT_EQ(MmapSnapshot::open(path_).status, SnapshotLoadStatus::kCorrupt);
}

TEST_F(MmapSnapshotTest, OutOfOrderKeysRejected) {
  // Hand-build a checksummed file whose keys are unsorted: the checksum
  // passes, so only the order validator can catch it.
  save_snapshot({{1, 0.1}, {2, 0.2}}, kScorer, path_);
  std::string bytes = slurp(path_);
  std::string table = bytes.substr(kSnapshotHeaderBytes);
  std::swap_ranges(table.begin(), table.begin() + kSnapshotStride,
                   table.begin() + kSnapshotStride);
  // The checksum covers the fingerprint word, then the table.
  const std::uint64_t checksum = fnv1a_words(
      table.data(), table.size(), fnv1a_words(&kScorer, sizeof(kScorer)));
  std::memcpy(&bytes[24], &checksum, sizeof(checksum));
  bytes.replace(kSnapshotHeaderBytes, table.size(), table);
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("out of order"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, WarmStartAttachesV2AsZeroCopyTier) {
  save_snapshot(sample_records(), kScorer, path_);
  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path_), 4u);
  ASSERT_NE(cache.warm_tier(), nullptr);  // mapped, not materialized
  EXPECT_EQ(cache.warm_tier()->size(), 4u);
  double score = 0.0;
  EXPECT_TRUE(cache.lookup(5, &score));
  EXPECT_DOUBLE_EQ(score, 0.5);
  // A snapshot exported from the warm cache keeps the tier's records.
  EXPECT_EQ(cache.export_entries().size(), 4u);
}

TEST_F(MmapSnapshotTest, WarmStartRejectsV1StreamFile) {
  // The first RBPC layout: magic, version 1, count, records, then a
  // byte-wise FNV-1a checksum over count and records. It names no scorer,
  // so it is version skew: diagnosed, counted and cold.
  std::string body;
  const std::uint64_t count = 2;
  body.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const CacheRecord& record : {CacheRecord{1, 0.1}, {9, 0.9}}) {
    body.append(reinterpret_cast<const char*>(&record.first), 8);
    body.append(reinterpret_cast<const char*>(&record.second), 8);
  }
  const std::uint32_t version = 1;
  const std::uint64_t checksum = util::fnv1a(body.data(), body.size());
  spit(path_, std::string(kSnapshotMagic, sizeof(kSnapshotMagic)) +
                  std::string(reinterpret_cast<const char*>(&version),
                              sizeof(version)) +
                  body +
                  std::string(reinterpret_cast<const char*>(&checksum),
                              sizeof(checksum)));
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("version 1"), std::string::npos)
      << opened.message;

  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path_), 0u);
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.warm_rejected(), 1u);
  EXPECT_FALSE(cache.lookup(9, nullptr));
}

TEST_F(MmapSnapshotTest, OlderVersionShorterThanTheHeaderIsVersionSkew) {
  // An empty RBPC v2 file is 32 bytes, less than this version's header:
  // the diagnosis still names the version, not the size.
  save_snapshot({}, kScorer, path_);
  std::string bytes = slurp(path_).substr(0, 32);
  const std::uint32_t version = 2;
  std::memcpy(&bytes[4], &version, sizeof(version));
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("version 2"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, WarmStartStartsColdOnCorruptFile) {
  save_snapshot(sample_records(), kScorer, path_);
  std::string bytes = slurp(path_);
  bytes[kSnapshotHeaderBytes] ^= 0xFF;
  spit(path_, bytes);
  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path_), 0u);  // no throw, just cold
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace rebert::persist
