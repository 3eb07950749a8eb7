// RBPC snapshot format: round trips for both cache flavours, and the
// corruption suite — truncation, bad magic, bad checksum, version skew,
// trailing garbage all come back kCorrupt (graceful cold start), never an
// exception.
#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "persist/cache_io.h"
#include "rebert/prediction_cache.h"

namespace rebert::persist {
namespace {

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

TEST(SnapshotTest, RoundTripSortsByKey) {
  const std::string path = temp_path("snap_roundtrip.rbpc");
  save_snapshot(sample_records(), path);
  const SnapshotLoadResult result = load_snapshot(path);
  ASSERT_TRUE(result.loaded()) << result.message;
  ASSERT_EQ(result.records.size(), 4u);
  EXPECT_EQ(result.records[0], (CacheRecord{0, 0.0}));
  EXPECT_EQ(result.records[1], (CacheRecord{7, 0.125}));
  EXPECT_EQ(result.records[2], (CacheRecord{42, 0.75}));
  EXPECT_EQ(result.records[3], (CacheRecord{1ULL << 60, 1.0}));
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  const std::string path = temp_path("snap_empty.rbpc");
  save_snapshot({}, path);
  const SnapshotLoadResult result = load_snapshot(path);
  ASSERT_TRUE(result.loaded()) << result.message;
  EXPECT_TRUE(result.records.empty());
  std::remove(path.c_str());
}

TEST(SnapshotTest, DeterministicBytes) {
  // Same entries (any order) -> identical files. Snapshots can be diffed
  // and content-addressed.
  const std::string a = temp_path("snap_det_a.rbpc");
  const std::string b = temp_path("snap_det_b.rbpc");
  std::vector<CacheRecord> reversed = sample_records();
  std::reverse(reversed.begin(), reversed.end());
  save_snapshot(sample_records(), a);
  save_snapshot(reversed, b);
  EXPECT_EQ(read_file(a), read_file(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotTest, MissingFileIsMissingNotCorrupt) {
  const SnapshotLoadResult result =
      load_snapshot(temp_path("snap_never_written.rbpc"));
  EXPECT_EQ(result.status, SnapshotLoadStatus::kMissing);
  EXPECT_TRUE(result.records.empty());
}

TEST(SnapshotTest, TruncatedFileRejected) {
  const std::string path = temp_path("snap_trunc.rbpc");
  save_snapshot(sample_records(), path);
  const std::string bytes = read_file(path);
  // Clip at every prefix length: any truncation point must reject cleanly.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{9}, std::size_t{3}}) {
    write_file(path, bytes.substr(0, keep));
    const SnapshotLoadResult result = load_snapshot(path);
    EXPECT_EQ(result.status, SnapshotLoadStatus::kCorrupt)
        << "kept " << keep << " bytes";
    EXPECT_TRUE(result.records.empty());
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, BadMagicRejected) {
  const std::string path = temp_path("snap_magic.rbpc");
  save_snapshot(sample_records(), path);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  const SnapshotLoadResult result = load_snapshot(path);
  EXPECT_EQ(result.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(result.message.find("magic"), std::string::npos)
      << result.message;
  std::remove(path.c_str());
}

TEST(SnapshotTest, VersionSkewRejectedGracefully) {
  const std::string path = temp_path("snap_version.rbpc");
  save_snapshot(sample_records(), path);
  std::string bytes = read_file(path);
  bytes[4] = static_cast<char>(kSnapshotVersion + 7);  // u32 version field
  write_file(path, bytes);
  const SnapshotLoadResult result = load_snapshot(path);
  EXPECT_EQ(result.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(result.message.find("version"), std::string::npos)
      << result.message;
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedRecordByteFailsChecksum) {
  const std::string path = temp_path("snap_checksum.rbpc");
  save_snapshot(sample_records(), path);
  std::string bytes = read_file(path);
  bytes[20] = static_cast<char>(bytes[20] ^ 0x40);  // inside record data
  write_file(path, bytes);
  const SnapshotLoadResult result = load_snapshot(path);
  EXPECT_EQ(result.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(result.message.find("checksum"), std::string::npos)
      << result.message;
  std::remove(path.c_str());
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  const std::string path = temp_path("snap_trailing.rbpc");
  save_snapshot(sample_records(), path);
  write_file(path, read_file(path) + "extra");
  EXPECT_EQ(load_snapshot(path).status, SnapshotLoadStatus::kCorrupt);
  std::remove(path.c_str());
}

TEST(SnapshotTest, HugeCorruptCountRejectedWithoutAllocating) {
  // A flipped count field must be caught by size arithmetic, not by
  // attempting a multi-terabyte reserve.
  const std::string path = temp_path("snap_count.rbpc");
  save_snapshot(sample_records(), path);
  std::string bytes = read_file(path);
  bytes[15] = static_cast<char>(0x7f);  // high byte of the u64 count
  write_file(path, bytes);
  const SnapshotLoadResult result = load_snapshot(path);
  EXPECT_EQ(result.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(result.message.find("truncated"), std::string::npos)
      << result.message;
  std::remove(path.c_str());
}

TEST(CacheIoTest, PredictionCacheRoundTrip) {
  const std::string path = temp_path("cache_serial.rbpc");
  core::ShardedPredictionCache cache(1);
  cache.insert(11, 0.5);
  cache.insert(22, 0.25);
  save_cache(cache, path);

  core::ShardedPredictionCache warmed(1);
  EXPECT_EQ(warm_start_cache(&warmed, path), 2u);
  double score = 0.0;
  EXPECT_TRUE(warmed.lookup(11, &score));
  EXPECT_EQ(score, 0.5);
  EXPECT_TRUE(warmed.lookup(22, &score));
  EXPECT_EQ(score, 0.25);
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
  core::ShardedPredictionCache cache(4);
  cache.insert(5, 0.9);
  const std::size_t inserted = cache.import_entries({{5, 0.1}, {6, 0.2}});
  EXPECT_EQ(inserted, 1u);  // key 5 already present, kept
  double score = 0.0;
  ASSERT_TRUE(cache.lookup(5, &score));
  EXPECT_EQ(score, 0.9);
}

TEST(CacheIoTest, CorruptFileWarmsNothingAndDoesNotThrow) {
  const std::string path = temp_path("cache_corrupt.rbpc");
  write_file(path, "definitely not an RBPC snapshot");
  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path), 0u);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rebert::persist
