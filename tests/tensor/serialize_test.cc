#include "tensor/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/check.h"
#include "util/rng.h"

namespace rebert::tensor {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializeTest, RoundTrip) {
  util::Rng rng(1);
  Parameter a("layer.weight", Tensor::randn({3, 4}, rng));
  Parameter b("layer.bias", Tensor::randn({4}, rng));
  const std::string path = temp_path("ckpt_roundtrip.bin");
  save_parameters({&a, &b}, path);

  Parameter a2("layer.weight", Tensor({3, 4}));
  Parameter b2("layer.bias", Tensor({4}));
  load_parameters({&a2, &b2}, path);
  EXPECT_TRUE(allclose(a.value, a2.value));
  EXPECT_TRUE(allclose(b.value, b2.value));
  std::remove(path.c_str());
}

TEST(SerializeTest, OrderIndependentByName) {
  util::Rng rng(2);
  Parameter a("x", Tensor::randn({2}, rng));
  Parameter b("y", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_order.bin");
  save_parameters({&a, &b}, path);
  Parameter a2("x", Tensor({2})), b2("y", Tensor({2}));
  load_parameters({&b2, &a2}, path);  // reversed order
  EXPECT_TRUE(allclose(a.value, a2.value));
  EXPECT_TRUE(allclose(b.value, b2.value));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  util::Rng rng(3);
  Parameter a("w", Tensor::randn({2, 2}, rng));
  const std::string path = temp_path("ckpt_shape.bin");
  save_parameters({&a}, path);
  Parameter wrong("w", Tensor({4}));
  EXPECT_THROW(load_parameters({&wrong}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, UnknownNameRejected) {
  util::Rng rng(4);
  Parameter a("w", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_name.bin");
  save_parameters({&a}, path);
  Parameter other("different", Tensor({2}));
  EXPECT_THROW(load_parameters({&other}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, IncompleteModelCoverageRejected) {
  util::Rng rng(5);
  Parameter a("w", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_partial.bin");
  save_parameters({&a}, path);
  Parameter a2("w", Tensor({2})), extra("extra", Tensor({1}));
  EXPECT_THROW(load_parameters({&a2, &extra}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptFileRejected) {
  const std::string path = temp_path("ckpt_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  Parameter a("w", Tensor({2}));
  EXPECT_THROW(load_parameters({&a}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileRejected) {
  Parameter a("w", Tensor({2}));
  EXPECT_THROW(load_parameters({&a}, temp_path("does_not_exist.bin")),
               util::CheckError);
}

TEST(SerializeTest, TruncatedFileReportsOffsetAndSize) {
  // Regression: a checkpoint clipped mid-tensor must fail with a located
  // message ("at offset X of Y bytes"), not a bare end-of-file check.
  util::Rng rng(7);
  Parameter a("w", Tensor::randn({8, 8}, rng));
  const std::string path = temp_path("ckpt_located.bin");
  save_parameters({&a}, path);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 16));
  out.close();
  Parameter a2("w", Tensor({8, 8}));
  try {
    load_parameters({&a2}, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(contents.size() - 16)),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveIsAtomicLeavesNoTempAndKeepsOldOnFailure) {
  // save_parameters stages through <path>.tmp.* and renames: after a
  // successful save only the checkpoint itself exists, and a failed save
  // (unwritable directory) leaves a previous checkpoint untouched.
  util::Rng rng(8);
  Parameter a("w", Tensor::randn({4}, rng));
  const std::string path = temp_path("ckpt_atomic.bin");
  save_parameters({&a}, path);
  Parameter a2("w", Tensor({4}));
  load_parameters({&a2}, path);  // loadable — no partial state
  EXPECT_TRUE(allclose(a.value, a2.value));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  Parameter unnamed("", Tensor({2}));
  EXPECT_THROW(save_parameters({&unnamed}, path), util::CheckError);
  Parameter a3("w", Tensor({4}));
  load_parameters({&a3}, path);  // old checkpoint survived the failed save
  EXPECT_TRUE(allclose(a.value, a3.value));
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileRejected) {
  util::Rng rng(6);
  Parameter a("w", Tensor::randn({16, 16}, rng));
  const std::string path = temp_path("ckpt_trunc.bin");
  save_parameters({&a}, path);
  // Truncate to half size.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  Parameter a2("w", Tensor({16, 16}));
  EXPECT_THROW(load_parameters({&a2}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, VersionOneCheckpointRejected) {
  // RBTW v1 was the same body without the checksum trailer; this build
  // reads version 2 only and says so.
  util::Rng rng(9);
  Parameter a("w", Tensor::randn({4}, rng));
  const std::string path = temp_path("ckpt_v1.bin");
  save_parameters({&a}, path);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents.resize(contents.size() - sizeof(std::uint64_t));
  const std::uint32_t version = 1;
  std::memcpy(&contents[4], &version, sizeof(version));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  Parameter a2("w", Tensor({4}));
  try {
    load_parameters({&a2}, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rebert::tensor
