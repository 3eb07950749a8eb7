#include "rebert/tokenizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "nl/parser.h"
#include "util/check.h"
#include "util/rng.h"

namespace rebert::core {
namespace {

nl::Netlist fig2_circuit() {
  // Fig. 2: bit = AND(NOT(x0), OR(x1, x2)), extracted with k=3.
  return nl::parse_bench_string(R"(
INPUT(x0)
INPUT(x1)
INPUT(x2)
n_not = NOT(x0)
n_or = OR(x1, x2)
bit = AND(n_not, n_or)
q = DFF(bit)
OUTPUT(q)
)");
}

TEST(TokenizerTest, PaperFigure2TokenSequence) {
  const nl::Netlist n = fig2_circuit();
  Tokenizer tokenizer({.backtrace_depth = 3, .tree_code_dim = 8,
                       .max_seq_len = 64});
  const BitSequence seq = tokenizer.tokenize_net(n, *n.find("bit"));
  // Pre-order: AND NOT X OR X X — exactly Fig. 2(b).
  EXPECT_EQ(Tokenizer::decode(seq.token_ids), "AND NOT X OR X X");
  EXPECT_EQ(seq.tree_size, 6);
  EXPECT_EQ(seq.tree_depth, 2);
  EXPECT_EQ(seq.tree_codes.size(), seq.token_ids.size());
}

TEST(TokenizerTest, LeafGeneralizationCanBeDisabled) {
  const nl::Netlist n = fig2_circuit();
  Tokenizer tokenizer({.backtrace_depth = 3, .tree_code_dim = 8,
                       .max_seq_len = 64, .generalize_leaves = false});
  const BitSequence seq = tokenizer.tokenize_net(n, *n.find("bit"));
  // Leaves keep their driver type (INPUT) instead of X.
  EXPECT_EQ(Tokenizer::decode(seq.token_ids),
            "AND NOT INPUT OR INPUT INPUT");
}

TEST(TokenizerTest, DepthLimitsSequenceLength) {
  const nl::Netlist n = fig2_circuit();
  Tokenizer shallow({.backtrace_depth = 1, .tree_code_dim = 8,
                     .max_seq_len = 64});
  const BitSequence seq = shallow.tokenize_net(n, *n.find("bit"));
  EXPECT_EQ(Tokenizer::decode(seq.token_ids), "AND X X");
}

TEST(TokenizerTest, TokenizeBitsCoversAllDffs) {
  const nl::Netlist n = nl::parse_bench_string(R"(
INPUT(a)
INPUT(b)
d0 = AND(a, b)
d1 = OR(a, b)
q0 = DFF(d0)
q1 = DFF(d1)
OUTPUT(d0)
)");
  Tokenizer tokenizer({.backtrace_depth = 4, .tree_code_dim = 8,
                       .max_seq_len = 64});
  const std::vector<BitSequence> all = tokenizer.tokenize_bits(n);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(Tokenizer::decode(all[0].token_ids), "AND X X");
  EXPECT_EQ(Tokenizer::decode(all[1].token_ids), "OR X X");
}

TEST(TokenizerTest, EncodePairLayout) {
  const nl::Netlist n = fig2_circuit();
  Tokenizer tokenizer({.backtrace_depth = 3, .tree_code_dim = 8,
                       .max_seq_len = 64});
  const BitSequence seq = tokenizer.tokenize_net(n, *n.find("bit"));
  const bert::EncodedSequence pair = tokenizer.encode_pair(seq, seq);
  const Vocabulary& v = vocabulary();
  // [CLS] 6 tokens [SEP] 6 tokens [SEP] = 15.
  ASSERT_EQ(pair.length(), 15);
  EXPECT_EQ(pair.token_ids.front(), v.cls_id());
  EXPECT_EQ(pair.token_ids[7], v.sep_id());
  EXPECT_EQ(pair.token_ids.back(), v.sep_id());
  // Positions sequential.
  for (int i = 0; i < pair.length(); ++i)
    EXPECT_EQ(pair.position_ids[static_cast<std::size_t>(i)], i);
  // Special tokens carry all-zero tree codes.
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(pair.tree_codes.at(0, b), 0.0f);
    EXPECT_EQ(pair.tree_codes.at(7, b), 0.0f);
    EXPECT_EQ(pair.tree_codes.at(14, b), 0.0f);
  }
  // First real token (root of a) also zero; second (NOT, left child) is
  // '10...'.
  EXPECT_EQ(pair.tree_codes.at(2, 0), 1.0f);
  EXPECT_EQ(pair.tree_codes.at(2, 1), 0.0f);
}

TEST(TokenizerTest, EncodePairTruncatesLongSequences) {
  // Build a deep chain so the cone is large, then encode with a small
  // max_seq_len.
  std::string bench = "INPUT(a)\nINPUT(b)\nn0 = AND(a, b)\n";
  for (int i = 1; i < 40; ++i)
    bench += "n" + std::to_string(i) + " = AND(n" + std::to_string(i - 1) +
             ", b)\n";
  bench += "OUTPUT(n39)\n";
  const nl::Netlist n = nl::parse_bench_string(bench);
  Tokenizer tokenizer({.backtrace_depth = 30, .tree_code_dim = 8,
                       .max_seq_len = 32});
  const BitSequence seq = tokenizer.tokenize_net(n, *n.find("n39"));
  EXPECT_GT(static_cast<int>(seq.token_ids.size()), 32);
  const bert::EncodedSequence pair = tokenizer.encode_pair(seq, seq);
  EXPECT_LE(pair.length(), 32);
  // Structure preserved: CLS head, SEP tail.
  EXPECT_EQ(pair.token_ids.front(), vocabulary().cls_id());
  EXPECT_EQ(pair.token_ids.back(), vocabulary().sep_id());
}

TEST(TokenizerTest, SameWordBitsGetSimilarSequences) {
  // Two bits built from the same template over different inputs tokenize
  // to identical generalized sequences.
  const nl::Netlist n = nl::parse_bench_string(R"(
INPUT(a0)
INPUT(a1)
INPUT(b0)
INPUT(b1)
d0 = XOR(a0, b0)
d1 = XOR(a1, b1)
q0 = DFF(d0)
q1 = DFF(d1)
OUTPUT(d0)
)");
  Tokenizer tokenizer({.backtrace_depth = 6, .tree_code_dim = 8,
                       .max_seq_len = 64});
  const auto bits = tokenizer.tokenize_bits(n);
  EXPECT_EQ(bits[0].token_ids, bits[1].token_ids);
}

TEST(TokenizerTest, PaddingFillsToFixedLength) {
  const nl::Netlist n = fig2_circuit();
  Tokenizer tokenizer({.backtrace_depth = 3, .tree_code_dim = 8,
                       .max_seq_len = 64, .generalize_leaves = true,
                       .pad_to = 32});
  const BitSequence seq = tokenizer.tokenize_net(n, *n.find("bit"));
  const bert::EncodedSequence pair = tokenizer.encode_pair(seq, seq);
  EXPECT_EQ(pair.length(), 32);
  EXPECT_EQ(pair.valid_len, 15);  // [CLS] + 6 + [SEP] + 6 + [SEP]
  const Vocabulary& v = vocabulary();
  for (int i = pair.valid_len; i < pair.length(); ++i) {
    EXPECT_EQ(pair.token_ids[static_cast<std::size_t>(i)], v.pad_id());
    for (int b = 0; b < 8; ++b)
      EXPECT_EQ(pair.tree_codes.at(i, b), 0.0f);
  }
  // Sequences already at/above pad_to are not padded.
  Tokenizer small_pad({.backtrace_depth = 3, .tree_code_dim = 8,
                       .max_seq_len = 64, .generalize_leaves = true,
                       .pad_to = 10});
  const bert::EncodedSequence unpadded = small_pad.encode_pair(seq, seq);
  EXPECT_EQ(unpadded.length(), 15);
  EXPECT_EQ(unpadded.valid_len, 0);
}

/// Straightforward encode_pair: one code row per token collected first,
/// then copied into the tensor. The in-place encoder must match it byte
/// for byte.
bert::EncodedSequence reference_encode(const TokenizerOptions& options,
                                       const BitSequence& a,
                                       const BitSequence& b) {
  const Vocabulary& vocab = vocabulary();
  const int width = options.tree_code_dim;
  const std::vector<std::uint8_t> zero(static_cast<std::size_t>(width), 0);
  const int budget = options.max_seq_len - 3;
  int take_a = static_cast<int>(a.token_ids.size());
  int take_b = static_cast<int>(b.token_ids.size());
  if (take_a + take_b > budget) {
    const double scale =
        static_cast<double>(budget) / static_cast<double>(take_a + take_b);
    take_a = std::max(1, static_cast<int>(take_a * scale));
    take_b = std::max(1, std::min(budget - take_a, take_b));
  }
  bert::EncodedSequence out;
  std::vector<std::vector<std::uint8_t>> codes;
  const auto push = [&](int id, const std::vector<std::uint8_t>& code) {
    out.token_ids.push_back(id);
    codes.push_back(code);
  };
  push(vocab.cls_id(), zero);
  for (int i = 0; i < take_a; ++i)
    push(a.token_ids[static_cast<std::size_t>(i)],
         a.tree_codes[static_cast<std::size_t>(i)]);
  push(vocab.sep_id(), zero);
  for (int i = 0; i < take_b; ++i)
    push(b.token_ids[static_cast<std::size_t>(i)],
         b.tree_codes[static_cast<std::size_t>(i)]);
  push(vocab.sep_id(), zero);
  if (static_cast<int>(out.token_ids.size()) < options.pad_to) {
    out.valid_len = static_cast<int>(out.token_ids.size());
    while (static_cast<int>(out.token_ids.size()) < options.pad_to)
      push(vocab.pad_id(), zero);
  }
  const int n = static_cast<int>(out.token_ids.size());
  for (int i = 0; i < n; ++i) out.position_ids.push_back(i);
  out.tree_codes = tensor::Tensor({n, width});
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < width; ++j)
      out.tree_codes.at(i, j) =
          codes[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  return out;
}

TEST(TokenizerTest, EncodePairMatchesReferenceEncoder) {
  // Random bit sequences through truncation (long pairs, small
  // max_seq_len) and padding (pad_to above and below the pair length).
  util::Rng rng(77);
  const int width = 8;
  const auto random_bit = [&](int length) {
    BitSequence bit;
    for (int i = 0; i < length; ++i) {
      bit.token_ids.push_back(rng.uniform_int(4, 20));
      std::vector<std::uint8_t> code(width);
      for (auto& c : code) c = rng.bernoulli(0.5) ? 1 : 0;
      bit.tree_codes.push_back(code);
    }
    return bit;
  };
  for (const int max_seq_len : {16, 40, 128}) {
    for (const int pad_to : {0, 12, 16}) {
      if (pad_to > max_seq_len) continue;
      const TokenizerOptions options{.backtrace_depth = 4,
                                     .tree_code_dim = width,
                                     .max_seq_len = max_seq_len,
                                     .pad_to = pad_to};
      const Tokenizer tokenizer(options);
      for (int trial = 0; trial < 30; ++trial) {
        const BitSequence a = random_bit(rng.uniform_int(1, 50));
        const BitSequence b = random_bit(rng.uniform_int(1, 50));
        const bert::EncodedSequence got = tokenizer.encode_pair(a, b);
        const bert::EncodedSequence want = reference_encode(options, a, b);
        ASSERT_EQ(got.token_ids, want.token_ids);
        ASSERT_EQ(got.position_ids, want.position_ids);
        ASSERT_EQ(got.valid_len, want.valid_len);
        ASSERT_EQ(got.tree_codes.shape(), want.tree_codes.shape());
        ASSERT_EQ(std::memcmp(got.tree_codes.data(), want.tree_codes.data(),
                              static_cast<std::size_t>(got.tree_codes.numel()) *
                                  sizeof(float)),
                  0)
            << "max_seq_len=" << max_seq_len << " pad_to=" << pad_to;
      }
    }
  }
}

TEST(TokenizerTest, RejectsBadOptions) {
  EXPECT_THROW(Tokenizer({.backtrace_depth = 0}), util::CheckError);
  EXPECT_THROW(Tokenizer({.backtrace_depth = 3, .tree_code_dim = 5}),
               util::CheckError);
  EXPECT_THROW(Tokenizer({.backtrace_depth = 3, .tree_code_dim = 8,
                          .max_seq_len = 4}),
               util::CheckError);
  EXPECT_THROW(Tokenizer({.backtrace_depth = 3, .tree_code_dim = 8,
                          .max_seq_len = 64, .generalize_leaves = true,
                          .pad_to = 128}),
               util::CheckError);  // pad_to > max_seq_len
}

}  // namespace
}  // namespace rebert::core
