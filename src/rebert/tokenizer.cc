#include "rebert/tokenizer.h"

#include <algorithm>

#include "runtime/fault_injector.h"
#include "util/check.h"

namespace rebert::core {

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {
  REBERT_CHECK_MSG(options_.backtrace_depth >= 1, "depth must be >= 1");
  REBERT_CHECK_MSG(options_.tree_code_dim >= 2 &&
                       options_.tree_code_dim % 2 == 0,
                   "tree_code_dim must be positive and even");
  REBERT_CHECK_MSG(options_.max_seq_len >= 8, "max_seq_len too small");
  REBERT_CHECK_MSG(options_.pad_to >= 0 &&
                       options_.pad_to <= options_.max_seq_len,
                   "pad_to must be within [0, max_seq_len]");
}

BitSequence Tokenizer::tokenize_net(const nl::Netlist& netlist,
                                    nl::GateId net) const {
  const nl::ConeTree tree =
      nl::extract_cone(netlist, net, options_.backtrace_depth);
  const auto codes = tree_codes(tree, options_.tree_code_dim);
  const Vocabulary& vocab = vocabulary();

  BitSequence seq;
  seq.tree_size = tree.size();
  seq.tree_depth = tree.depth;
  seq.token_ids.reserve(tree.nodes.size());
  seq.tree_codes.reserve(tree.nodes.size());
  // ConeTree stores nodes in pre-order already (asserted by its tests).
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const nl::ConeNode& node = tree.nodes[i];
    int id;
    if (node.is_leaf) {
      id = options_.generalize_leaves ? vocab.leaf_id()
                                      : vocab.gate_id(node.type);
    } else {
      id = vocab.gate_id(node.type);
    }
    seq.token_ids.push_back(id);
    seq.tree_codes.push_back(codes[i]);
  }
  return seq;
}

std::vector<BitSequence> Tokenizer::tokenize_bits(
    const nl::Netlist& netlist) const {
  std::vector<BitSequence> out;
  const std::vector<nl::Bit> bits = nl::extract_bits(netlist);
  out.reserve(bits.size());
  for (const nl::Bit& bit : bits)
    out.push_back(tokenize_net(netlist, bit.d_net));
  return out;
}

bert::EncodedSequence Tokenizer::encode_pair(const BitSequence& a,
                                             const BitSequence& b) const {
  // Chaos site: a failing encode (corrupt sequence, future vocab skew)
  // surfaces on the per-request path only — tokenize_bits (bench loading)
  // stays untouched, so an armed site degrades requests, not startup.
  runtime::FaultInjector::global().maybe_throw("tokenizer.encode");
  const Vocabulary& vocab = vocabulary();
  const int width = options_.tree_code_dim;

  // [CLS] a [SEP] b [SEP]; truncate each half evenly if over budget.
  const int budget = options_.max_seq_len - 3;
  REBERT_CHECK(budget >= 2);
  int take_a = static_cast<int>(a.token_ids.size());
  int take_b = static_cast<int>(b.token_ids.size());
  if (take_a + take_b > budget) {
    // Proportional truncation, at least one token each.
    const double scale =
        static_cast<double>(budget) / static_cast<double>(take_a + take_b);
    take_a = std::max(1, static_cast<int>(take_a * scale));
    take_b = std::max(1, std::min(budget - take_a, take_b));
  }
  const int real = take_a + take_b + 3;
  const int n = std::max(real, options_.pad_to);

  // Sized once; tree-code rows are written in place. Special and [PAD]
  // tokens keep the all-zero code the tensor starts with.
  bert::EncodedSequence encoded;
  encoded.token_ids.reserve(static_cast<std::size_t>(n));
  encoded.tree_codes = tensor::Tensor({n, width});
  const auto append = [&](const BitSequence& bit, int take) {
    for (int i = 0; i < take; ++i) {
      const std::vector<std::uint8_t>& code =
          bit.tree_codes[static_cast<std::size_t>(i)];
      float* row = encoded.tree_codes.data() +
                   encoded.token_ids.size() * static_cast<std::size_t>(width);
      for (int bpos = 0; bpos < width; ++bpos)
        row[bpos] = code[static_cast<std::size_t>(bpos)];
      encoded.token_ids.push_back(bit.token_ids[static_cast<std::size_t>(i)]);
    }
  };
  encoded.token_ids.push_back(vocab.cls_id());
  append(a, take_a);
  encoded.token_ids.push_back(vocab.sep_id());
  append(b, take_b);
  encoded.token_ids.push_back(vocab.sep_id());
  if (n > real) {
    encoded.valid_len = real;
    encoded.token_ids.resize(static_cast<std::size_t>(n), vocab.pad_id());
  }

  encoded.position_ids.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    encoded.position_ids[static_cast<std::size_t>(i)] = i;
  return encoded;
}

std::string Tokenizer::decode(const std::vector<int>& token_ids) {
  const Vocabulary& vocab = vocabulary();
  std::string out;
  for (std::size_t i = 0; i < token_ids.size(); ++i) {
    if (i) out += ' ';
    out += vocab.token(token_ids[i]);
  }
  return out;
}

}  // namespace rebert::core
