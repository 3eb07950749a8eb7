#include "nl/export_dot.h"

#include <sstream>

#include "util/check.h"

namespace rebert::nl {

namespace {

// DOT identifiers: quote everything, escape embedded quotes/backslashes.
std::string quoted(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

const char* shape_of(GateType type) {
  switch (type) {
    case GateType::kInput: return "invtriangle";
    case GateType::kConst0:
    case GateType::kConst1: return "plaintext";
    case GateType::kDff: return "box";
    default: return "ellipse";
  }
}

}  // namespace

void write_dot(const Netlist& netlist, const WordMap& words,
               std::ostream& out, const DotOptions& options) {
  REBERT_CHECK_MSG(netlist.num_gates() <= options.max_gates,
                   "netlist too large to render (" << netlist.num_gates()
                                                   << " gates; raise "
                                                      "DotOptions::max_gates)");
  out << "digraph " << quoted(netlist.name()) << " {\n";
  out << "  rankdir=LR;\n  node [fontsize=10];\n";

  // Word clusters.
  std::vector<bool> clustered(static_cast<std::size_t>(netlist.num_gates()),
                              false);
  if (options.cluster_words) {
    int cluster = 0;
    for (const auto& [word_name, bit_names] : words.words()) {
      out << "  subgraph cluster_" << cluster++ << " {\n";
      out << "    label=" << quoted(word_name) << ";\n    style=dashed;\n";
      for (const std::string& bit : bit_names) {
        const auto id = netlist.find(bit);
        if (!id) continue;
        clustered[static_cast<std::size_t>(*id)] = true;
        out << "    " << quoted(bit) << ";\n";
      }
      out << "  }\n";
    }
  }

  for (GateId id = 0; id < netlist.num_gates(); ++id) {
    const Gate& g = netlist.gate(id);
    out << "  " << quoted(g.name) << " [shape=" << shape_of(g.type);
    if (options.show_gate_types && !is_source(g.type))
      out << ", label=" << quoted(g.name + "\\n" + gate_type_name(g.type));
    if (netlist.is_output(id)) out << ", peripheries=2";
    out << "];\n";
  }
  for (GateId id = 0; id < netlist.num_gates(); ++id) {
    const Gate& g = netlist.gate(id);
    for (GateId f : g.fanins)
      out << "  " << quoted(netlist.gate(f).name) << " -> "
          << quoted(g.name) << ";\n";
  }
  out << "}\n";
}

std::string dot_string(const Netlist& netlist, const WordMap& words,
                       const DotOptions& options) {
  std::ostringstream out;
  write_dot(netlist, words, out, options);
  return out.str();
}

}  // namespace rebert::nl
