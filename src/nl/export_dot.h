// Graphviz DOT export for netlists.
//
// Visual inspection is half of reverse engineering; this writes the
// netlist as a DOT digraph with word groupings rendered as clusters,
// ready for `dot -Tsvg`.
#pragma once

#include <iosfwd>
#include <string>

#include "nl/netlist.h"
#include "nl/words.h"

namespace rebert::nl {

struct DotOptions {
  bool cluster_words = true;   // draw each word's DFFs in a subgraph box
  bool show_gate_types = true; // node labels "name\nTYPE" vs just name
  int max_gates = 4000;        // refuse to render monsters (throws)
};

/// Whole netlist; `words` may be empty (no clusters).
void write_dot(const Netlist& netlist, const WordMap& words,
               std::ostream& out, const DotOptions& options = {});
std::string dot_string(const Netlist& netlist, const WordMap& words,
                       const DotOptions& options = {});

}  // namespace rebert::nl
