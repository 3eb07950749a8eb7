#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

int Trace::begin(const char* name, int parent) {
  records_.push_back({name, parent, now_ns(), 0, 1});
  child_ns_.push_back(0);
  return static_cast<int>(records_.size()) - 1;
}

void Trace::end(int id) {
  Record& record = records_[static_cast<std::size_t>(id)];
  record.busy_ns = now_ns() - record.start_ns;
  if (record.parent >= 0)
    child_ns_[static_cast<std::size_t>(record.parent)] += record.busy_ns;
}

int Trace::aggregate(const char* name, int parent) {
  records_.push_back({name, parent, now_ns(), 0, 0});
  child_ns_.push_back(0);
  return static_cast<int>(records_.size()) - 1;
}

void Trace::add(int id, std::int64_t busy_ns, std::int64_t calls) {
  Record& record = records_[static_cast<std::size_t>(id)];
  record.busy_ns += busy_ns;
  record.calls += calls;
  if (record.parent >= 0)
    child_ns_[static_cast<std::size_t>(record.parent)] += busy_ns;
}

std::int64_t Trace::self_ns(std::size_t id) const {
  return records_[id].busy_ns - child_ns_[id];
}

Trace::Totals Trace::totals(const std::string& name) const {
  Totals totals;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (name != records_[i].name) continue;
    totals.busy_ms += static_cast<double>(records_[i].busy_ns) * 1e-6;
    totals.calls += records_[i].calls;
  }
  return totals;
}

double Trace::busy_ms(int id) const {
  return static_cast<double>(records_[static_cast<std::size_t>(id)].busy_ns) *
         1e-6;
}

double Trace::attributed_share(int id,
                               const std::vector<std::string>& layers) const {
  // Records are appended in creation order and a child is always created
  // after its parent, so one forward pass marks the whole subtree.
  std::vector<char> inside(records_.size(), 0);
  inside[static_cast<std::size_t>(id)] = 1;
  std::int64_t attributed = 0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < records_.size();
       ++i) {
    const int parent = records_[i].parent;
    if (parent < 0 || !inside[static_cast<std::size_t>(parent)]) continue;
    inside[i] = 1;
    if (std::find(layers.begin(), layers.end(), records_[i].name) !=
        layers.end())
      attributed += self_ns(i);
  }
  const std::int64_t wall = records_[static_cast<std::size_t>(id)].busy_ns;
  return wall > 0 ? static_cast<double>(attributed) /
                        static_cast<double>(wall)
                  : 0.0;
}

void Trace::write(const std::string& path,
                  const std::string& header_json) const {
  std::ofstream out(path);
  out << header_json << '\n';
  const std::int64_t origin = records_.empty() ? 0 : records_[0].start_ns;
  char line[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"busy_us\": %.3f, \"self_us\": %.3f, "
                  "\"calls\": %lld}",
                  i, r.parent, r.name,
                  static_cast<double>(r.start_ns - origin) * 1e-3,
                  static_cast<double>(r.busy_ns) * 1e-3,
                  static_cast<double>(self_ns(i)) * 1e-3,
                  static_cast<long long>(r.calls));
    out << line << '\n';
  }
}

}  // namespace perfbench
