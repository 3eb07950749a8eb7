#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "kernels/backend.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string host_fingerprint_json(const std::string& workload,
                                  const std::string& threads_json) {
  std::string model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string flag;
      while (words >> flag) flags.insert(flag);
    }
  }
  // The ISA features the kernels dispatch on today or that ROADMAP names
  // as next targets (AVX-512 panels, VNNI/AMX int8).
  static const char* const kIsa[] = {
      "avx2",        "fma",      "avx512f",  "avx512bw", "avx512vl",
      "avx512_vnni", "avx_vnni", "amx_tile", "amx_int8", "amx_bf16"};
  std::ostringstream isa;
  bool first = true;
  for (const char* flag : kIsa) {
    if (!flags.count(flag)) continue;
    isa << (first ? "" : ",") << '"' << flag << '"';
    first = false;
  }
  const rebert::kernels::Backend backend = rebert::kernels::active_backend();
  std::ostringstream out;
  out << "{\"workload\": \"" << json_escape(workload) << "\", \"cpu\": \""
      << json_escape(model) << "\", \"isa\": [" << isa.str()
      << "], \"kernels\": \"" << rebert::kernels::backend_name(backend)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads\": " << threads_json << "}";
  return out.str();
}

}  // namespace perfbench
