#include "runtime/threads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/env.h"

namespace rebert::runtime {

namespace {

/// The numeric value of one `Key:   <n> ...` row of /proc/self/status,
/// or -1 when the file or the row is missing.
long proc_status_field(const char* key) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  long value = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtol(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return value;
}

}  // namespace

int resolve_thread_count(int requested) {
  if (requested <= 0) {
    requested = util::env_int("REBERT_THREADS", 0);
    if (requested <= 0) {
      requested = static_cast<int>(std::thread::hardware_concurrency());
      if (requested <= 0) requested = 1;
    }
  }
  return std::clamp(requested, 1, kMaxThreads);
}

int current_thread_count() {
  return static_cast<int>(proc_status_field("Threads"));
}

}  // namespace rebert::runtime
