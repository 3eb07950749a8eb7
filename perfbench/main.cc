// perfbench entry point.
//
//   perfbench --workload <recover_cold|recover_warm|serve_score>
//             --seed <n> --seconds <s> --trace <0|1> [--work-root <dir>]
//   perfbench --self-test
//
// Prints the host fingerprint, human-readable notes and every metric by
// name and unit, then, as the last line of stdout, one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1). Scratch files live in
// <work-root>/run-<pid> and are removed on exit; traced runs leave their
// spans in <work-root>/traces. Exit status is 0 only when every
// correctness check passed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "util/logging.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<recover_cold|recover_warm|serve_score> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-root <dir>]\n"
               "       perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string work_root = ".bench_build";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const int failures = run_self_tests();
      std::printf("self-test: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0;
    } else if (flag == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--work-root") {
      work_root = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || trace < 0)
    return usage("--seed, --seconds and --trace are required");
  if (options.workload != "recover_cold" &&
      options.workload != "recover_warm" && options.workload != "serve_score")
    return usage(("unknown workload '" + options.workload + "'").c_str());
  options.trace = trace == 1;
  rebert::util::set_log_level(rebert::util::LogLevel::kError);

  namespace fs = std::filesystem;
  options.work_dir = work_root + "/run-" + std::to_string(::getpid());
  options.trace_dir = work_root + "/traces";
  fs::create_directories(options.work_dir);
  fs::create_directories(options.trace_dir);

  Result result;
  int status = 0;
  try {
    if (options.workload == "serve_score")
      run_serve_score(options, &result);
    else
      run_recover(options, options.workload == "recover_warm", &result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  fs::remove_all(options.work_dir);
  if (status != 0) return status;

  for (auto [specs, metrics] :
       {std::pair{&e2e_specs(), &result.e2e},
        std::pair{&layer_specs(), &result.layers}}) {
    const std::string error = canonicalize(*specs, metrics);
    if (!error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace);
  std::printf("host %s\n",
              host_fingerprint_json(options.workload, result.threads).c_str());
  for (const std::string& line : result.info) std::printf("  %s\n", line.c_str());
  for (const Metric& metric : options.trace ? result.layers : result.e2e)
    std::printf("  %-30s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("  %-30s %.6g ratio (%lld of %lld)\n", "error_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<std::int64_t>(1, result.attempted)),
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::printf("%s\n", result_json(result, options.trace).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
