// Serving throughput vs thread count — the concurrent-runtime headline
// numbers: score-request QPS with latency percentiles, plus the wall time
// of one full recover (the parallel score_all_pairs hot path) at each
// thread count and its speedup over single-threaded.
//
// Extra knobs on top of the common ones (bench/common.h):
//   REBERT_SERVE_BENCH     benchmark to serve            (default b07 —
//                          the mid-size circuit of the Table I suite)
//   REBERT_SERVE_REQUESTS  score requests per run        (default 400)
//   REBERT_SERVE_CLIENTS   concurrent client threads     (default 4)
//   REBERT_SERVE_THREADS   comma list of engine threads  (default 1,2,4,8)
//
// The recover timing runs with the prediction cache off so it measures
// model forwards, not memory bandwidth; the QPS loop keeps the cache on,
// matching production serving.
//
// The QPS loop goes over a real AF_UNIX socket through a shared
// serve::ClientPool (the same reuse layer the router's backend links use),
// so the measured latency includes the full transport, not just the engine.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/common.h"
#include "serve/client_pool.h"
#include "serve/engine.h"
#include "serve/serve_loop.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double recover_seconds = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
  const std::size_t index = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * sorted.size()));
  return sorted[index];
}

}  // namespace

int main() {
  using namespace rebert;
  benchharness::BenchSetup setup = benchharness::load_bench_setup();

  const std::string bench =
      util::env_string("REBERT_SERVE_BENCH", "b07");
  const int requests = util::env_int("REBERT_SERVE_REQUESTS", 400);
  const int clients = std::max(1, util::env_int("REBERT_SERVE_CLIENTS", 4));
  std::vector<int> thread_counts;
  for (const std::string& piece :
       util::split(util::env_string("REBERT_SERVE_THREADS", "1,2,4,8"), ','))
    if (!util::trim(piece).empty())
      thread_counts.push_back(std::stoi(util::trim(piece)));

  std::printf("=== Serve throughput: %s (scale %.2f), %d requests, "
              "%d client(s) ===\n",
              bench.c_str(), setup.scale, requests, clients);
  util::TextTable table({"threads", "qps", "p50 (ms)", "p95 (ms)",
                         "recover (s)", "speedup"});
  util::CsvWriter csv("serve_throughput.csv",
                      {"threads", "qps", "p50_ms", "p95_ms", "recover_s",
                       "speedup"});

  double serial_recover = 0.0;
  for (const int threads : thread_counts) {
    serve::EngineOptions options;
    options.num_threads = threads;
    options.suite_scale = setup.scale;
    options.experiment = setup.options;
    options.experiment.pipeline.use_prediction_cache = false;
    serve::InferenceEngine engine(options);
    serve::ServeLoop loop(engine);
    const int num_bits = engine.warm(bench);
    const std::vector<std::string> bits = engine.bit_names(bench);

    RunResult result;
    {
      util::WallTimer timer;
      result.recover_seconds = 0.0;
      (void)engine.recover(bench);
      result.recover_seconds = timer.seconds();
    }

    const std::string socket_path =
        "/tmp/rebert_throughput_" + std::to_string(::getpid()) + "_" +
        std::to_string(threads) + ".sock";
    std::thread server([&] { loop.run_unix_socket(socket_path); });

    if (serial_recover == 0.0) serial_recover = result.recover_seconds;
    const double speedup = result.recover_seconds > 0.0
                               ? serial_recover / result.recover_seconds
                               : 0.0;

    serve::ClientPool pool(socket_path);
    std::atomic<int> next{0};
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    util::WallTimer wall;
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        util::Rng rng(0xbe6cULL + static_cast<std::uint64_t>(c));
        std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
        while (next.fetch_add(1) < requests) {
          const std::string& a = bits[static_cast<std::size_t>(
              rng.uniform_int(0, num_bits - 1))];
          const std::string& b = bits[static_cast<std::size_t>(
              rng.uniform_int(0, num_bits - 1))];
          const std::string line = "score " + bench + " " + a + " " + b;
          util::WallTimer request_timer;
          serve::ClientPool::Lease lease = pool.acquire();
          if (!lease) continue;
          try {
            (void)lease->request(line);
          } catch (const std::exception&) {
            lease.discard();
            continue;
          }
          mine.push_back(request_timer.seconds());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double elapsed = wall.seconds();

    std::vector<double> all;
    for (const std::vector<double>& client : latencies)
      all.insert(all.end(), client.begin(), client.end());
    std::sort(all.begin(), all.end());
    result.qps = static_cast<double>(all.size()) / elapsed;
    result.p50_ms = 1000.0 * percentile(all, 0.50);
    result.p95_ms = 1000.0 * percentile(all, 0.95);

    table.add_row({std::to_string(threads),
                   util::format_double(result.qps, 1),
                   util::format_double(result.p50_ms, 3),
                   util::format_double(result.p95_ms, 3),
                   util::format_double(result.recover_seconds, 3),
                   util::format_double(speedup, 2) + "x"});
    csv.add_row({std::to_string(threads),
                 util::format_double(result.qps, 1),
                 util::format_double(result.p50_ms, 4),
                 util::format_double(result.p95_ms, 4),
                 util::format_double(result.recover_seconds, 4),
                 util::format_double(speedup, 2)});
    loop.stop();
    server.join();
  }
  table.print();
  std::printf("CSV: serve_throughput.csv\n");
  return 0;
}
