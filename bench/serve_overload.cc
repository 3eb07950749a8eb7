// Overload behaviour of the serving daemon — drives a socket server past
// its admission budget and reports what production cares about: shed rate,
// that every shed response carries a machine-readable retry_after_ms, and
// that the latency of *accepted* requests stays bounded (within ~2x of the
// unloaded p95) because excess load is refused at the door instead of
// queueing without bound.
//
// The model is made predictably slow with the fault injector's latency
// mode (model.forward armed at p=1.0 with a fixed delay), so the run is
// deterministic and does not depend on host speed to reach overload.
//
// Client connections come from a shared serve::ClientPool — the same
// bounded, EINTR-safe reuse layer the router's backend links use — so the
// bench also exercises (and reports) connection reuse under load.
//
// Extra knobs on top of the common ones (bench/common.h):
//   REBERT_OVERLOAD_BENCH       benchmark to serve          (default b07)
//   REBERT_OVERLOAD_REQUESTS    requests per client         (default 60)
//   REBERT_OVERLOAD_CLIENTS     overload client threads     (default 8)
//   REBERT_OVERLOAD_INFLIGHT    engine admission budget     (default 2)
//   REBERT_OVERLOAD_FORWARD_MS  injected forward latency    (default 2)
//
// Phases (one CSV row each):
//   unloaded  1 client, no contention — the latency baseline
//   overload  N clients, no retry — measures shedding + accepted latency
//   retry     N clients via Client::request_with_retry — goodput with the
//             deterministic capped backoff honouring retry_after_ms
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/common.h"
#include "runtime/fault_injector.h"
#include "serve/client_pool.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/serve_loop.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace rebert;

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * sorted.size()));
  return sorted[index];
}

struct PhaseResult {
  int clients = 0;
  int requests = 0;       // issued
  int accepted = 0;       // answered `ok ...`
  int shed = 0;           // answered `err overloaded ...`
  int errors = 0;         // anything else (should stay 0)
  int bad_shed = 0;       // shed responses missing retry_after_ms
  std::uint64_t retries = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;    // accepted requests only
};

PhaseResult run_phase(serve::ClientPool& pool, const std::string& bench,
                      const std::vector<std::string>& bits, int clients,
                      int requests_per_client, bool with_retry) {
  PhaseResult result;
  result.clients = clients;
  result.requests = clients * requests_per_client;
  std::atomic<int> accepted{0}, shed{0}, errors{0}, bad_shed{0};
  const std::uint64_t retries_before = pool.retries();
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      util::Rng rng(0x0ffe12ULL + static_cast<std::uint64_t>(c));
      std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
      const int num_bits = static_cast<int>(bits.size());
      for (int r = 0; r < requests_per_client; ++r) {
        const std::string& a = bits[static_cast<std::size_t>(
            rng.uniform_int(0, num_bits - 1))];
        const std::string& b = bits[static_cast<std::size_t>(
            rng.uniform_int(0, num_bits - 1))];
        const std::string line = "score " + bench + " " + a + " " + b;
        util::WallTimer timer;
        serve::ClientPool::Lease lease = pool.acquire();
        if (!lease) {
          errors.fetch_add(1);
          continue;
        }
        std::string response;
        try {
          response = with_retry ? lease->request_with_retry(line)
                                : lease->request(line);
        } catch (const std::exception&) {
          lease.discard();
          errors.fetch_add(1);
          continue;
        }
        const double seconds = timer.seconds();
        if (util::starts_with(response, "ok ")) {
          accepted.fetch_add(1);
          mine.push_back(seconds);
        } else if (util::starts_with(response, "err overloaded")) {
          shed.fetch_add(1);
          if (serve::parse_retry_after_ms(response) < 0)
            bad_shed.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  result.accepted = accepted.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.bad_shed = bad_shed.load();
  // Leases were all returned at join, so the pool-level aggregate is
  // complete for this phase.
  result.retries = pool.retries() - retries_before;
  std::vector<double> all;
  for (const std::vector<double>& client : latencies)
    all.insert(all.end(), client.begin(), client.end());
  std::sort(all.begin(), all.end());
  result.p50_ms = 1000.0 * percentile(all, 0.50);
  result.p95_ms = 1000.0 * percentile(all, 0.95);
  return result;
}

}  // namespace

int main() {
  benchharness::BenchSetup setup = benchharness::load_bench_setup();

  const std::string bench =
      util::env_string("REBERT_OVERLOAD_BENCH", "b07");
  const int requests = util::env_int("REBERT_OVERLOAD_REQUESTS", 60);
  const int clients =
      std::max(2, util::env_int("REBERT_OVERLOAD_CLIENTS", 8));
  const int max_inflight =
      std::max(1, util::env_int("REBERT_OVERLOAD_INFLIGHT", 2));
  const int forward_ms =
      std::max(1, util::env_int("REBERT_OVERLOAD_FORWARD_MS", 2));
  // Deterministic slowness: every forward sleeps forward_ms, so a handful
  // of clients reliably exceeds the admission budget on any host.
  runtime::FaultInjector::global().arm("model.forward", 1.0, 7, forward_ms);

  serve::EngineOptions options;
  options.num_threads = 2;
  options.suite_scale = setup.scale;
  options.experiment = setup.options;
  options.max_inflight = max_inflight;
  options.retry_after_ms = 5;
  serve::InferenceEngine engine(options);
  const std::vector<std::string> bits = engine.bit_names(bench);

  const std::string socket_path =
      "/tmp/rebert_overload_" + std::to_string(::getpid()) + ".sock";
  serve::ServeLoop loop(engine);
  // Shedding needs more concurrent dispatches than the admission budget;
  // the dispatch pool (not a thread per connection) is what bounds them.
  loop.set_dispatch_threads(std::max(16, clients + 4));
  std::thread server([&] { loop.run_unix_socket(socket_path); });
  serve::ClientPool pool(socket_path);

  std::printf("=== Serve overload: %s (scale %.2f), budget %d in-flight, "
              "%d ms/forward, %d request(s)/client ===\n",
              bench.c_str(), setup.scale, max_inflight, forward_ms,
              requests);
  util::TextTable table({"phase", "clients", "requests", "accepted", "shed",
                         "shed rate", "p50 (ms)", "p95 (ms)", "p95 / base",
                         "retries"});
  util::CsvWriter csv("serve_overload.csv",
                      {"phase", "clients", "requests", "accepted", "shed",
                       "shed_rate", "p50_ms", "p95_ms", "p95_over_unloaded",
                       "retries", "shed_with_retry_after", "errors"});

  struct Phase {
    const char* name;
    int clients;
    bool with_retry;
  };
  const Phase phases[] = {{"unloaded", 1, false},
                          {"overload", clients, false},
                          {"retry", clients, true}};
  double unloaded_p95 = 0.0;
  int failures = 0;
  for (const Phase& phase : phases) {
    const PhaseResult result = run_phase(pool, bench, bits, phase.clients,
                                         requests, phase.with_retry);
    if (unloaded_p95 == 0.0) unloaded_p95 = result.p95_ms;
    const double ratio =
        unloaded_p95 > 0.0 ? result.p95_ms / unloaded_p95 : 0.0;
    const double shed_rate =
        result.requests > 0
            ? static_cast<double>(result.shed) / result.requests
            : 0.0;
    table.add_row({phase.name, std::to_string(result.clients),
                   std::to_string(result.requests),
                   std::to_string(result.accepted),
                   std::to_string(result.shed),
                   util::format_double(shed_rate, 3),
                   util::format_double(result.p50_ms, 3),
                   util::format_double(result.p95_ms, 3),
                   util::format_double(ratio, 2) + "x",
                   std::to_string(result.retries)});
    csv.add_row({phase.name, std::to_string(result.clients),
                 std::to_string(result.requests),
                 std::to_string(result.accepted),
                 std::to_string(result.shed),
                 util::format_double(shed_rate, 4),
                 util::format_double(result.p50_ms, 4),
                 util::format_double(result.p95_ms, 4),
                 util::format_double(ratio, 3),
                 std::to_string(result.retries),
                 std::to_string(result.shed - result.bad_shed),
                 std::to_string(result.errors)});
    if (result.bad_shed > 0) {
      std::printf("FAIL: %d shed response(s) missing retry_after_ms\n",
                  result.bad_shed);
      ++failures;
    }
    if (result.errors > 0) {
      std::printf("FAIL: %d non-ok, non-overloaded response(s) in phase "
                  "%s\n", result.errors, phase.name);
      ++failures;
    }
  }

  loop.stop();
  server.join();
  // Read the stats before disarming — disarm_all resets the trip counter.
  const serve::EngineStats stats = engine.stats();
  runtime::FaultInjector::global().disarm_all();

  table.print();
  std::printf("CSV: serve_overload.csv\n");
  std::printf("engine: shed_requests=%llu faults_injected=%llu\n",
              static_cast<unsigned long long>(stats.shed_requests),
              static_cast<unsigned long long>(stats.faults_injected));
  std::printf("pool: created=%llu reused=%llu discarded=%llu idle=%zu\n",
              static_cast<unsigned long long>(pool.created()),
              static_cast<unsigned long long>(pool.reused()),
              static_cast<unsigned long long>(pool.discarded()),
              pool.idle());
  return failures == 0 ? 0 : 1;
}
