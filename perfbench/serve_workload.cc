// serve_score — cold `score` through an in-process ServeLoop on a Unix
// socket, text protocol, prediction cache off: every request is one
// encode_pair plus one forward, with the reactor, the protocol and engine
// dispatch on the path and the filter, grouping and cache bypassed.
//
// Requests are `score <b17-R0.4 .bench path> <a> <b>`, drawn uniformly
// from a seeded pool of uniformly random bit pairs (so every answer can be
// checked against InferenceEngine::score in-process). Four phases:
//   unloaded — one connection, one request at a time: cold score latency
//              with no queueing, the gated latency_ms;
//   low/high — open loop at fixed rates (kLowRate, kHighRate);
//   closed   — kConnections clients back to back: saturation throughput.
// Unloaded and closed each run as kRounds segments spread over the run.
//
// Open-loop latency is timed from each request's due time. A sender that
// is free sleeps until the due time; one that frees up late sends at once.
// generator lag = send time - max(due, moment a sender took the request)
// (how late the generator itself ran), backlog wait = max(0, taken - due)
// (time the request queued behind busy connections). A phase fails when
// its backlog grows (the last quarter's median wait exceeds the first
// quarter's by more than the phase's p50 latency) or when its generator lag
// p50 exceeds half its p50 latency (the generator, not the server, would
// then set the number). A failed phase is reported as failed instead of
// with latency numbers.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "nl/parser.h"
#include "rebert/tokenizer.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/serve_loop.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/timer.h"

namespace perfbench {

using namespace rebert;

namespace {

constexpr int kSetupRepeats = 25;
/// Engine scoring threads, socket dispatch threads, and client
/// connections: the load comes from one process using at most nproc = 4
/// threads and connections.
constexpr int kEngineThreads = 4;
constexpr int kDispatchThreads = 4;
constexpr int kConnections = 4;
/// Offered loads in requests/s: about 30% and 70% of the closed-loop
/// capacity measured when these constants were set, taken from the slower
/// of two ten-run sets on a shared host (median 3429/s; see README.md) so
/// that `high` stays below capacity when the host is busy. Never
/// re-derived per run.
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 2400.0;
/// Distinct bit pairs requests draw from.
constexpr std::size_t kPairPool = 4096;
/// Pairs of the traced in-process probes (>= 1000 so a p99 has ten
/// samples beyond it).
constexpr std::size_t kProbePairs = 1200;
/// Shares of --seconds per phase (the rest is setup and checking). The
/// unloaded and closed phases each run as kRounds segments spread over the
/// run, so that a stretch in which other tenants slow the shared host
/// covers one segment rather than the whole phase.
constexpr int kRounds = 3;
constexpr double kUnloadedShare = 0.24;  // over all rounds
constexpr double kOpenShare = 0.15;      // each of low and high
constexpr double kClosedShare = 0.36;    // over all rounds

struct Phase {
  explicit Phase(const char* phase_name) : name(phase_name) {}
  const char* name;
  std::vector<double> latency_ms;  // open loop: from due time; closed: send
  std::vector<double> lag_ms;      // generator lag
  std::vector<double> backlog_ms;  // queued behind busy connections
  std::vector<double> window_qps;  // closed loop: completions per window
  std::vector<double> segment_p50_ms;  // closed loop: per segment
  std::vector<double> segment_qps;     // closed loop: window median per segment
  std::int64_t sent = 0, ok = 0, failed = 0;
  double seconds = 0.0;  // closed loop: phase length, all segments
  bool phase_failed = false;  // open loop only; see the file comment
  std::string why;
  std::map<std::string, long long> stats_delta;
};

std::map<std::string, long long> scrape_stats(serve::Client& client) {
  std::map<std::string, long long> out;
  std::istringstream words(client.request("stats"));
  std::string word;
  while (words >> word) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) continue;
    const std::string text = word.substr(eq + 1);
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() && *end == '\0') out[word.substr(0, eq)] = value;
  }
  return out;
}

std::string line_for(const std::string& bench,
                     const std::vector<std::string>& bits,
                     const std::pair<int, int>& pair) {
  return "score " + bench + " " + bits[static_cast<std::size_t>(pair.first)] +
         " " + bits[static_cast<std::size_t>(pair.second)];
}

/// Request k of a phase -> pool slot, deterministic from the seed.
std::vector<std::size_t> draws(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<std::size_t> out(count);
  for (std::size_t& slot : out)
    slot = static_cast<std::size_t>(rng.uniform_u64(kPairPool));
  return out;
}

void open_loop(const std::string& socket, const std::vector<std::string>& lines,
               const std::vector<std::string>& expected,
               const std::vector<std::size_t>& slots, double rate,
               Phase* phase) {
  const std::size_t n = slots.size();
  std::vector<double> taken_ns(n), sent_ns(n), done_ns(n);
  std::vector<char> good(n, 0);
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<serve::Client>(socket));
    clients.back()->connect();
  }
  const double period_ns = 1e9 / rate;
  const std::int64_t start = Trace::now_ns() + 20'000'000;  // senders ready
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c] {
      serve::Client& client = *clients[static_cast<std::size_t>(c)];
      for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(period_ns * static_cast<double>(k));
        taken_ns[k] = static_cast<double>(Trace::now_ns());
        std::this_thread::sleep_until(
            Trace::Clock::time_point(std::chrono::nanoseconds(due)));
        sent_ns[k] = static_cast<double>(Trace::now_ns());
        try {
          good[k] = client.request(lines[slots[k]]) == expected[slots[k]];
        } catch (const std::exception&) {
          good[k] = 0;
        }
        done_ns[k] = static_cast<double>(Trace::now_ns());
      }
    });
  }
  for (std::thread& sender : senders) sender.join();

  for (std::size_t k = 0; k < n; ++k) {
    const double due = static_cast<double>(start) +
                       period_ns * static_cast<double>(k);
    phase->latency_ms.push_back((done_ns[k] - due) * 1e-6);
    phase->lag_ms.push_back((sent_ns[k] - std::max(due, taken_ns[k])) * 1e-6);
    phase->backlog_ms.push_back(std::max(0.0, taken_ns[k] - due) * 1e-6);
    ++phase->sent;
    if (good[k]) ++phase->ok; else ++phase->failed;
  }

  const double p50 = median(phase->latency_ms);
  const std::size_t quarter = std::max<std::size_t>(1, n / 4);
  const std::vector<double> first(phase->backlog_ms.begin(),
                                  phase->backlog_ms.begin() + quarter);
  const std::vector<double> last(phase->backlog_ms.end() - quarter,
                                 phase->backlog_ms.end());
  if (median(last) > median(first) + p50) {
    phase->phase_failed = true;
    phase->why = "backlog grew";
  } else if (median(phase->lag_ms) > 0.5 * p50) {
    phase->phase_failed = true;
    phase->why = "generator lag p50 exceeds half the latency p50";
  }
}

void closed_loop(const std::string& socket,
                 const std::vector<std::string>& lines,
                 const std::vector<std::string>& expected,
                 const std::vector<std::size_t>& slots, int clients,
                 double seconds, Phase* phase) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> ok{0}, failed{0};
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const std::int64_t start = Trace::now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  util::WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client(socket);
      client.connect();
      std::vector<double>& mine = latency[static_cast<std::size_t>(c)];
      for (std::int64_t t0 = Trace::now_ns(); t0 < stop; t0 = Trace::now_ns()) {
        const std::size_t slot = slots[next.fetch_add(1) % slots.size()];
        bool good = false;
        try {
          good = client.request(lines[slot]) == expected[slot];
        } catch (const std::exception&) {
        }
        mine.push_back(static_cast<double>(Trace::now_ns() - t0) * 1e-6);
        (good ? ok : failed).fetch_add(1);
      }
    });
  }
  // Completions per fixed window; their median shrugs off a stall that a
  // whole-phase average would absorb.
  constexpr double kWindowS = 0.25;
  std::int64_t previous = 0;
  std::vector<double> window_qps;
  for (int w = 1;; ++w) {
    const std::int64_t edge =
        start + static_cast<std::int64_t>(w * kWindowS * 1e9);
    if (edge > stop) break;
    std::this_thread::sleep_until(
        Trace::Clock::time_point(std::chrono::nanoseconds(edge)));
    const std::int64_t done = ok.load() + failed.load();
    window_qps.push_back(static_cast<double>(done - previous) / kWindowS);
    previous = done;
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<double> segment;
  for (const std::vector<double>& mine : latency)
    segment.insert(segment.end(), mine.begin(), mine.end());
  phase->segment_p50_ms.push_back(median(segment));
  phase->segment_qps.push_back(median(window_qps));
  phase->latency_ms.insert(phase->latency_ms.end(), segment.begin(),
                           segment.end());
  phase->window_qps.insert(phase->window_qps.end(), window_qps.begin(),
                           window_qps.end());
  phase->seconds += timer.seconds();
  phase->ok += ok.load();
  phase->failed += failed.load();
  phase->sent = phase->ok + phase->failed;
}

/// One ServeLoop on its own thread; stops and joins on destruction.
struct Server {
  serve::InferenceEngine engine;
  serve::ServeLoop loop{engine};
  std::thread thread;

  Server(const serve::EngineOptions& options, const std::string& socket)
      : engine(options) {
    loop.set_dispatch_threads(kDispatchThreads);
    thread = std::thread([this, socket] {
      try {
        loop.run_unix_socket(socket);
      } catch (const std::exception& e) {
        // The setup's connect() then times out and fails the run.
        std::fprintf(stderr, "perfbench: server stopped: %s\n", e.what());
      }
    });
  }
  ~Server() {
    loop.stop();
    thread.join();
  }
};

}  // namespace

void run_serve_score(const RunOptions& options, Result* result) {
  const std::string bench = options.work_dir + "/b17_r04.bench";
  const std::string socket = options.work_dir + "/serve.sock";
  serve::EngineOptions engine_options;
  engine_options.num_threads = kEngineThreads;
  engine_options.experiment = experiment_options();
  engine_options.experiment.pipeline.use_prediction_cache = false;
  result->threads = "{\"setup_workers\": " + std::to_string(worker_count()) +
                    ", \"engine\": " + std::to_string(kEngineThreads) +
                    ", \"dispatch\": " + std::to_string(kDispatchThreads) +
                    ", \"connections\": " + std::to_string(kConnections) +
                    "}";

  // ---- setup (repeated; setup_s is the fastest worker's median) -------------
  // Every worker sets up an engine and socket of its own (see
  // worker_count); the run keeps worker 0's and stops the others.
  struct Setup {
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<Server> server;
    std::vector<std::string> bits;
    std::vector<double> setup_s, generate_ms, corrupt_ms, tokenize_ms;
    bool accepted = true;
  };
  std::vector<Setup> setups(worker_count());
  run_on_workers(setups.size(), [&](std::size_t w) {
    Setup& s = setups[w];
    const std::string suffix = w == 0 ? "" : "-" + std::to_string(w);
    const std::string own_bench = options.work_dir + "/b17_r04" + suffix + ".bench";
    const std::string own_socket = options.work_dir + "/serve" + suffix + ".sock";
    // Poll for the new socket every millisecond; the default 10 ms poll
    // would add whole intervals to setup_s.
    serve::ClientOptions probe_options;
    probe_options.connect_poll_ms = 1;
    probe_options.connect_attempts = 5000;
    for (int r = 0; r < kSetupRepeats; ++r) {
      s.server.reset();
      s.inputs.reset();
      util::WallTimer timer;
      s.inputs = std::make_unique<Inputs>(make_inputs(options.seed));
      nl::write_bench_file(s.inputs->netlist, own_bench);
      s.server = std::make_unique<Server>(engine_options, own_socket);
      s.server->engine.warm(own_bench);
      s.bits = s.server->engine.bit_names(own_bench);
      serve::Client probe(own_socket, probe_options);
      if (!probe.connect()) {
        s.accepted = false;
        return;
      }
      s.setup_s.push_back(timer.seconds());
      s.generate_ms.push_back(s.inputs->generate_ms);
      s.corrupt_ms.push_back(s.inputs->corrupt_ms);
      s.tokenize_ms.push_back(s.inputs->tokenize_ms);
    }
  });
  std::vector<std::vector<double>> setup_s;
  for (const Setup& s : setups) {
    if (!s.accepted) {
      result->fail("a set-up server never accepted on its socket");
      return;
    }
    setup_s.push_back(s.setup_s);
  }
  for (std::size_t w = 1; w < setups.size(); ++w) setups[w].server.reset();
  const std::unique_ptr<Inputs> inputs = std::move(setups[0].inputs);
  const std::unique_ptr<Server> server = std::move(setups[0].server);
  const std::vector<std::string> bits = std::move(setups[0].bits);
  const std::vector<double>& generate_ms = setups[0].generate_ms;
  const std::vector<double>& corrupt_ms = setups[0].corrupt_ms;
  const std::vector<double>& tokenize_ms = setups[0].tokenize_ms;
  serve::InferenceEngine& engine = server->engine;
  note_workers("setup_s", setup_s, result);

  // ---- gate (a): scalar parity on an in-process model with the same weights -
  {
    const bert::BertPairClassifier model(
        core::make_model_config(engine_options.experiment));
    int sampled = 0;
    const int mismatches =
        parity_mismatches(*inputs, model, options.seed, &sampled);
    result->attempted += sampled;
    result->failed += mismatches;
    if (mismatches > 0)
      result->fail(std::to_string(mismatches) +
                   " pair scores outside the scalar parity tolerance");
  }

  // ---- request pool and the in-process answers (gate c) ---------------------
  const std::vector<std::pair<int, int>> pool = pair_schedule(
      options.seed ^ 0x5e7eu, static_cast<int>(bits.size()), kPairPool);
  std::vector<std::string> lines, expected(kPairPool);
  for (const auto& pair : pool) lines.push_back(line_for(bench, bits, pair));
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kConnections; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t k = static_cast<std::size_t>(w); k < kPairPool;
             k += kConnections) {
          const double p = engine.score(
              bench, bits[static_cast<std::size_t>(pool[k].first)],
              bits[static_cast<std::size_t>(pool[k].second)]);
          expected[k] = "ok " + util::format_double(p, 6);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  // ---- phases ------------------------------------------------------------------
  serve::Client admin(socket);
  admin.connect();
  Phase warmup{"warmup"}, unloaded{"unloaded"}, low{"low"}, high{"high"},
      closed{"closed"};
  closed_loop(socket, lines, expected, draws(options.seed ^ 0x3a, 50000),
              kConnections, std::min(0.5, options.seconds * 0.05), &warmup);
  const auto run_phase = [&](Phase* phase, auto&& body) {
    const auto before = scrape_stats(admin);
    body();
    const auto after = scrape_stats(admin);
    for (const char* key :
         {"score_requests", "shed_requests", "deadline_exceeded"})
      phase->stats_delta[key] += after.at(key) - before.at(key);
  };
  // At least one request per connection, so every phase has samples.
  const auto open_count = [&](double rate) {
    return std::max<std::size_t>(
        kConnections,
        static_cast<std::size_t>(rate * options.seconds * kOpenShare));
  };
  // Rounds of unloaded + closed segments, with low after the first round
  // and high after the second.
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    run_phase(&unloaded, [&] {
      closed_loop(socket, lines, expected,
                  draws(options.seed ^ (0x01 + (round << 8)), 200000), 1,
                  options.seconds * kUnloadedShare / kRounds, &unloaded);
    });
    run_phase(&closed, [&] {
      closed_loop(socket, lines, expected,
                  draws(options.seed ^ (0xc1 + (round << 8)), 200000),
                  kConnections, options.seconds * kClosedShare / kRounds,
                  &closed);
    });
    if (round == 0)
      run_phase(&low, [&] {
        open_loop(socket, lines, expected,
                  draws(options.seed ^ 0x10, open_count(kLowRate)), kLowRate,
                  &low);
      });
    if (round == 1)
      run_phase(&high, [&] {
        open_loop(socket, lines, expected,
                  draws(options.seed ^ 0x70, open_count(kHighRate)), kHighRate,
                  &high);
      });
  }

  for (Phase* phase : {&unloaded, &low, &high, &closed}) {
    result->attempted += phase->sent;
    result->failed += phase->failed;
    if (phase->failed > 0)
      result->fail(std::to_string(phase->failed) + " wrong or failed answers "
                   "in the " + phase->name + " phase");
    if (phase->stats_delta["score_requests"] != phase->sent)
      result->fail(std::string("server counted a different number of score "
                               "requests than sent in the ") + phase->name +
                   " phase");
  }

  const double qps = median(closed.window_qps);
  const double unloaded_p50 = median(unloaded.latency_ms);
  char line[320];
  std::snprintf(line, sizeof(line),
                "unloaded: sent=%lld ok=%lld failed=%lld score_p50_ms.unloaded="
                "%.4f (1 connection, n=%zu in %d segments)",
                static_cast<long long>(unloaded.sent),
                static_cast<long long>(unloaded.ok),
                static_cast<long long>(unloaded.failed), unloaded_p50,
                unloaded.latency_ms.size(), kRounds);
  result->note(line);
  const auto segments = [](const char* name, const std::vector<double>& values) {
    std::string out = std::string(name) + " per segment:";
    for (std::size_t k = 0; k < values.size(); ++k)
      out += (k ? ", " : " ") + util::format_double(values[k], 4);
    return out;
  };
  result->note(segments("score_p50_ms.unloaded", unloaded.segment_p50_ms));
  result->note(segments("score_qps_closed", closed.segment_qps));
  for (const Phase* phase : {&low, &high}) {
    const std::size_t n = phase->latency_ms.size();
    const std::string p50 =
        util::format_double(median(phase->latency_ms), 4);
    const std::string p99 =
        percentile_reportable(n, 0.99)
            ? util::format_double(percentile(phase->latency_ms, 0.99), 4)
            : "n/a";
    std::snprintf(line, sizeof(line),
                  "%s: sent=%lld ok=%lld failed=%lld score_p50_ms.%s=%s "
                  "score_p99_ms.%s=%s (n=%zu, %zu beyond p99) lag_ms p50=%.4f "
                  "p99=%.4f max=%.4f backlog_ms max=%.3f",
                  phase->name, static_cast<long long>(phase->sent),
                  static_cast<long long>(phase->ok),
                  static_cast<long long>(phase->failed), phase->name,
                  phase->phase_failed ? "failed" : p50.c_str(), phase->name,
                  phase->phase_failed ? "failed" : p99.c_str(), n,
                  samples_beyond(n, 0.99), median(phase->lag_ms),
                  percentile(phase->lag_ms, 0.99),
                  *std::max_element(phase->lag_ms.begin(), phase->lag_ms.end()),
                  *std::max_element(phase->backlog_ms.begin(),
                                    phase->backlog_ms.end()));
    result->note(line);
    if (phase->phase_failed)
      result->note(std::string("phase ") + phase->name + " FAILED: " +
                   phase->why);
  }
  std::snprintf(line, sizeof(line),
                "closed: sent=%lld ok=%lld failed=%lld score_qps_closed=%.1f "
                "(median of n=%zu 0.25s windows; %d clients, %.2fs in %d segments)",
                static_cast<long long>(closed.sent),
                static_cast<long long>(closed.ok),
                static_cast<long long>(closed.failed), qps,
                closed.window_qps.size(), kConnections, closed.seconds, kRounds);
  result->note(line);

  if (!options.trace) {
    result->add_e2e("setup_s", fastest_median(setup_s), "s");
    result->add_e2e("latency_ms", unloaded_p50, "ms");
    result->add_e2e("throughput_per_s", qps, "1/s");
    result->add_e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced probes -------------------------------------------------------------
  // In-process engine score on request pairs; against the unloaded phase's
  // socket latency, the difference is the transport.
  std::vector<double> engine_us;
  for (std::size_t k = 0; k < kProbePairs; ++k) {
    const std::size_t slot = k % kPairPool;
    const std::int64_t t0 = Trace::now_ns();
    (void)engine.score(bench,
                       bits[static_cast<std::size_t>(pool[slot].first)],
                       bits[static_cast<std::size_t>(pool[slot].second)]);
    engine_us.push_back(static_cast<double>(Trace::now_ns() - t0) * 1e-3);
  }

  // The engine's cold-score path composed from public calls: encode_pair
  // plus one forward per request pair, with a span around each.
  std::map<std::string, int> index_of;
  const std::vector<nl::Bit> local_bits = nl::extract_bits(inputs->netlist);
  for (std::size_t i = 0; i < local_bits.size(); ++i)
    index_of[local_bits[i].name] = static_cast<int>(i);
  const bert::BertPairClassifier model(
      core::make_model_config(engine_options.experiment));
  const core::Tokenizer tokenizer(engine_options.experiment.pipeline.tokenizer);
  const auto sequence_pair = [&](std::size_t k) {
    const auto& pair = pool[k % kPairPool];
    return std::pair<const core::BitSequence&, const core::BitSequence&>(
        inputs->sequences[static_cast<std::size_t>(
            index_of.at(bits[static_cast<std::size_t>(pair.first)]))],
        inputs->sequences[static_cast<std::size_t>(
            index_of.at(bits[static_cast<std::size_t>(pair.second)]))]);
  };
  Trace trace;
  std::vector<double> encode_us, forward_us, tokens;
  const int root = trace.begin("engine_path", -1);
  const int encode = trace.aggregate("tokenizer.encode_pair", root);
  const int forward = trace.aggregate("bert.forward", root);
  for (std::size_t k = 0; k < kProbePairs; ++k) {
    const auto [a, b] = sequence_pair(k);
    const std::int64_t t0 = Trace::now_ns();
    const bert::EncodedSequence encoded = tokenizer.encode_pair(a, b);
    const std::int64_t t1 = Trace::now_ns();
    const double p = model.predict_same_word_probability(encoded);
    const std::int64_t t2 = Trace::now_ns();
    trace.add(encode, t1 - t0);
    trace.add(forward, t2 - t1);
    encode_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    forward_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    tokens.push_back(encoded.length());
    ++result->attempted;
    if ("ok " + util::format_double(p, 6) != expected[k % kPairPool]) {
      ++result->failed;
      result->fail("composed engine path differs from InferenceEngine::score");
    }
  }
  trace.end(root);
  // Timed after the traced pass so both see the same warmed process state.
  util::WallTimer untraced;
  for (std::size_t k = 0; k < kProbePairs; ++k) {
    const auto [a, b] = sequence_pair(k);
    (void)model.predict_same_word_probability(tokenizer.encode_pair(a, b));
  }
  const double untraced_ms = untraced.milliseconds();
  const double attributed =
      trace.attributed_share(root, {"tokenizer.encode_pair", "bert.forward"});
  if (attributed < 0.95 || attributed > 1.0001)
    result->fail("layer self times cover " + std::to_string(attributed) +
                 " of the traced wall (want within 5%)");

  const auto lag_max = [](const Phase& phase) {
    return *std::max_element(phase.lag_ms.begin(), phase.lag_ms.end());
  };
  result->add_layer("tokenizer.tokenize_ms", median(tokenize_ms), "ms");
  result->add_layer("tokenizer.encode_pair_calls",
                    static_cast<double>(encode_us.size()), "count");
  result->add_layer("tokenizer.encode_pair_us.p50", median(encode_us), "us");
  result->add_layer("bert.forwards", static_cast<double>(forward_us.size()),
                    "count");
  result->add_layer("bert.useful_ratio", 1.0, "ratio");
  result->add_layer("bert.forward_ms", trace.totals("bert.forward").busy_ms,
                    "ms");
  result->add_layer("bert.forward_us.p50", median(forward_us), "us");
  result->add_layer("bert.forward_us.p99", percentile_or_zero(forward_us, 0.99),
                    "us");
  result->add_layer("bert.tokens_per_forward.p50", median(tokens), "count");
  result->add_layer("bert.tokens_per_forward.max",
                    *std::max_element(tokens.begin(), tokens.end()), "count");
  replay_kernels(model.config(), tokens, result);
  result->add_layer("circuitgen.generate_ms", median(generate_ms), "ms");
  result->add_layer("nl.corrupt_ms", median(corrupt_ms), "ms");
  result->add_layer("serve.engine_score_us.p50", median(engine_us), "us");
  result->add_layer("client.request_us.p50", unloaded_p50 * 1e3, "us");
  result->add_layer("serve.transport_us.p50",
                    unloaded_p50 * 1e3 - median(engine_us), "us");
  long long shed = 0, deadline = 0, requests = 0;
  for (Phase* phase : {&unloaded, &low, &high, &closed}) {
    shed += phase->stats_delta["shed_requests"];
    deadline += phase->stats_delta["deadline_exceeded"];
    requests += phase->stats_delta["score_requests"];
  }
  result->add_layer("serve.shed", static_cast<double>(shed), "count");
  result->add_layer("serve.deadline_exceeded", static_cast<double>(deadline),
                    "count");
  result->add_layer("serve.score_requests", static_cast<double>(requests),
                    "count");
  result->add_layer("loadgen.sent", static_cast<double>(low.sent + high.sent),
                    "count");
  result->add_layer("loadgen.ok", static_cast<double>(low.ok + high.ok),
                    "count");
  result->add_layer("loadgen.failed",
                    static_cast<double>(low.failed + high.failed), "count");
  result->add_layer("loadgen.lag_ms.p99.low",
                    percentile_or_zero(low.lag_ms, 0.99), "ms");
  result->add_layer("loadgen.lag_ms.max.low", lag_max(low), "ms");
  result->add_layer("loadgen.lag_ms.p99.high",
                    percentile_or_zero(high.lag_ms, 0.99), "ms");
  result->add_layer("loadgen.lag_ms.max.high", lag_max(high), "ms");
  result->add_layer("trace.wall_ms", trace.busy_ms(root), "ms");
  result->add_layer("trace.untraced_ms", untraced_ms, "ms");
  result->add_layer("trace.overhead_ms", trace.busy_ms(root) - untraced_ms,
                    "ms");
  result->add_layer("trace.attributed_ratio", attributed, "ratio");
  trace.write(options.trace_dir + "/" + options.workload + "-seed" +
                  std::to_string(options.seed) + ".trace.jsonl",
              host_fingerprint_json(options.workload, result->threads));
}

}  // namespace perfbench
