#include "serve/serve_loop.h"

#include <exception>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "runtime/latch.h"
#include "serve/protocol.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace rebert::serve {

namespace {

std::string format_stats(const EngineStats& stats) {
  std::ostringstream out;
  out << "threads=" << stats.threads << " shards=" << stats.cache_shards
      << " score_requests=" << stats.score_requests
      << " recover_requests=" << stats.recover_requests
      << " cache_hits=" << stats.cache_hits
      << " cache_misses=" << stats.cache_misses
      << " cache_entries=" << stats.cache_entries
      << " warm_entries=" << stats.warm_entries
      << " warm_rejected=" << stats.warm_rejected
      << " benches=" << stats.benches_loaded
      << " shed_requests=" << stats.shed_requests
      << " deadline_exceeded=" << stats.deadline_exceeded
      << " degraded_recoveries=" << stats.degraded_recoveries
      << " faults_injected=" << stats.faults_injected
      << " uptime_seconds="
      << util::format_double(stats.uptime_seconds, 3)
      << " kernels=" << stats.kernels;
  return out.str();
}

/// The `health` payload: one coarse status plus the gauges behind it.
/// `overloaded` reflects this instant's budget; `degraded` the last model
/// forward (or a checkpoint that never loaded); `ready` otherwise.
std::string format_health(const EngineStats& stats) {
  const char* status = "ready";
  if (!stats.model_healthy) status = "degraded";
  if (stats.max_inflight > 0 && stats.inflight >= stats.max_inflight)
    status = "overloaded";
  std::ostringstream out;
  out << "status=" << status << " inflight=" << stats.inflight
      << " max_inflight=" << stats.max_inflight
      << " shed_requests=" << stats.shed_requests
      << " deadline_exceeded=" << stats.deadline_exceeded
      << " degraded_recoveries=" << stats.degraded_recoveries
      << " faults_injected=" << stats.faults_injected
      << " kernels=" << stats.kernels;
  return out.str();
}

std::string format_recover(const RecoverSummary& summary) {
  std::ostringstream out;
  out << "words=" << summary.num_words << " bits=" << summary.num_bits
      << " filtered=" << util::format_double(summary.filtered_fraction, 4)
      << " cache_hit_rate="
      << util::format_double(summary.cache_hit_rate, 4) << " seconds="
      << util::format_double(summary.seconds, 3);
  return out.str();
}

}  // namespace

ServeLoop::ServeLoop(InferenceEngine& engine)
    : engine_(engine),
      socket_server_(SocketServer::Callbacks{
          /*handle_line=*/[this](const std::string& line, bool* quit) {
            return handle_line(line, quit);
          },
          /*is_blank=*/[](const std::string& line) {
            return is_blank_request(parse_request(line));
          },
          /*overload_line=*/[this] {
            // Count before sending, so a client that saw the refusal also
            // sees it in stats.
            engine_.record_shed();
            return format_overloaded(engine_.retry_after_ms());
          },
          /*on_answered=*/[this] { count_request_for_snapshot(); },
          /*on_shutdown=*/[this] { snapshot_cache(/*force=*/true); }}) {}

void ServeLoop::enable_snapshots(std::string path, int every_n) {
  snapshot_path_ = std::move(path);
  snapshot_every_ = every_n;
}

void ServeLoop::snapshot_cache(bool force) {
  if (snapshot_path_.empty()) return;
  // Read before the save starts, so the save holds every entry counted.
  const std::uint64_t inserts = engine_.cache_inserts();
  if (!snapshot_mu_.try_lock()) {
    // Another thread is mid-save. A cadence save can skip (the next one
    // covers it); a shutdown save must land, so wait our turn.
    if (!force) return;
    snapshot_mu_.lock();
  }
  // Both branches above join holding snapshot_mu_; everything that can
  // throw is caught before the unlock. A cache that gained no entry since
  // the last save has nothing the file lacks (health probes and stats
  // lines count toward the cadence but add nothing), so it skips. The
  // count only grows; a caller that read it before another saved sees no
  // news and skips.
  if (inserts > inserts_at_last_save_) {
    try {
      engine_.save_cache(snapshot_path_);
      inserts_at_last_save_ = inserts;
      LOG_DEBUG << "serve: cache snapshot written to " << snapshot_path_;
    } catch (const std::exception& e) {
      LOG_WARN << "serve: cache snapshot to " << snapshot_path_
               << " failed: " << e.what();
    }
  }
  snapshot_mu_.unlock();
}

void ServeLoop::count_request_for_snapshot() {
  if (snapshot_path_.empty() || snapshot_every_ < 1) return;
  const std::uint64_t n =
      answered_since_snapshot_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % static_cast<std::uint64_t>(snapshot_every_) == 0)
    snapshot_cache(/*force=*/false);
}

std::string ServeLoop::dispatch(const Request& request, bool* quit) {
  try {
    switch (request.type) {
      case RequestType::kScore:
      case RequestType::kRecover: {
        // Admission first: a shed request costs one atomic decline, not a
        // queued slot. The RAII ticket frees the slot however we leave.
        InferenceEngine::Admission admission = engine_.try_admit();
        if (!admission) return format_overloaded(engine_.retry_after_ms());
        runtime::CancellationToken deadline;
        runtime::CancellationToken* cancel = nullptr;
        const int deadline_ms = request.deadline_ms > 0
                                    ? request.deadline_ms
                                    : default_deadline_ms_;
        if (deadline_ms > 0) {
          deadline.set_deadline_after_ms(deadline_ms);
          cancel = &deadline;
        }
        if (request.type == RequestType::kScore) {
          return format_ok(util::format_double(
              engine_.score(request.bench, request.bit_a, request.bit_b,
                            cancel),
              6));
        }
        const RecoverSummary summary =
            engine_.recover(request.bench, cancel);
        std::string payload = format_recover(summary);
        if (summary.degraded) payload += " degraded=structural";
        return format_ok(payload);
      }
      case RequestType::kStats:
        return format_ok(format_stats(engine_.stats()));
      case RequestType::kHealth:
        return format_ok(format_health(engine_.stats()));
      case RequestType::kHelp:
        return format_ok(help_text());
      case RequestType::kQuit:
        if (quit) *quit = true;
        return format_ok("bye");
      case RequestType::kInvalid:
        return format_error(request.error);
    }
    return format_error("unreachable");
  } catch (const runtime::CancelledError&) {
    return format_error("deadline_exceeded");
  } catch (const std::exception& e) {
    // Engine failures (unknown bench, parse error in a .bench file, a
    // checkpoint that never loaded, ...) answer this request only; the
    // daemon keeps serving.
    return format_exception(e);
  }
}

std::string ServeLoop::handle_line(const std::string& line, bool* quit) {
  return dispatch(parse_request(line), quit);
}

std::size_t ServeLoop::run(std::istream& in, std::ostream& out) {
  std::size_t answered = 0;
  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    if (line.size() > kMaxRequestLineBytes) {
      // Same cap as the socket transport; stdio keeps serving after the
      // refusal since the oversized line is already consumed.
      out << format_line_too_long() << '\n';
      out.flush();
      ++answered;
      continue;
    }
    if (is_blank_request(parse_request(line))) continue;
    out << handle_line(line, &quit) << '\n';
    out.flush();
    ++answered;
    count_request_for_snapshot();
  }
  snapshot_cache(/*force=*/true);
  return answered;
}

void ServeLoop::run_unix_socket(const std::string& path) {
  socket_server_.run(path);
}

}  // namespace rebert::serve
