// The serving drills: the built rebert_cli's `serve` and `route`
// processes, faulted and killed, still answer — `ctest -L drill`.
//   - REBERT_FAULTS failing every forward: recover degrades to the
//     structural baseline, health says so.
//   - SIGKILL of a bench's primary: the resend is answered, and the
//     survivor the mirror warmed takes no cache miss for it.
//   - SIGKILL of a snapshotting backend: its respawn starts warm from the
//     mapped snapshot, before it scores anything.
// Every wait polls against a deadline. Requests go through an in-process
// serve::Client, and a backend counts as up when its own socket answers
// `health`: the router lists a backend healthy=1 before any probe has
// reached it.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_run.h"
#include "nl/words.h"
#include "persist/mmap_snapshot.h"
#include "serve/client.h"
#include "util/string_utils.h"

namespace {

using namespace rebert;

const std::string kCli = REBERT_CLI_PATH;

/// Polls `done` every 10 ms until it holds; false after two minutes.
template <typename Predicate>
bool poll_until(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// One request on a fresh connection; "" when nothing answers.
std::string ask(const std::string& socket, const std::string& line) {
  serve::ClientOptions options;
  options.connect_attempts = 1;
  serve::Client client(socket, options);
  if (!client.connect()) return "";
  try {
    return client.request_with_retry(line);
  } catch (const std::exception&) {
    return "";
  }
}

/// The number after ` key=` (or a leading `key=`) in `text`; -1 when
/// absent.
long field(const std::string& text, const std::string& key) {
  std::smatch match;
  if (!std::regex_search(text, match,
                         std::regex("(^| )" + key + "=([0-9]+)")))
    return -1;
  return std::stol(match[2].str());
}

/// The segment of a router `backends` answer that describes `name`.
std::string backend_entry(const std::string& backends,
                          const std::string& name) {
  const std::size_t at = backends.find("name=" + name + " ");
  if (at == std::string::npos) return "";
  return backends.substr(at, backends.find(" |", at) - at);
}

/// A `route --backends 2` fleet at scale 0.25 behind a socket in the test
/// temp dir, plus `extra` flags for the route.
struct Fleet {
  explicit Fleet(const std::string& tag,
                 const std::vector<std::string>& extra = {})
      : socket(::testing::TempDir() + "/drill_" + tag + "_" +
               std::to_string(::getpid()) + ".sock"),
        route(args(socket, extra)) {}

  static std::vector<std::string> args(const std::string& socket,
                                       const std::vector<std::string>& extra) {
    std::vector<std::string> argv{kCli,         "route", "--socket", socket,
                                  "--backends", "2",     "--scale",  "0.25"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
  }

  std::string backend_socket(const std::string& name) const {
    return socket + "." + name;
  }

  /// Each backend's own socket answers `health`, then a probe round that
  /// began after that has admitted both to the ring.
  bool ready() const {
    for (const char* name : {"backend0", "backend1"}) {
      if (!poll_until([&] {
            return util::starts_with(ask(backend_socket(name), "health"),
                                     "ok");
          }))
        return false;
    }
    std::string stats;
    if (!poll_until([&] {
          stats = ask(socket, "stats");
          return !stats.empty();
        }))
      return false;
    // Probes run one backend at a time: once three more have begun, one
    // whole probe of each backend began after both were listening.
    const long probes = field(stats, "probes");
    return poll_until([&] {
      const std::string now = ask(socket, "stats");
      return field(now, "probes") >= probes + 3 && field(now, "healthy") == 2;
    });
  }

  /// The backend's pid, as the router's `backends` answer reports it.
  long pid_of(const std::string& name) const {
    return field(backend_entry(ask(socket, "backends"), name), "pid");
  }

  std::string socket;
  CliProcess route;
};

TEST(CliDrillTest, FaultedServeDegradesToStructural) {
  const std::string out =
      run("printf 'recover b03\\nhealth\\nquit\\n' | "
          "REBERT_FAULTS=model.forward:1.0:7 " +
          kCli + " serve --scale 0.25 2> /dev/null");
  std::istringstream lines(out);
  std::string recover, health;
  std::getline(lines, recover);
  std::getline(lines, health);
  EXPECT_TRUE(util::starts_with(recover, "ok words=")) << out;
  EXPECT_TRUE(util::ends_with(recover, " degraded=structural")) << out;
  EXPECT_TRUE(util::starts_with(health, "ok status=degraded ")) << out;
}

TEST(CliDrillTest, KilledPrimaryFailsOverWarm) {
  // Real bit names for the score line: a words file at the fleet's scale.
  const std::string words =
      ::testing::TempDir() + "/drill_failover_" +
      std::to_string(::getpid()) + ".words";
  run(kCli + " gen --bench b03 --scale 0.25 --out /dev/null --words " +
      words + " > /dev/null");
  const nl::WordMap map = nl::WordMap::load(words);
  std::remove(words.c_str());
  ASSERT_GE(map.num_words(), 1);
  const std::vector<std::string>& bits = map.words()[0].second;
  ASSERT_GE(bits.size(), 2u);
  const std::string score = "score b03 " + bits[0] + " " + bits[1];

  Fleet fleet("failover");
  ASSERT_TRUE(fleet.ready());
  const std::string owners = ask(fleet.socket, "owners b03");
  std::smatch match;
  ASSERT_TRUE(std::regex_search(owners, match,
                                std::regex(R"(owners=(\w+),(\w+))")))
      << owners;
  const std::string primary = match[1].str();
  const std::string secondary = match[2].str();

  const std::string primed = ask(fleet.socket, score);
  ASSERT_TRUE(util::starts_with(primed, "ok ")) << primed;
  ASSERT_TRUE(poll_until([&] {
    return field(ask(fleet.socket, "stats"), "mirrored") >= 1;
  })) << ask(fleet.socket, "stats");
  const long misses =
      field(ask(fleet.backend_socket(secondary), "stats"), "cache_misses");
  ASSERT_GE(misses, 0);
  const long victim = fleet.pid_of(primary);
  ASSERT_GT(victim, 0) << ask(fleet.socket, "backends");

  ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGKILL), 0);
  const std::string resent = ask(fleet.socket, score);
  EXPECT_EQ(resent, primed);
  // The survivor answered, not the supervisor's cold respawn of the
  // victim, and from the entry the mirror left.
  EXPECT_GE(field(ask(fleet.socket, "stats"), "replica_hits"), 1);
  EXPECT_EQ(field(ask(fleet.backend_socket(secondary), "stats"),
                  "cache_misses"),
            misses);
}

TEST(CliDrillTest, RespawnedBackendStartsWarm) {
  const std::string cache = ::testing::TempDir() + "/drill_warm_" +
                            std::to_string(::getpid()) + ".rbpc";
  const std::string snapshot = cache + ".backend1";
  std::remove(snapshot.c_str());
  {
    Fleet fleet("warm", {"--cache-file", cache, "--snapshot-every", "1"});
    ASSERT_TRUE(fleet.ready());
    const std::string primed =
        ask(fleet.backend_socket("backend1"), "recover b03");
    ASSERT_TRUE(util::starts_with(primed, "ok words=")) << primed;
    ASSERT_TRUE(poll_until([&] {
      const persist::MmapSnapshot::OpenResult opened =
          persist::MmapSnapshot::open(snapshot);
      return opened.loaded() && opened.snapshot->count() >= 1;
    })) << snapshot;
    const long victim = fleet.pid_of("backend1");
    ASSERT_GT(victim, 0) << ask(fleet.socket, "backends");

    ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGKILL), 0);
    // The supervisor has reaped the victim once it reports a new pid, so
    // the first answer on the socket is the respawn's — and a stats
    // request scores nothing.
    ASSERT_TRUE(poll_until([&] {
      const long pid = fleet.pid_of("backend1");
      return pid > 0 && pid != victim;
    })) << ask(fleet.socket, "backends");
    std::string stats;
    ASSERT_TRUE(poll_until([&] {
      stats = ask(fleet.backend_socket("backend1"), "stats");
      return util::starts_with(stats, "ok ");
    }));
    EXPECT_GT(field(stats, "warm_entries"), 0) << stats;
    EXPECT_EQ(field(stats, "cache_misses"), 0) << stats;
  }
  std::remove(cache.c_str());
  std::remove(snapshot.c_str());
  std::remove((cache + ".backend0").c_str());
}

}  // namespace
