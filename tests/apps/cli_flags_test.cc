// `rebert_cli` flag validation: each subcommand accepts the flags its
// usage line names plus the global --kernels, and rejects any other with
// `unknown flag --x`, the usage screen and exit status 2.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cli_run.h"

namespace {

struct Outcome {
  int status = -1;
  std::string output;  // stdout and stderr
};

Outcome run_status(const std::string& command) {
  Outcome outcome;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed: " << command;
    return outcome;
  }
  char buffer[4096];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
    outcome.output.append(buffer, got);
  const int raw = ::pclose(pipe);
  outcome.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return outcome;
}

TEST(CliFlagsTest, UnknownFlagPrintsUsageAndExitsTwo) {
  const std::string cli = REBERT_CLI_PATH;
  std::vector<std::string> commands = {
      cli + " score --bench b03 --pairs 2 --no-such-flag 1",
      cli + " score --bench b03 --pairs 2 --batch 4",  // a removed flag
      cli + " stats --in missing.bench --verbose",
      cli + " route --socket unused.sock --bogus 3"};
  // Router knobs with one value in use are constants, so `route` rejects
  // the flags that used to set them.
  for (const char* removed :
       {"--backend-weights 1,2", "--vnodes 64", "--replicas 2",
        "--mirror-queue-depth 256", "--queue-depth 4",
        "--queue-timeout-ms 250", "--probe-interval-ms 200"})
    commands.push_back(cli + " route --socket unused.sock " + removed);
  // The engine serves one model under one global admission budget, and the
  // listen backlog is SOMAXCONN: the flags that used to vary these are gone.
  for (const char* removed :
       {"--manifest m", "--max-inflight-per-bench 1", "--listen-backlog 0"}) {
    commands.push_back(cli + " route --socket unused.sock " + removed);
    commands.push_back(cli + " score --bench b03 --pairs 2 " +
                       std::string(removed));
  }
  for (const std::string& command : commands) {
    const Outcome outcome = run_status(command);
    EXPECT_EQ(outcome.status, 2) << command << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find("unknown flag --"), std::string::npos)
        << outcome.output;
    EXPECT_NE(outcome.output.find("usage: rebert_cli"), std::string::npos)
        << outcome.output;
  }
}

TEST(CliFlagsTest, DocumentedAndGlobalFlagsAreAccepted) {
  const std::string cli = REBERT_CLI_PATH;
  const std::string dir = ::testing::TempDir();
  const std::string bench = dir + "/rebert_cli_flags.bench";
  const std::string words = dir + "/rebert_cli_flags.words";
  run(cli + " gen --bench b03 --scale 0.25 --out " + bench + " --words " +
      words + " --kernels scalar > /dev/null");
  run(cli + " recover --in " + bench + " --structural --depth 6 --words " +
      words + " > /dev/null");
  const std::string scored =
      run(cli + " score --bench b03 --pairs 2 --seed 3 --scale 0.25 "
                "--depth 6 --threads 1 2> /dev/null");
  std::remove(bench.c_str());
  std::remove(words.c_str());
  EXPECT_NE(scored.find("scores checksum"), std::string::npos) << scored;
}

}  // namespace
