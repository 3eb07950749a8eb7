// Shared helpers for the tests that drive the built rebert_cli binary
// (its path arrives as the REBERT_CLI_PATH compile definition).
#pragma once

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

/// Runs a shell command and returns its stdout; fails the test on a
/// non-zero exit.
inline std::string run(const std::string& command) {
  std::string out;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed: " << command;
    return out;
  }
  char buffer[4096];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
    out.append(buffer, got);
  EXPECT_EQ(::pclose(pipe), 0) << command;
  return out;
}

/// A long-running rebert_cli child (`route`) in a process group of its
/// own. The destructor sends SIGTERM and expects a clean exit within 30 s
/// (a sanitizer report fails it), then kills and reaps whatever is left
/// of the group: `route` reaps its backends on SIGTERM, but one killed
/// before its handler is installed orphans them, and this process, a
/// child subreaper, inherits the orphans. No process outlives the object.
class CliProcess {
 public:
  explicit CliProcess(const std::vector<std::string>& args) {
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    std::vector<char*> argv;
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::setpgid(0, 0);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    EXPECT_GT(pid_, 0) << "fork failed";
    if (pid_ > 0) ::setpgid(pid_, pid_);  // either side may win the race
  }

  ~CliProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "pid " << pid_ << " ignored SIGTERM for 30 s";
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "pid " << pid_ << " ended with wait status " << status;
    ::kill(-pid_, SIGKILL);
    while (::waitpid(-pid_, nullptr, 0) > 0) {
    }
  }

  CliProcess(const CliProcess&) = delete;
  CliProcess& operator=(const CliProcess&) = delete;

 private:
  pid_t pid_ = -1;
};
