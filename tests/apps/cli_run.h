// Shared helper for the tests that drive the built rebert_cli binary
// (its path arrives as the REBERT_CLI_PATH compile definition).
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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
