// CLI error-path tests: every tool must exit 2 with usage on unknown or
// malformed flags, and nonzero on malformed input — never crash or silently
// succeed. Binaries are injected as compile definitions by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#ifdef _WIN32
#error "this suite drives tools through POSIX wait-status decoding"
#endif
#include <sys/wait.h>

namespace {

/// Run a shell command with all output discarded; return its exit code.
int exit_code(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -2;  // killed by a signal — always a test failure
}

const std::string kCli = FEDCONS_CLI_BIN;
const std::string kGen = FEDCONS_GEN_BIN;
const std::string kConform = FEDCONS_CONFORM_BIN;
const std::string kServe = FEDCONS_SERVE_BIN;
const std::string kTop = FEDCONS_TOP_BIN;

TEST(ToolsErrorsTest, UnknownFlagsExitTwo) {
  EXPECT_EQ(exit_code(kCli + " --no-such-flag"), 2);
  EXPECT_EQ(exit_code(kGen + " --no-such-flag"), 2);
  EXPECT_EQ(exit_code(kConform + " --no-such-flag"), 2);
  EXPECT_EQ(exit_code(kServe + " --no-such-flag"), 2);
  EXPECT_EQ(exit_code(kTop + " --no-such-flag"), 2);
  // A typo'd known flag must not fall through to a default mode.
  EXPECT_EQ(exit_code(kCli + " --exmple"), 2);
  EXPECT_EQ(exit_code(kGen + " --presets=avionics"), 2);
  EXPECT_EQ(exit_code(kConform + " --trails=10"), 2);
  EXPECT_EQ(exit_code(kServe + " --sockets=/tmp/x.sock"), 2);
  EXPECT_EQ(exit_code(kTop + " --socket=/tmp/x.sock --interval=100"), 2);
}

TEST(ToolsErrorsTest, ServeToolsValidateFlagValues) {
  // --trace-sample=8x is the canonical lax-parsing failure: stoll's silent
  // prefix parse would sample every 8th request. Exit 2, loudly.
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --trace-sample=8x"), 2);
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --max-frame-bytes=0x40"),
            2);
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --max-frame-bytes=" +
                      "99999999999999999999"),
            2);
  // Exactly one listener, and values must be in range: each of these used
  // to narrow silently (port 70000 listened on 4464, a frame cap of -1
  // became SIZE_MAX, and a sampling period of 2^32 + 1 became 1).
  EXPECT_EQ(exit_code(kServe), 2);
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --port=0"), 2);
  EXPECT_EQ(exit_code(kServe + " --port=70000"), 2);
  EXPECT_EQ(exit_code(kServe + " --port=-1"), 2);
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --max-frame-bytes=0"),
            2);
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --max-frame-bytes=-1"),
            2);
  EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock --trace-sample=-1"), 2);
  EXPECT_EQ(exit_code(kServe +
                      " --socket=/tmp/x.sock --trace-sample=4294967297"),
            2);
  // Flags of the removed dispatcher and stats series are unknown flags.
  for (const char* removed :
       {"--threads=1", "--max-batch=64", "--batch-timeout-us=0",
        "--queue-depth=1024", "--stats-interval-ms=10", "--stats-ring=4"}) {
    EXPECT_EQ(exit_code(kServe + " --socket=/tmp/x.sock " + removed), 2)
        << removed;
  }
  // fedcons_top: usage errors exit 2 (1 means the daemon went away).
  EXPECT_EQ(exit_code(kTop + " --socket=/tmp/x.sock --interval-ms=8x"), 2);
  EXPECT_EQ(exit_code(kTop + " --port=70000"), 2);
  EXPECT_EQ(exit_code(kTop), 2);  // needs --socket or --port
}

TEST(ToolsErrorsTest, StrayPositionalArgumentsExitTwo) {
  // Bare tokens are always positional — the old space-separated value form
  // consumed "stray" below as a flag value, so "--json file.json" silently
  // swallowed the input file. Both orders must reject now.
  EXPECT_EQ(exit_code(kCli + " stray --example"), 2);
  EXPECT_EQ(exit_code(kCli + " --example stray"), 2);
  EXPECT_EQ(exit_code(kCli + " --json file.json"), 2);
  EXPECT_EQ(exit_code(kGen + " stray --list-presets"), 2);
  EXPECT_EQ(exit_code(kGen + " --list-presets stray"), 2);
  EXPECT_EQ(exit_code(kConform + " stray --list"), 2);
  EXPECT_EQ(exit_code(kConform + " --list stray"), 2);
}

/// A minimal valid workload on disk, for exercising post-parse flag errors.
std::string valid_workload_path() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/tools_errors_ok.tasks";
    std::ofstream out(p);
    out << "task a\n  deadline 5\n  period 5\n  vertex 1\nend\n"
        << "task b\n  deadline 5\n  period 5\n  vertex 1\nend\n";
    return p;
  }();
  return path;
}

TEST(ToolsErrorsTest, MalformedFlagValuesExitTwo) {
  // --m is read before the workload file is even opened.
  EXPECT_EQ(exit_code(kCli + " --file=whatever --m=banana"), 2);
  EXPECT_EQ(exit_code(kGen + " --tasks=banana"), 2);
  EXPECT_EQ(exit_code(kConform + " --isolation --trials=banana"), 2);
  // --variant names one of two PARTITION probes; anything else (including
  // the library's own "paper-literal" spelling) is a usage error, not a
  // silent run of the full variant.
  const std::string cli = kCli + " --file=" + valid_workload_path() + " --m=2";
  EXPECT_EQ(exit_code(cli + " --variant=bogus"), 2);
  EXPECT_EQ(exit_code(cli + " --variant=paper-literal"), 2);
}

TEST(ToolsErrorsTest, TrailingGarbageNumbersExitTwo) {
  // stoll("8x") returns 8, so --threads=8x used to run with 8 threads and
  // --m=8x analyzed on 8 processors. The whole token must parse.
  EXPECT_EQ(exit_code(kConform + " --trials=10 --threads=8x"), 2);
  EXPECT_EQ(exit_code(kCli + " --file=whatever --m=8x"), 2);
  EXPECT_EQ(exit_code(kGen + " --tasks=3.5"), 2);
  EXPECT_EQ(exit_code(kCli + " --file=whatever --m=99999999999999999999"), 2);
}

TEST(ToolsErrorsTest, MalformedInjectSpecsExitTwo) {
  const std::string base = kCli + " --file=" + valid_workload_path() + " --m=2";
  EXPECT_EQ(exit_code(base + " --inject=bogus:1"), 2);
  EXPECT_EQ(exit_code(base + " --inject=task:"), 2);
  EXPECT_EQ(exit_code(base + " --inject=task:a,overrun:3000 --enforce=banana"),
            2);
  // Processor failures must name a processor the platform actually has.
  EXPECT_EQ(exit_code(base + " --inject=proc:9@100"), 2);
  // The happy paths behind the same flags still work.
  EXPECT_EQ(exit_code(base + " --inject=task:a,overrun:3000 --enforce=on"), 0);
  EXPECT_EQ(exit_code(base + " --inject=proc:1@100"), 0);
}

TEST(ToolsErrorsTest, MalformedWorkloadFilesFailCleanly) {
  const std::string path = ::testing::TempDir() + "/tools_errors_bad.tasks";
  {
    std::ofstream out(path);
    out << "task broken\n  deadline nan\n  period 5\n  vertex 1\nend\n";
  }
  EXPECT_NE(exit_code(kCli + " --file=" + path), 0);
  EXPECT_NE(exit_code(kCli + " --file=/nonexistent/no.tasks"), 0);
}

TEST(ToolsErrorsTest, ValidInvocationsStillExitZero) {
  // Guard against over-eager rejection: the documented happy paths work.
  EXPECT_EQ(exit_code(kCli + " --example"), 0);
  EXPECT_EQ(exit_code(kCli + " --file=" + valid_workload_path() +
                      " --m=2 --variant=literal"),
            0);
  EXPECT_EQ(exit_code(kGen + " --list-presets"), 0);
  EXPECT_EQ(exit_code(kConform + " --list"), 0);
}

}  // namespace
