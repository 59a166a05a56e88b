// CLI contract tests for the deepmc binary: exit-code partitioning
// (warning counts vs usage vs input errors), --jobs determinism at the
// process level, --format json output, and `deepmc serve` rejecting bad
// numeric flags and unknown flags before it binds, and honouring its
// request timeout in --stdin mode. Also bench_gates' usage errors, and
// the one flag syntax, usage errors and thread caps that deepmc, deepmc
// serve, deepmc-load and deepmc-corpus share; each usage error must exit
// 64 before any work starts.
//
// Exit codes under test (see src/tools/deepmc.cpp):
//   0      clean, 1..63 warning count (capped), 64 usage, 65 input error.
#include <fcntl.h>
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/protocol.h"
#include "slow_module.h"

namespace deepmc {
namespace {

/// Runs a shell command line and returns (stdout, exit code).
std::pair<std::string, int> run_shell(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return {"", -1};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  return {out, WIFEXITED(status) ? WEXITSTATUS(status) : -1};
}

std::pair<std::string, int> run_command(const std::string& args) {
  return run_shell(std::string("\"") + DEEPMC_BIN + "\" " + args +
                   " 2>/dev/null");
}

std::string example(const char* name) {
  return std::string("\"") + DEEPMC_SOURCE_DIR + "/examples/mir/" + name +
         "\"";
}

TEST(CliExit, CleanInputExitsZero) {
  auto [out, code] = run_command("-epoch " + example("epoch_log.mir"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("0 warning(s)"), std::string::npos);
}

TEST(CliExit, WarningCountIsTheExitCode) {
  auto [out, code] = run_command("-strict " + example("unflushed_write.mir"));
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("1 warning(s)"), std::string::npos);
}

TEST(CliExit, UnknownFlagIsUsageError64) {
  auto [out, code] = run_command("--definitely-not-a-flag");
  EXPECT_EQ(code, 64);
}

TEST(CliExit, NoInputsIsUsageError64) {
  auto [out, code] = run_command("");
  EXPECT_EQ(code, 64);
}

TEST(CliExit, MissingOperandIsUsageError64) {
  EXPECT_EQ(run_command("--corpus").second, 64);
  EXPECT_EQ(run_command("--jobs").second, 64);
  EXPECT_EQ(run_command("--format").second, 64);
}

TEST(CliExit, BadJobsValueIsUsageError64) {
  EXPECT_EQ(run_command("--jobs 0 " + example("epoch_log.mir")).second, 64);
  EXPECT_EQ(run_command("--jobs banana " + example("epoch_log.mir")).second,
            64);
  // Above the documented 1..1024 range, negative, trailing garbage, and
  // uint64 overflow must all be rejected the same way.
  EXPECT_EQ(run_command("--jobs 1025 " + example("epoch_log.mir")).second, 64);
  EXPECT_EQ(run_command("--jobs -1 " + example("epoch_log.mir")).second, 64);
  EXPECT_EQ(run_command("--jobs 8x " + example("epoch_log.mir")).second, 64);
  EXPECT_EQ(
      run_command("--jobs 99999999999999999999 " + example("epoch_log.mir"))
          .second,
      64);
}

TEST(CliExit, BadFormatIsUsageError64) {
  EXPECT_EQ(run_command("--format xml " + example("epoch_log.mir")).second,
            64);
}

TEST(CliExit, MissingFileIsInputError65) {
  auto [out, code] = run_command("/no/such/file.mir");
  EXPECT_EQ(code, 65);
}

TEST(CliExit, UnknownCorpusModuleIsInputError65) {
  EXPECT_EQ(run_command("--corpus not/a/module").second, 65);
}

TEST(CliExit, InputErrorDoesNotHideOtherUnitsOutput) {
  // One good and one missing input: the good unit's report still prints,
  // and the error exit (65) wins over the warning count.
  auto [out, code] =
      run_command("-strict " + example("unflushed_write.mir") +
                  " /no/such/file.mir");
  EXPECT_EQ(code, 65);
  EXPECT_NE(out.find("1 warning(s)"), std::string::npos);
}

TEST(CliExit, WarningCountNeverCollidesWithErrorCodes) {
  // The corpus sweep yields dozens of warnings; the cap keeps the exit
  // below the reserved 64/65 band.
  std::string args;
  args += "--corpus pmdk/btree_map --corpus pmdk/hash_map";
  auto [out, code] = run_command(args);
  EXPECT_GT(code, 0);
  EXPECT_LT(code, 64);
}

TEST(CliJobs, OutputIsIdenticalAcrossJobCounts) {
  const std::string args =
      "--corpus pmdk/btree_map --corpus pmfs/journal --corpus "
      "mnemosyne/phlog_base " +
      example("unflushed_write.mir");
  auto [serial, c1] = run_command("--jobs 1 " + args);
  auto [parallel, c8] = run_command("--jobs 8 " + args);
  EXPECT_EQ(c1, c8);
  EXPECT_EQ(serial, parallel);
  ASSERT_FALSE(serial.empty());
}

TEST(CliJson, EmitsSchemaAndCounters) {
  auto [out, code] =
      run_command("--format json --corpus pmdk/btree_map");
  EXPECT_LT(code, 64);
  EXPECT_NE(out.find("\"schema\": \"deepmc-report-v3\""), std::string::npos);
  EXPECT_NE(out.find("\"elapsed_ms\": "), std::string::npos);
  EXPECT_NE(out.find("\"trace_roots\": "), std::string::npos);
  EXPECT_NE(out.find("\"warnings\": ["), std::string::npos);
  // v2 is backward compatible: crashsim fields only appear under
  // --crashsim.
  EXPECT_EQ(out.find("\"crashsim\""), std::string::npos);
  EXPECT_EQ(out.find("\"validation\""), std::string::npos);
}

TEST(CliCrashsim, AnnotatesWarningsAndStaysDeterministic) {
  const std::string args =
      "--crashsim --corpus pmdk/btree_map --corpus pmfs/symlink " +
      example("crash_enum.mir");
  auto [serial, c1] = run_command("--jobs 1 " + args);
  auto [parallel, c8] = run_command("--jobs 8 " + args);
  EXPECT_EQ(c1, c8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("-- crash-state enumeration --"), std::string::npos);
  EXPECT_NE(serial.find("validation confirmed"), std::string::npos);
  EXPECT_NE(serial.find("crash.rollback-exposure"), std::string::npos);
}

TEST(CliCrashsim, JsonCarriesValidationVerdicts) {
  auto [out, code] =
      run_command("--crashsim --format json --corpus pmfs/symlink");
  EXPECT_LT(code, 64);
  EXPECT_NE(out.find("\"validation\": \"confirmed\""), std::string::npos);
  EXPECT_NE(out.find("\"crashsim\": {"), std::string::npos);
  EXPECT_NE(out.find("\"framework\": \"pmfs_mini\""), std::string::npos);
}

TEST(CliServe, BadNumericFlagIsUsageError64BeforeBinding) {
  // Each value is rejected while parsing, so the daemon never binds its
  // socket (`timeout` turns a daemon that did start into a failure, not a
  // hang).
  const std::string sock = ::testing::TempDir() + "deepmc_cli_serve.sock";
  for (const char* bad :
       {"--max-sessions -1", "--max-sessions 99999999999999999999",
        "--jobs abc", "--cache-max-bytes 1x"}) {
    std::remove(sock.c_str());
    auto [out, code] =
        run_shell(std::string("timeout 30 \"") + DEEPMC_BIN +
                  "\" serve --socket \"" + sock + "\" " + bad + " 2>&1");
    const std::string flag(bad, std::strchr(bad, ' '));
    EXPECT_EQ(code, 64) << bad;
    EXPECT_NE(out.find("deepmc serve: invalid value for " + flag),
              std::string::npos)
        << bad << ": " << out;
    EXPECT_EQ(out.find("listening"), std::string::npos) << bad;
    EXPECT_NE(access(sock.c_str(), F_OK), 0) << bad << ": socket was bound";
  }
}

TEST(CliServe, CacheVersionIsAnUnknownFlag) {
  // The cache entry format version is fixed by the build; a flag that
  // could only make every entry read as a miss is rejected before the
  // daemon binds its socket.
  const std::string sock = ::testing::TempDir() + "deepmc_cli_serve_cv.sock";
  std::remove(sock.c_str());
  auto [out, code] =
      run_shell(std::string("timeout 30 \"") + DEEPMC_BIN +
                "\" serve --socket \"" + sock + "\" --cache-version 2 2>&1");
  EXPECT_EQ(code, 64);
  EXPECT_NE(out.find("deepmc serve: unknown flag --cache-version"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("listening"), std::string::npos);
  EXPECT_NE(access(sock.c_str(), F_OK), 0) << "socket was bound";
}

TEST(CliServe, StdinHonoursRequestTimeout) {
  // --request-timeout-ms bounds a --stdin session's requests as it bounds
  // a socket session's: 1 ms fires inside the diamond-heavy module.
  const std::string in = ::testing::TempDir() + "deepmc_cli_stdin.in";
  const std::string out = ::testing::TempDir() + "deepmc_cli_stdin.out";
  serve::RequestFrame req;
  req.header =
      "{\"op\": \"analyze\", \"name\": \"slowmod\", \"format\": \"json\"}";
  req.body = slow_module_text();
  const int in_fd = ::open(in.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(in_fd, 0);
  ASSERT_TRUE(serve::write_request(in_fd, req));
  ::close(in_fd);
  const int code =
      run_shell(std::string("timeout 60 \"") + DEEPMC_BIN +
                "\" serve --stdin --request-timeout-ms 1 < \"" + in +
                "\" > \"" + out + "\" 2>/dev/null")
          .second;
  EXPECT_EQ(code, 0);
  const int out_fd = ::open(out.c_str(), O_RDONLY);
  ASSERT_GE(out_fd, 0);
  serve::ResponseFrame resp;
  const int rc = serve::read_response(out_fd, &resp);
  ::close(out_fd);
  std::remove(in.c_str());
  std::remove(out.c_str());
  ASSERT_EQ(rc, 1);
  EXPECT_EQ(resp.status, serve::kStatusOk);
  EXPECT_NE(resp.meta.find("\"deadline_expired\": true"), std::string::npos)
      << resp.meta;
}

TEST(CliMillis, FlagsAboveTheCapAreUsageErrors) {
  // Every millisecond flag stops at 2^31 - 2. One more is rejected while
  // parsing, before a socket is bound or any work starts; the cap itself
  // is accepted.
  const std::string sock = ::testing::TempDir() + "deepmc_cli_millis.sock";
  const std::string serve = std::string("\"") + DEEPMC_BIN + "\" serve ";
  const std::string daemon = serve + "--socket \"" + sock + "\" ";
  const std::string client = serve + "--connect \"" + sock + "\" --ping ";
  const std::string deepmc = std::string("\"") + DEEPMC_BIN + "\" ";
  const std::string load =
      std::string("\"") + DEEPMC_LOAD_BIN + "\" --schedule-hash ";
  const struct {
    std::string cmd;
    const char* flag;
    const char* tool;
  } rows[] = {
      {daemon, "--request-timeout-ms", "deepmc serve"},
      {daemon, "--io-timeout-ms", "deepmc serve"},
      {client, "--deadline-ms", "deepmc serve"},
      {client, "--retry-budget-ms", "deepmc serve"},
      {deepmc + example("epoch_log.mir") + " ", "--budget-wall-ms", "deepmc"},
      {load, "--deadline-ms", "deepmc-load"},
      {load, "--retry-budget-ms", "deepmc-load"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.flag);
    std::remove(sock.c_str());
    auto [out, code] = run_shell("timeout 30 " + row.cmd + row.flag +
                                 " 2147483647 2>&1");
    EXPECT_EQ(code, 64) << row.cmd;
    EXPECT_NE(out.find(std::string(row.tool) + ": invalid value for " +
                       row.flag),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("listening"), std::string::npos);
    EXPECT_NE(access(sock.c_str(), F_OK), 0) << "socket was bound";
  }
  EXPECT_EQ(run_command("--budget-wall-ms 2147483646 -epoch " +
                        example("epoch_log.mir"))
                .second,
            0);
}

TEST(BenchGates, UsageErrorsExit64BeforeAnyWork) {
  // Each input is rejected while parsing: the message names the problem,
  // and the banner every gate prints before measuring never appears. The
  // removed bound and repeat flags are unknown flags, so none can loosen
  // or empty a gate.
  const struct {
    const char* args;
    const char* problem;
  } cases[] = {
      {"", "no gate named"},
      {"nonesuch", "unknown gate 'nonesuch'"},
      {"crashsim --repeats 3", "unknown gate 'crashsim'"},
      {"corpus", "unknown gate 'corpus'"},
      {"serve --bogus", "unknown flag '--bogus'"},
      {"serve --json", "missing or invalid value for --json"},
      {"serve --threads 2", "unknown flag '--threads'"},
      {"serve --min-speedup 1", "unknown flag '--min-speedup'"},
      {"serve --min-speedup x", "unknown flag '--min-speedup'"},
      {"serve_concurrency --min-speedup 1", "unknown flag '--min-speedup'"},
      {"obs_overhead --repeats 0", "unknown flag '--repeats'"},
      {"obs_overhead --max-overhead 100", "unknown flag '--max-overhead'"},
      {"resilience_overhead --repeats 0", "unknown flag '--repeats'"},
      {"resilience_overhead --max-overhead 100",
       "unknown flag '--max-overhead'"},
      {"load --max-overhead 100", "unknown flag '--max-overhead'"},
      {"load --ops abc", "missing or invalid value for --ops"},
      {"load --ops 0", "missing or invalid value for --ops"},
      {"load --threads 0", "missing or invalid value for --threads"},
      {"load --threads -1", "missing or invalid value for --threads"},
      {"load --threads 1025", "missing or invalid value for --threads"},
      {"load --threads", "missing or invalid value for --threads"},
  };
  for (const auto& c : cases) {
    auto [out, code] = run_shell(std::string("\"") + BENCH_GATES_BIN +
                                 "\" " + c.args + " 2>&1");
    EXPECT_EQ(code, 64) << c.args;
    EXPECT_NE(out.find(c.problem), std::string::npos) << c.args << ": " << out;
    EXPECT_EQ(out.find("System configuration"), std::string::npos)
        << c.args << ": the gate started";
  }
}

// --- one flag parser for every tool ------------------------------------------

/// The command line that starts `tool` ("deepmc", "deepmc serve",
/// "deepmc-load" or "deepmc-corpus", with or without "gen" / "run").
std::string tool_cmd(const std::string& tool) {
  if (tool == "deepmc") return std::string("\"") + DEEPMC_BIN + "\" ";
  if (tool == "deepmc serve")
    return std::string("\"") + DEEPMC_BIN + "\" serve ";
  if (tool == "deepmc-load") return std::string("\"") + DEEPMC_LOAD_BIN + "\" ";
  return std::string("\"") + DEEPMC_CORPUS_BIN + "\"" +
         tool.substr(std::strlen("deepmc-corpus")) + " ";
}

/// Runs `tool args` with stderr folded into the output.
std::pair<std::string, int> run_tool(const std::string& tool,
                                     const std::string& args) {
  return run_shell("timeout 60 " + tool_cmd(tool) + args + " 2>&1");
}

TEST(CliFlags, EqualsFormTakesTheOperandInEveryTool) {
  const std::string sock = ::testing::TempDir() + "deepmc_cli_eq_none.sock";
  const std::string out = ::testing::TempDir() + "deepmc_cli_eq_corpus.json";
  std::remove(sock.c_str());
  std::remove(out.c_str());
  const struct {
    const char* tool;
    std::string args;
    int code;
  } rows[] = {
      {"deepmc", "--jobs=2 --format=json " + example("epoch_log.mir"), 0},
      // Nothing listens on the socket: the client gets as far as dialling.
      {"deepmc serve",
       "--connect=\"" + sock + "\" --ping --max-retries=0 --retry-budget-ms=0",
       65},
      {"deepmc serve", "--stdin --jobs=0 --trace-ring=4 < /dev/null", 0},
      {"deepmc-load",
       "--schedule-hash --threads=2 --ops=1 --checker=off --mix=50:50:0", 0},
      {"deepmc-corpus gen", "--seed=3 --framework=PMDK --manifest", 0},
      {"deepmc-corpus run", "--count=1 --jobs=1 --out=\"" + out + "\"", 0},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(std::string(row.tool) + " " + row.args);
    auto [text, code] = run_tool(row.tool, row.args);
    EXPECT_EQ(code, row.code) << text;
    EXPECT_EQ(text.find("unknown"), std::string::npos) << text;
    EXPECT_EQ(text.find("usage:"), std::string::npos) << text;
  }
  EXPECT_EQ(access(out.c_str(), F_OK), 0) << "--out=FILE wrote nothing";
  std::remove(out.c_str());
}

TEST(CliFlags, MissingFinalOperandIsAUsageError) {
  const std::string sock = ::testing::TempDir() + "deepmc_cli_missing.sock";
  const struct {
    const char* tool;
    std::string args;
    const char* flag;
  } rows[] = {
      {"deepmc", example("epoch_log.mir") + " --corpus", "--corpus"},
      // "--flag=" with nothing after the "=" is the same missing operand.
      {"deepmc", "--jobs= " + example("epoch_log.mir"), "--jobs"},
      {"deepmc serve", "--socket \"" + sock + "\" --cache-dir", "--cache-dir"},
      {"deepmc serve", "--connect \"" + sock + "\" --ping --deadline-ms",
       "--deadline-ms"},
      {"deepmc-load", "--schedule-hash --framework", "--framework"},
      {"deepmc-load", "--schedule-hash --framework=", "--framework"},
      {"deepmc-corpus gen", "--seed 1 --framework", "--framework"},
      {"deepmc-corpus run", "--count 1 --out", "--out"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(std::string(row.tool) + " " + row.args);
    std::remove(sock.c_str());
    auto [text, code] = run_tool(row.tool, row.args);
    EXPECT_EQ(code, 64) << text;
    EXPECT_NE(text.find(std::string(row.tool) + ": missing value for " +
                        row.flag + "\n"),
              std::string::npos)
        << text;
    EXPECT_NE(access(sock.c_str(), F_OK), 0) << "socket was bound";
  }
}

TEST(CliFlags, UnknownFlagMessageNamesTheTool) {
  for (const char* tool : {"deepmc", "deepmc serve", "deepmc-load",
                           "deepmc-corpus gen", "deepmc-corpus run"}) {
    SCOPED_TRACE(tool);
    auto [text, code] = run_tool(tool, "--bogus");
    EXPECT_EQ(code, 64) << text;
    EXPECT_EQ(text.rfind(std::string(tool) + ": unknown flag --bogus\nusage: ",
                         0),
              0u)
        << text;
  }
}

TEST(CliFlags, NumericFlagsStopAtWhatTheirFieldHolds) {
  // Each value but the first once passed a cast into a narrower field;
  // none of these rows starts a worker thread.
  const struct {
    const char* tool;
    const char* args;
    const char* flag;
  } rows[] = {
      {"deepmc-load", "--schedule-hash --threads 0", "--threads"},
      {"deepmc-load", "--threads 4294967297 --ops 1", "--threads"},
      {"deepmc-load", "--schedule-hash --sample 4294967296", "--sample"},
      {"deepmc-load", "--schedule-hash --max-retries 2147483648",
       "--max-retries"},
      {"deepmc serve", "--connect x --ping --max-retries 2147483648",
       "--max-retries"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(std::string(row.tool) + " " + row.args);
    auto [text, code] = run_tool(row.tool, row.args);
    EXPECT_EQ(code, 64) << text;
    EXPECT_NE(text.find(std::string(row.tool) + ": invalid value for " +
                        row.flag + "\n"),
              std::string::npos)
        << text;
  }
  // The thread cap itself is accepted (--schedule-hash starts no threads).
  EXPECT_EQ(run_tool("deepmc-load", "--schedule-hash --ops 1 --threads 1024")
                .second,
            0);
}

TEST(CliFlags, ThreadCountsAboveTheCapAreUsageErrors) {
  // Rejected while parsing, so neither tool starts a thread.
  const struct {
    const char* tool;
    const char* args;
    const char* flag;
  } rows[] = {
      {"deepmc-load", "--threads 1025 --ops 1", "--threads"},
      {"deepmc-corpus run", "--count 1 --jobs 1025", "--jobs"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(std::string(row.tool) + " " + row.args);
    auto [text, code] = run_tool(row.tool, row.args);
    EXPECT_EQ(code, 64) << text;
    EXPECT_NE(text.find(std::string(row.tool) + ": invalid value for " +
                        row.flag + "\n"),
              std::string::npos)
        << text;
  }
}

TEST(CliFlags, LoadRejectsUnknownFrameworksAndFractionsOutsideZeroToOne) {
  // Rejected while parsing: an unknown framework once ran until the engine
  // threw (exit 65), and a fraction above 1 once ran to completion.
  const struct {
    const char* args;
    const char* flag;
  } rows[] = {
      {"--framework nope --ops 1 --threads 1", "--framework"},
      {"--framework PMDK_MINI --ops 1 --threads 1", "--framework"},
      {"--schedule-hash --hot-frac 2", "--hot-frac"},
      {"--schedule-hash --hot-frac -0.5", "--hot-frac"},
      {"--schedule-hash --hot-frac nan", "--hot-frac"},
      {"--schedule-hash --hot-prob 2", "--hot-prob"},
      {"--schedule-hash --hot-prob 1.0001", "--hot-prob"},
      {"--schedule-hash --hot-prob 0.5x", "--hot-prob"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.args);
    auto [text, code] = run_tool("deepmc-load", row.args);
    EXPECT_EQ(code, 64) << text;
    EXPECT_NE(
        text.find(std::string("deepmc-load: invalid value for ") + row.flag +
                  "\n"),
        std::string::npos)
        << text;
  }
  // Both ends of [0, 1] and every framework name are accepted.
  EXPECT_EQ(run_tool("deepmc-load",
                     "--schedule-hash --framework all --hot-frac 0 "
                     "--hot-prob 1")
                .second,
            0);
  for (const char* fw :
       {"pmdk_mini", "mnemosyne_mini", "pmfs_mini", "nvmdirect_mini"})
    EXPECT_EQ(run_tool("deepmc-load",
                       std::string("--schedule-hash --framework=") + fw +
                           " --hot-frac 1 --hot-prob 0")
                  .second,
              0)
        << fw;
}

TEST(CliFlags, UsageIsRenderedFromTheFlagTable) {
  // --help prints to stdout and exits 0; every synopsis line after the
  // first is indented under it, and every line fits 80 columns.
  // deepmc-corpus has no --help: with no command it prints both usages.
  const struct {
    const char* tool;
    const char* args;
    int code;
    const char* row;
  } cases[] = {
      {"deepmc", "--help 2>/dev/null", 0, "  --budget-wall-ms N "},
      {"deepmc serve", "--help 2>/dev/null", 0, "  --io-timeout-ms N "},
      {"deepmc-load", "--help 2>/dev/null", 0, "  --threads N "},
      {"deepmc-corpus", "2>&1", 64, "  --crashsim-sample K "},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.tool);
    auto [text, code] = run_shell(tool_cmd(c.tool) + c.args);
    EXPECT_EQ(code, c.code);
    EXPECT_NE(text.find(c.row), std::string::npos) << text;
    std::istringstream lines(text);
    std::string line;
    bool synopsis = false;
    while (std::getline(lines, line)) {
      EXPECT_LE(line.size(), 80u) << line;
      if (line.rfind("usage: ", 0) == 0) {
        synopsis = true;
      } else if (synopsis && !line.empty()) {
        EXPECT_EQ(line.rfind("       ", 0), 0u) << line;
      } else {
        synopsis = false;
      }
    }
  }
}

// --- flight dumps ------------------------------------------------------------

TEST(CliFlight, LoadSeededBugsDumpExactWarningAddresses) {
  // rt.warn carries the word's address as an integer arg and renders it
  // digit for digit; through a double, "%g" printed a waw-race and a
  // redundant-flush 8 bytes apart as the same 1.75922e+13.
  const std::string path = ::testing::TempDir() + "deepmc_cli_flight.jsonl";
  std::remove(path.c_str());
  auto [text, code] = run_tool(
      "deepmc-load",
      "--seed-bugs --threads 2 --ops 2000 --flight-out \"" + path + "\"");
  EXPECT_EQ(code, 0) << text;
  std::ifstream f(path);
  std::string line;
  size_t warns = 0;
  while (std::getline(f, line)) {
    if (line.find("\"kind\": \"rt.warn\"") == std::string::npos) continue;
    ++warns;
    const std::string key = "\"addr\": ";
    const size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << line;
    const size_t end = line.find(',', at);
    const std::string addr =
        line.substr(at + key.size(), end - at - key.size());
    EXPECT_FALSE(addr.empty()) << line;
    EXPECT_EQ(addr.find_first_not_of("0123456789"), std::string::npos) << line;
  }
  EXPECT_GT(warns, 0u) << "--seed-bugs recorded no rt.warn event";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepmc
