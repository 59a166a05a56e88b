// CLI contract tests for the deepmc binary: exit-code partitioning
// (warning counts vs usage vs input errors), --jobs determinism at the
// process level, --format json output, and `deepmc serve` rejecting bad
// numeric flags and unknown flags before it binds. Also bench_gates' usage
// errors, which must exit 64 before any measurement starts.
//
// Exit codes under test (see src/tools/deepmc.cpp):
//   0      clean, 1..63 warning count (capped), 64 usage, 65 input error.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

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

}  // namespace
}  // namespace deepmc
