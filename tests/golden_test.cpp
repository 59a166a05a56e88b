// Golden-output regression tests: run the real `deepmc` binary over every
// examples/mir/*.mir file and every built-in corpus module, and compare
// its stdout byte-for-byte against checked-in golden files under
// tests/golden/.
//
// Regenerating after an intentional output change:
//
//   UPDATE_GOLDEN=1 ctest --test-dir build -R Golden
//
// rewrites the golden files in the source tree; review the diff and
// commit them with the change that caused it.
//
// The binary and source-tree locations come from compile definitions set
// in tests/CMakeLists.txt (DEEPMC_BIN, DEEPMC_SOURCE_DIR). Every case runs
// with the source tree as its working directory and names example files
// by their relative examples/mir/... path, so the report headers (and the
// goldens) do not depend on where the checkout lives.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.h"

namespace deepmc {
namespace {

namespace fs = std::filesystem;

struct GoldenCase {
  std::string id;    ///< test-name-safe identifier
  std::string args;  ///< arguments after the binary path
};

// gtest otherwise prints a parameter as a raw byte dump, which starts with
// heap pointers and so makes every registered test name differ run to run.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.id; }

std::string golden_dir() {
  return std::string(DEEPMC_SOURCE_DIR) + "/tests/golden";
}

std::string golden_path(const std::string& id) {
  return golden_dir() + "/" + id + ".golden";
}

bool update_golden() {
  const char* env = std::getenv("UPDATE_GOLDEN");
  return env && *env && std::string(env) != "0";
}

/// Run `cmd`, capture stdout, return (output, exit code). Stderr is
/// discarded: golden files cover the report stream only.
std::pair<std::string, int> run_command(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
  if (!pipe) return {"", -1};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  return {out, WIFEXITED(status) ? WEXITSTATUS(status) : -1};
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

std::string sanitize(std::string s) {
  for (char& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return s;
}

/// The model flag each example file documents in its header comment;
/// default -strict like the CLI.
std::string model_flag_for(const std::string& filename) {
  if (filename.find("epoch") != std::string::npos) return "-epoch";
  if (filename.find("strand") != std::string::npos) return "-strand";
  return "-strict";
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  // Every examples/mir file...
  const fs::path mir_dir = fs::path("examples") / "mir";
  std::vector<fs::path> mir_files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(DEEPMC_SOURCE_DIR) / mir_dir))
    if (entry.path().extension() == ".mir")
      mir_files.push_back(mir_dir / entry.path().filename());
  std::sort(mir_files.begin(), mir_files.end());
  for (const fs::path& p : mir_files) {
    GoldenCase c;
    c.id = "mir_" + sanitize(p.stem().string());
    c.args = model_flag_for(p.filename().string()) + " \"" + p.string() + "\"";
    cases.push_back(c);
  }
  // ... and every corpus module (framework model chosen automatically).
  for (const std::string& name : corpus::module_names()) {
    GoldenCase c;
    c.id = "corpus_" + sanitize(name);
    c.args = "--corpus " + name;
    cases.push_back(c);
  }
  // Crash-state enumeration output (--crashsim): one example file and one
  // corpus module per framework pin the validation annotations.
  {
    GoldenCase c;
    c.id = "crashsim_mir_crash_enum";
    c.args = "-strict --crashsim \"" +
             (mir_dir / "crash_enum.mir").string() + "\"";
    cases.push_back(c);
  }
  for (const std::string& name :
       {std::string("pmdk/btree_map"), std::string("nvmdirect/nvm_region"),
        std::string("pmfs/symlink"), std::string("mnemosyne/phlog_base")}) {
    GoldenCase c;
    c.id = "crashsim_corpus_" + sanitize(name);
    c.args = "--crashsim --corpus " + name;
    cases.push_back(c);
  }
  // Dynamic-checker output (--dynamic): the two corpus modules whose run
  // reports runtime findings, and the strand-race example, the one input
  // whose dynamic run reports WAW/RAW races.
  for (const std::string& name : {std::string("pmdk/hashmap_atomic"),
                                  std::string("pmdk/obj_pmemlog_simple")}) {
    GoldenCase c;
    c.id = "dynamic_corpus_" + sanitize(name);
    c.args = "--dynamic --corpus " + name;
    cases.push_back(c);
  }
  {
    GoldenCase c;
    c.id = "dynamic_mir_strand_race";
    c.args = "--dynamic -strand \"" +
             (mir_dir / "strand_race.mir").string() + "\"";
    cases.push_back(c);
  }
  return cases;
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, MatchesCheckedInOutput) {
  const GoldenCase& c = GetParam();
  const std::string cmd = std::string("cd \"") + DEEPMC_SOURCE_DIR +
                          "\" && \"" + DEEPMC_BIN + "\" " + c.args;
  auto [output, exit_code] = run_command(cmd);
  ASSERT_GE(exit_code, 0) << "failed to run: " << cmd;
  // Usage/IO errors (64/65) must never happen for checked-in inputs.
  EXPECT_LT(exit_code, 64) << "deepmc reported an error for " << cmd;
  ASSERT_FALSE(output.empty()) << "no output from: " << cmd;

  const std::string path = golden_path(c.id);
  if (update_golden()) {
    fs::create_directories(golden_dir());
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << output;
    return;
  }
  ASSERT_TRUE(fs::exists(path))
      << "missing golden file " << path
      << " — regenerate with UPDATE_GOLDEN=1 ctest -R Golden";
  EXPECT_EQ(read_file(path), output)
      << "output of `" << cmd << "` diverged from " << path
      << "\nIf the change is intentional, regenerate with UPDATE_GOLDEN=1.";
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return info.param.id;
}

INSTANTIATE_TEST_SUITE_P(Outputs, Golden, ::testing::ValuesIn(golden_cases()),
                         case_name);

/// Every corpus module and every example file must have a golden case —
/// guards against the enumeration silently shrinking.
TEST(GoldenCoverage, CoversEveryExampleAndCorpusModule) {
  const auto cases = golden_cases();
  size_t mir = 0, corpus_count = 0;
  for (const auto& c : cases) {
    if (c.id.rfind("mir_", 0) == 0) ++mir;
    if (c.id.rfind("corpus_", 0) == 0) ++corpus_count;
  }
  size_t mir_on_disk = 0;
  for (const auto& entry : fs::directory_iterator(
           fs::path(DEEPMC_SOURCE_DIR) / "examples" / "mir"))
    if (entry.path().extension() == ".mir") ++mir_on_disk;
  EXPECT_EQ(mir, mir_on_disk);
  EXPECT_GT(mir, 0u);
  EXPECT_EQ(corpus_count, corpus::module_names().size());
}

}  // namespace
}  // namespace deepmc
