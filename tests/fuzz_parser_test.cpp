// Parser-hardening tests over the hostile corpus in tests/fuzz/.
//
// The contract pinned here:
//   * neither parse_module nor parse_module_tolerant ever escapes with
//     anything but ParseError (strict) / no exception at all (tolerant),
//     no matter how malformed the input;
//   * tolerant diagnostics are stable: two parses of the same text agree
//     byte-for-byte on (line, col, message);
//   * strict mode's first error is tolerant mode's first diagnostic;
//   * recovery is per line — errors early in a module do not hide the
//     valid functions (or further errors) after them;
//   * the parser's whole output over the corpus (tolerant diagnostics, the
//     module they leave behind, the strict first error) matches
//     tests/golden/fuzz_parser.golden byte for byte.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace deepmc::ir {
namespace {

namespace fs = std::filesystem;

std::string fuzz_dir() {
  return std::string(DEEPMC_SOURCE_DIR) + "/tests/fuzz";
}

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(fuzz_dir()))
    if (e.path().extension() == ".mir") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(FuzzParser, CorpusExists) {
  // The corpus is meant to grow with every parser bug; keep it honest.
  EXPECT_GE(corpus_files().size(), 20u);
}

TEST(FuzzParser, TolerantNeverThrows) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const std::string text = read_file(path);
    EXPECT_NO_THROW({
      TolerantParseResult r = parse_module_tolerant(text);
      EXPECT_NE(r.module, nullptr);
    });
  }
}

TEST(FuzzParser, StrictThrowsOnlyParseError) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const std::string text = read_file(path);
    try {
      (void)parse_module(text);
    } catch (const ParseError&) {
      // expected for the malformed files
    } catch (...) {
      FAIL() << "non-ParseError escaped parse_module for " << path;
    }
  }
}

TEST(FuzzParser, DiagnosticsAreStable) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const std::string text = read_file(path);
    const TolerantParseResult a = parse_module_tolerant(text);
    const TolerantParseResult b = parse_module_tolerant(text);
    ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
    for (size_t i = 0; i < a.diagnostics.size(); ++i) {
      EXPECT_EQ(a.diagnostics[i].line, b.diagnostics[i].line);
      EXPECT_EQ(a.diagnostics[i].col, b.diagnostics[i].col);
      EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
    }
  }
}

TEST(FuzzParser, StrictFirstErrorMatchesFirstDiagnostic) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const std::string text = read_file(path);
    const TolerantParseResult r = parse_module_tolerant(text);
    if (r.ok()) {
      EXPECT_NO_THROW((void)parse_module(text));
      continue;
    }
    try {
      (void)parse_module(text);
      FAIL() << "strict parse succeeded where tolerant found "
             << r.diagnostics.size() << " problem(s)";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), r.diagnostics[0].line);
      EXPECT_EQ(e.col(), r.diagnostics[0].col);
      EXPECT_EQ(e.message(), r.diagnostics[0].message);
    }
  }
}

// Regenerate after an intentional parser change with
//   UPDATE_GOLDEN=1 ctest --test-dir build -R FuzzParser.OutputMatchesGolden
// and review the diff of tests/golden/fuzz_parser.golden.
TEST(FuzzParser, OutputMatchesGolden) {
  std::ostringstream out;
  for (const std::string& path : corpus_files()) {
    const std::string text = read_file(path);
    out << "== " << fs::path(path).filename().string() << "\n";
    const TolerantParseResult r = parse_module_tolerant(text);
    for (const ParseDiagnostic& d : r.diagnostics) out << d.str() << "\n";
    print_module(*r.module, out);
    try {
      (void)parse_module(text);
      out << "strict ok\n";
    } catch (const ParseError& e) {
      out << "strict: " << e.what() << "\n";
    }
  }

  const std::string golden =
      std::string(DEEPMC_SOURCE_DIR) + "/tests/golden/fuzz_parser.golden";
  const char* env = std::getenv("UPDATE_GOLDEN");
  if (env && *env && std::string(env) != "0") {
    std::ofstream f(golden, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << golden;
    f << out.str();
    return;
  }
  ASSERT_TRUE(fs::exists(golden)) << "missing " << golden;
  EXPECT_EQ(read_file(golden), out.str())
      << "parser output diverged from " << golden
      << "\nIf the change is intentional, regenerate with UPDATE_GOLDEN=1.";
}

TEST(FuzzParser, MultiErrorRecoversPastEachLine) {
  const TolerantParseResult r =
      parse_module_tolerant(read_file(fuzz_dir() + "/multi-error.mir"));
  // One bad struct field + three bad instruction lines.
  EXPECT_GE(r.diagnostics.size(), 3u);
  ASSERT_NE(r.module, nullptr);
  // The valid function after the broken one still parsed.
  EXPECT_NE(r.module->find_function("good"), nullptr);
  for (const ParseDiagnostic& d : r.diagnostics) {
    EXPECT_GT(d.line, 0u);
    EXPECT_FALSE(d.message.empty());
  }
}

TEST(FuzzParser, DiagnosticCarriesColumn) {
  const TolerantParseResult r = parse_module_tolerant(
      "module \"m\"\n"
      "define void @f() {\n"
      "entry:\n"
      "  frobnicate\n"
      "  ret\n"
      "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].line, 4u);
  EXPECT_EQ(r.diagnostics[0].col, 3u);  // "frobnicate" starts at column 3
  EXPECT_NE(r.diagnostics[0].message.find("unknown opcode"), std::string::npos);
  EXPECT_EQ(r.diagnostics[0].str(), "line 4:3: " + r.diagnostics[0].message);
}

TEST(FuzzParser, MaxDiagnosticsCapsTheParse) {
  const std::string text = read_file(fuzz_dir() + "/multi-error.mir");
  const TolerantParseResult full = parse_module_tolerant(text);
  ASSERT_GE(full.diagnostics.size(), 2u);
  const TolerantParseResult capped = parse_module_tolerant(text, 2);
  EXPECT_EQ(capped.diagnostics.size(), 2u);
  for (size_t i = 0; i < capped.diagnostics.size(); ++i)
    EXPECT_EQ(capped.diagnostics[i].message, full.diagnostics[i].message);
}

TEST(FuzzParser, ValidControlFileIsClean) {
  const TolerantParseResult r =
      parse_module_tolerant(read_file(fuzz_dir() + "/valid.mir"));
  EXPECT_TRUE(r.ok());
  ASSERT_NE(r.module, nullptr);
  EXPECT_NE(r.module->find_function("set"), nullptr);
}

TEST(FuzzParser, BoundaryIntegersParse) {
  const TolerantParseResult r =
      parse_module_tolerant(read_file(fuzz_dir() + "/boundary-int.mir"));
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.diagnostics[0].str());
}

// --- generator-produced mutants -------------------------------------------
//
// tests/fuzz/gen-mutated-*.mir are committed outputs of `deepmc-corpus gen
// --mutate` and ride through every corpus-driven test above. These tests
// additionally sweep fresh generator mutants in-process, so the tolerant
// parser is exercised against the *current* generator grammar, not just
// the snapshot in the corpus.

TEST(FuzzParser, GeneratedMutantsNeverCrashTolerantParser) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    gen::GenOptions opts;
    opts.seed = seed;
    const gen::GeneratedProgram prog = gen::generate_program(opts);
    for (size_t tokens = 1; tokens <= 5; ++tokens) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " tokens " +
                   std::to_string(tokens));
      const std::string mutated =
          gen::mutate_text(prog.text, seed * 31 + tokens, tokens);
      EXPECT_NO_THROW({
        TolerantParseResult r = parse_module_tolerant(mutated);
        EXPECT_NE(r.module, nullptr);
      });
    }
  }
}

TEST(FuzzParser, GeneratedMutantDiagnosticsAreStable) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    gen::GenOptions opts;
    opts.seed = seed;
    const gen::GeneratedProgram prog = gen::generate_program(opts);
    const std::string mutated = gen::mutate_text(prog.text, seed + 1, 4);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TolerantParseResult a = parse_module_tolerant(mutated);
    const TolerantParseResult b = parse_module_tolerant(mutated);
    ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
    for (size_t i = 0; i < a.diagnostics.size(); ++i) {
      EXPECT_EQ(a.diagnostics[i].line, b.diagnostics[i].line);
      EXPECT_EQ(a.diagnostics[i].col, b.diagnostics[i].col);
      EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
    }
  }
}

TEST(FuzzParser, MutationIsDeterministic) {
  gen::GenOptions opts;
  opts.seed = 7;
  const gen::GeneratedProgram prog = gen::generate_program(opts);
  EXPECT_EQ(gen::mutate_text(prog.text, 42, 3),
            gen::mutate_text(prog.text, 42, 3));
  // A different mutation seed corrupts differently.
  EXPECT_NE(gen::mutate_text(prog.text, 42, 3),
            gen::mutate_text(prog.text, 43, 3));
}

TEST(FuzzParser, CommittedGeneratorMutantsPresent) {
  size_t found = 0;
  for (const std::string& path : corpus_files())
    if (path.find("gen-mutated-") != std::string::npos) ++found;
  EXPECT_GE(found, 12u);
}

TEST(FuzzParser, OverflowingIntegerIsAnError) {
  const TolerantParseResult r = parse_module_tolerant(
      "define void @f() {\n"
      "entry:\n"
      "  %x = add i64 18446744073709551617, 1\n"
      "  ret\n"
      "}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diagnostics[0].message.find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace deepmc::ir
