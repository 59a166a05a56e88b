// Unit tests for MIR: type layout, builder, parser, printer round-trip,
// and the verifier.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace deepmc::ir {
namespace {

// --- types -----------------------------------------------------------------

TEST(TypeTest, IntSizes) {
  TypeContext ctx;
  EXPECT_EQ(ctx.i1()->size(), 1u);
  EXPECT_EQ(ctx.i8()->size(), 1u);
  EXPECT_EQ(ctx.int_type(16)->size(), 2u);
  EXPECT_EQ(ctx.i32()->size(), 4u);
  EXPECT_EQ(ctx.i64()->size(), 8u);
}

TEST(TypeTest, InterningIsByIdentity) {
  TypeContext ctx;
  EXPECT_EQ(ctx.i64(), ctx.i64());
  EXPECT_EQ(ctx.pointer_to(ctx.i64()), ctx.pointer_to(ctx.i64()));
  EXPECT_EQ(ctx.array_of(ctx.i8(), 16), ctx.array_of(ctx.i8(), 16));
  EXPECT_NE(ctx.array_of(ctx.i8(), 16), ctx.array_of(ctx.i8(), 17));
}

TEST(TypeTest, StructLayoutNaturalAlignment) {
  TypeContext ctx;
  // { i8, i64, i32 } -> offsets 0, 8, 16; size 24 (aligned to 8).
  const StructType* st = ctx.create_struct(
      "s", {ctx.i8(), ctx.i64(), ctx.i32()});
  EXPECT_EQ(st->field_offset(0), 0u);
  EXPECT_EQ(st->field_offset(1), 8u);
  EXPECT_EQ(st->field_offset(2), 16u);
  EXPECT_EQ(st->size(), 24u);
  EXPECT_EQ(st->alignment(), 8u);
}

TEST(TypeTest, FieldAtOffset) {
  TypeContext ctx;
  const StructType* st = ctx.create_struct(
      "s2", {ctx.i64(), ctx.i64(), ctx.array_of(ctx.i8(), 16)});
  EXPECT_EQ(st->field_at_offset(0), 0u);
  EXPECT_EQ(st->field_at_offset(7), 0u);
  EXPECT_EQ(st->field_at_offset(8), 1u);
  EXPECT_EQ(st->field_at_offset(16), 2u);
  EXPECT_EQ(st->field_at_offset(31), 2u);
  EXPECT_EQ(st->field_at_offset(32), StructType::npos);
}

TEST(TypeTest, DuplicateStructNameThrows) {
  TypeContext ctx;
  ctx.create_struct("dup", {});
  EXPECT_THROW(ctx.create_struct("dup", {}), std::invalid_argument);
}

TEST(TypeTest, ArrayLayout) {
  TypeContext ctx;
  const ArrayType* at = ctx.array_of(ctx.i32(), 10);
  EXPECT_EQ(at->size(), 40u);
  EXPECT_EQ(at->alignment(), 4u);
}

// --- builder -----------------------------------------------------------------

TEST(BuilderTest, BuildsWellFormedFunction) {
  Module m("t");
  IRBuilder b(m);
  const StructType* node =
      m.types().create_struct("node", {m.types().i64(), m.types().i64()});
  b.begin_function("f", m.types().void_type(), {});
  auto* n = b.pm_alloc(node, "n");
  auto* f0 = b.gep(n, 0, "f0");
  b.store(5, f0);
  b.flush(f0);
  b.fence();
  b.ret();
  EXPECT_TRUE(verify_module(m).empty());
  EXPECT_EQ(m.find_function("f")->entry()->size(), 6u);
}

TEST(BuilderTest, GepTypesPropagate) {
  Module m("t");
  IRBuilder b(m);
  const StructType* node = m.types().create_struct(
      "node", {m.types().i64(), m.types().array_of(m.types().i32(), 4)});
  b.begin_function("f", m.types().void_type(), {});
  auto* n = b.pm_alloc(node, "n");
  auto* f0 = b.gep(n, 0, "f0");
  auto* f1 = b.gep(n, 1, "f1");
  auto* e = b.gep_at(f1, b.const_int(2), "e");
  EXPECT_EQ(f0->type()->str(), "i64*");
  EXPECT_EQ(f1->type()->str(), "[4 x i32]*");
  EXPECT_EQ(e->type()->str(), "i32*");
  b.ret();
}

TEST(BuilderTest, FlushSizeDefaultsToPointeeSize) {
  Module m("t");
  IRBuilder b(m);
  const StructType* big =
      m.types().create_struct("big", {m.types().array_of(m.types().i64(), 8)});
  b.begin_function("f", m.types().void_type(), {});
  auto* n = b.pm_alloc(big, "n");
  auto* fl = b.flush(n);
  auto* sz = dynamic_cast<Constant*>(fl->size());
  ASSERT_NE(sz, nullptr);
  EXPECT_EQ(sz->value(), 64);
  b.ret();
}

TEST(BuilderTest, LocStampedOnInstructions) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("f", m.types().void_type(), {});
  b.set_loc("btree_map.c", 201);
  auto* fence = b.fence();
  EXPECT_EQ(fence->loc().file, "btree_map.c");
  EXPECT_EQ(fence->loc().line, 201u);
  b.ret();
}

// --- verifier ------------------------------------------------------------------

TEST(VerifierTest, MissingTerminatorFlagged) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("f", m.types().void_type(), {});
  b.fence();  // no ret
  auto issues = verify_module(m);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("terminator"), std::string::npos);
}

TEST(VerifierTest, RetWithValueInVoidFunction) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("f", m.types().void_type(), {});
  b.ret(b.const_int(1));
  auto issues = verify_module(m);
  ASSERT_FALSE(issues.empty());
}

TEST(VerifierTest, GepIndexOutOfRange) {
  Module m("t");
  IRBuilder b(m);
  const StructType* two =
      m.types().create_struct("two", {m.types().i64(), m.types().i64()});
  b.begin_function("f", m.types().void_type(), {});
  auto* n = b.pm_alloc(two, "n");
  b.gep(n, 5, "bad");
  b.ret();
  auto issues = verify_module(m);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("out of range"), std::string::npos);
}

TEST(VerifierTest, CallArityChecked) {
  Module m("t");
  IRBuilder b(m);
  Function* callee =
      m.create_function("callee", m.types().void_type(),
                        {{"a", m.types().i64()}, {"b", m.types().i64()}});
  {
    IRBuilder cb(m);
    cb.set_insert_point(callee->create_block("entry"));
    cb.ret();
  }
  b.begin_function("caller", m.types().void_type(), {});
  b.call(callee, {b.const_int(1)});  // one arg, expects two
  b.ret();
  auto issues = verify_module(m);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("args"), std::string::npos);
}

TEST(VerifierTest, VerifyOrThrowThrows) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("f", m.types().void_type(), {});
  b.fence();
  EXPECT_THROW(verify_or_throw(m), std::runtime_error);
}

// --- parser --------------------------------------------------------------------

constexpr const char* kProgram = R"(
module "demo"

struct %node { i64, i64, [4 x i64] }

declare void @ext(%node*)

define void @init(%node* %n, i64 %v) {
entry:
  %f0 = gep %n, 0 !loc("demo.c", 10)
  store %v, %f0
  pm.flush %f0, 8
  pm.fence
  %c = eq %v, 0
  br %c, label %skip, label %more
more:
  %f1 = gep %n, 1
  store i64 7, %f1
  pm.persist %f1, 8
  br label %skip
skip:
  call @ext(%n)
  ret
}

define i64 @make() {
entry:
  %n = pm.alloc %node
  tx.begin
  tx.add %n, 32
  %f0 = gep %n, 0
  store i64 1, %f0
  tx.end
  %v = load %f0
  ret %v
}
)";

TEST(ParserTest, ParsesProgram) {
  auto m = parse_module(kProgram);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->name(), "demo");
  ASSERT_NE(m->find_function("init"), nullptr);
  ASSERT_NE(m->find_function("make"), nullptr);
  ASSERT_NE(m->find_function("ext"), nullptr);
  EXPECT_TRUE(m->find_function("ext")->is_declaration());
  EXPECT_TRUE(verify_module(*m).empty());

  const Function* init = m->find_function("init");
  EXPECT_EQ(init->blocks().size(), 3u);
  EXPECT_EQ(init->arg_count(), 2u);

  // !loc metadata survives.
  const Instruction* gep = init->entry()->instructions()[0].get();
  EXPECT_EQ(gep->loc().file, "demo.c");
  EXPECT_EQ(gep->loc().line, 10u);
}

TEST(ParserTest, StructLayoutFromText) {
  auto m = parse_module(kProgram);
  const StructType* node = m->types().find_struct("node");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->field_count(), 3u);
  EXPECT_EQ(node->size(), 48u);
}

TEST(ParserTest, RoundTripThroughPrinter) {
  auto m1 = parse_module(kProgram);
  std::string text1 = to_string(*m1);
  auto m2 = parse_module(text1);
  std::string text2 = to_string(*m2);
  EXPECT_EQ(text1, text2);
}

TEST(ParserTest, SelfReferentialStructDegradesToPtr) {
  auto m = parse_module(R"(
struct %list { i64, %list* }
define void @f() {
entry:
  ret
}
)");
  const StructType* list = m->types().find_struct("list");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->field(1)->str(), "ptr");
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  try {
    parse_module(R"(
define void @f() {
entry:
  store i64 1, %undefined
  ret
}
)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("undefined"), std::string::npos);
  }
}

TEST(ParserTest, UnknownOpcodeRejected) {
  EXPECT_THROW(parse_module(R"(
define void @f() {
entry:
  frobnicate %x
  ret
}
)"),
               ParseError);
}

TEST(ParserTest, MissingCloseBraceRejected) {
  EXPECT_THROW(parse_module("define void @f() {\nentry:\n  ret\n"),
               ParseError);
}

TEST(ParserTest, DuplicateLabelRejected) {
  EXPECT_THROW(parse_module(R"(
define void @f() {
a:
  br label %a
a:
  ret
}
)"),
               ParseError);
}

TEST(ParserTest, CastParses) {
  auto m = parse_module(R"(
struct %mutex { i64, i64 }
define void @f(ptr %om) {
entry:
  %m = cast %om to %mutex*
  %f0 = gep %m, 0
  store i64 1, %f0
  ret
}
)");
  EXPECT_TRUE(verify_module(*m).empty());
  const Function* f = m->find_function("f");
  const Instruction* cast = f->entry()->instructions()[0].get();
  EXPECT_EQ(cast->type()->str(), "%mutex*");
}

TEST(ParserTest, RegionMarkersParse) {
  auto m = parse_module(R"(
define void @f() {
entry:
  epoch.begin
  epoch.end
  strand.begin
  strand.end
  tx.begin
  tx.end
  ret
}
)");
  const auto& insts = m->find_function("f")->entry()->instructions();
  EXPECT_EQ(static_cast<const TxBeginInst*>(insts[0].get())->region_kind(),
            RegionKind::kEpoch);
  EXPECT_EQ(static_cast<const TxBeginInst*>(insts[2].get())->region_kind(),
            RegionKind::kStrand);
  EXPECT_EQ(static_cast<const TxBeginInst*>(insts[4].get())->region_kind(),
            RegionKind::kTx);
}

/// The text `f`'s source span covers in `text`.
std::string span_text(std::string_view text, const Function& f) {
  const std::optional<SourceSpan>& span = f.source_span();
  if (!span) return "<no span>";
  return std::string(text.substr(span->offset, span->size));
}

TEST(ParserTest, FunctionSpansAreTheirDefineThroughBraceOrDeclareText) {
  for (const std::string eol : {"\n", "\r\n"}) {
    SCOPED_TRACE(eol == "\n" ? "LF" : "CRLF");
    const std::string f = "define i64 @f(i64 %x) {  ; the body follows" +
                          eol + "entry:" + eol + "  ; a comment line" + eol +
                          "  %y = add %x, 1 ; bump" + eol + "  ret %y" + eol +
                          "}";
    const std::string g = "define void @g() {" + eol + "  %r = call @f(1)" +
                          eol + "  call @ext(%r)" + eol + "  ret" + eol + "}";
    const std::string text =
        "module \"spans\"" + eol + "; header" + eol +
        "  declare void @ext(i64)   ; external" + eol + "\t" + f +
        " ; end of f" + eol + eol + "declare i64 @bare()" + eol + g;
    const auto m = parse_module(text);
    EXPECT_EQ(span_text(text, *m->find_function("ext")),
              "declare void @ext(i64)");
    EXPECT_EQ(span_text(text, *m->find_function("bare")),
              "declare i64 @bare()");
    EXPECT_EQ(span_text(text, *m->find_function("f")), f);
    EXPECT_EQ(span_text(text, *m->find_function("g")), g);
  }

  // A function the parser did not make has no span.
  Module m("built");
  IRBuilder b(m);
  b.begin_function("h", m.types().void_type(), {});
  b.ret();
  EXPECT_FALSE(m.find_function("h")->source_span().has_value());
}

TEST(ParserTest, FirstPassSkipsBodyWordsButStillReportsTheirLexErrors) {
  // Body lines led by a word never reach pass 1's lexer; lines led by a
  // digit or a quote still do, so their lexing errors keep their line.
  const auto m = parse_module(R"(module "words"
define void @f() {
entry:
  ret
}
declare void @d()
)");
  EXPECT_EQ(m->name(), "words");
  EXPECT_NE(m->find_function("d"), nullptr);
  for (const char* bad : {"  \"open", "  99999999999999999999 x"}) {
    SCOPED_TRACE(bad);
    const std::string text = std::string("module \"m\"\ndefine void @f() {\n") +
                             bad + "\n  ret\n}\n";
    try {
      parse_module(text);
      ADD_FAILURE() << "parsed";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3u);
    }
  }
}

// Round-trip property over a family of generated straight-line programs.
class RoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripProperty, PrintParsePrintIsStable) {
  const int variant = GetParam();
  Module m("gen");
  IRBuilder b(m);
  const StructType* st = m.types().create_struct(
      "obj", {m.types().i64(), m.types().i64(), m.types().i64()});
  b.begin_function("f", m.types().void_type(), {});
  auto* o = b.pm_alloc(st, "o");
  for (int i = 0; i < 3; ++i) {
    auto* fp = b.gep(o, (variant >> i) % 3, "p" + std::to_string(i));
    b.store(i, fp);
    if (variant & (1 << (i + 3))) b.flush(fp);
    if (variant & (1 << (i + 6))) b.fence();
  }
  b.ret();
  ASSERT_TRUE(verify_module(m).empty());

  std::string t1 = to_string(m);
  auto reparsed = parse_module(t1);
  EXPECT_EQ(to_string(*reparsed), t1) << "variant=" << variant;
}

INSTANTIATE_TEST_SUITE_P(Variants, RoundTripProperty,
                         ::testing::Range(0, 512, 7));

}  // namespace
}  // namespace deepmc::ir
