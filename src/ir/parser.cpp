#include "ir/parser.h"

#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/builder.h"
#include "support/str.h"

namespace deepmc::ir {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer: per-line, since the grammar is line-oriented. Tokens are views
// into the text parse_module was given, which outlives the parse; a
// std::string is built only where the IR keeps a name or an error message
// is composed.
// ---------------------------------------------------------------------------

enum class Tok : uint8_t {
  kIdent,   // bare word: define, store, i64, label, add, ...
  kLocal,   // %name
  kGlobal,  // @name
  kNumber,  // [-]digits
  kString,  // "..."
  kPunct,   // single char: ( ) { } , * [ ] : = !
  kEnd,
};

/// The characters of a bare word after its first (a letter or '_'), and of
/// a %local or @global name.
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '-';
}

struct Token {
  Tok kind = Tok::kEnd;
  std::string_view text;
  int64_t number = 0;
  size_t col = 0;  ///< 1-based column where the token starts
};

class Lexer {
 public:
  Lexer(std::string_view line, size_t lineno) : s_(line), lineno_(lineno) {
    advance();
  }

  [[nodiscard]] const Token& peek() const { return cur_; }
  Token take() {
    Token t = cur_;
    advance();
    return t;
  }
  [[nodiscard]] bool at_end() const { return cur_.kind == Tok::kEnd; }

  Token expect(Tok kind, const char* what) {
    if (cur_.kind != kind) fail(std::string("expected ") + what);
    return take();
  }
  [[nodiscard]] size_t col() const { return tok_col_; }
  void expect_punct(char c) {
    if (cur_.kind != Tok::kPunct || cur_.text[0] != c)
      fail(std::string("expected '") + c + "'");
    take();
  }
  bool accept_punct(char c) {
    if (cur_.kind == Tok::kPunct && cur_.text[0] == c) {
      take();
      return true;
    }
    return false;
  }
  bool accept_ident(std::string_view word) {
    if (cur_.kind == Tok::kIdent && cur_.text == word) {
      take();
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(lineno_, tok_col_,
                     msg + " (near '" + std::string(cur_.text) + "')");
  }
  /// Like fail(), but anchored at an already-consumed token.
  [[noreturn]] void fail_at(const Token& t, const std::string& msg) const {
    throw ParseError(lineno_, t.col,
                     msg + " (near '" + std::string(t.text) + "')");
  }

  [[nodiscard]] size_t lineno() const { return lineno_; }

 private:
  void advance() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
    tok_col_ = pos_ + 1;
    if (pos_ >= s_.size() || s_[pos_] == ';') {
      cur_ = {Tok::kEnd, "", 0, tok_col_};
      return;
    }
    const char c = s_[pos_];
    if (c == '%' || c == '@') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < s_.size() && ident_char(s_[pos_])) ++pos_;
      cur_ = {c == '%' ? Tok::kLocal : Tok::kGlobal,
              s_.substr(start, pos_ - start), 0, tok_col_};
      return;
    }
    if (c == '"') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < s_.size() && s_[pos_] != '"') ++pos_;
      if (pos_ >= s_.size())
        throw ParseError(lineno_, tok_col_, "unterminated string");
      cur_ = {Tok::kString, s_.substr(start, pos_ - start), 0, tok_col_};
      ++pos_;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < s_.size() &&
         std::isdigit(static_cast<unsigned char>(s_[pos_ + 1])))) {
      size_t start = pos_;
      const bool neg = c == '-';
      if (neg) ++pos_;
      // Overflow-checked accumulation: std::stoll would throw out_of_range
      // (not ParseError) on a huge literal, which breaks the never-crash
      // contract of the tolerant parser.
      uint64_t mag = 0;
      const uint64_t cap = neg ? uint64_t{1} << 63 : (uint64_t{1} << 63) - 1;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        const auto d = static_cast<uint64_t>(s_[pos_] - '0');
        if (mag > (cap - d) / 10)
          throw ParseError(lineno_, tok_col_, "integer literal out of range");
        mag = mag * 10 + d;
        ++pos_;
      }
      const auto v = neg ? -static_cast<int64_t>(mag - 1) - 1
                         : static_cast<int64_t>(mag);
      cur_ = {Tok::kNumber, s_.substr(start, pos_ - start), v, tok_col_};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < s_.size() && ident_char(s_[pos_])) ++pos_;
      cur_ = {Tok::kIdent, s_.substr(start, pos_ - start), 0, tok_col_};
      return;
    }
    cur_ = {Tok::kPunct, s_.substr(pos_, 1), 0, tok_col_};
    ++pos_;
  }

  std::string_view s_;
  size_t pos_ = 0;
  size_t tok_col_ = 1;  // 1-based column where cur_ starts
  size_t lineno_;
  Token cur_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  /// Strict mode when `diags` is null (first ParseError propagates);
  /// tolerant mode otherwise (errors are recorded, the line is skipped,
  /// parsing continues until `max_diags` problems have been seen).
  explicit Parser(std::string_view text,
                  std::vector<ParseDiagnostic>* diags = nullptr,
                  size_t max_diags = 0)
      : text_(text),
        lines_(split(text, '\n', /*keep_empty=*/true)),
        diags_(diags),
        max_diags_(max_diags) {}

  std::unique_ptr<Module> run() {
    // Pass 1: module name, structs, and all function signatures.
    scan_header_and_signatures();
    // Pass 2: function bodies.
    parse_bodies();
    return std::move(module_);
  }

 private:
  /// One function body's symbol tables, keyed by views of the source text
  /// (or of argument names the IR owns); both die with the parse.
  using Values = std::unordered_map<std::string_view, Value*>;
  using Blocks = std::unordered_map<std::string_view, BasicBlock*>;

  // --- error recovery --------------------------------------------------------

  /// Runs `fn`; in tolerant mode a ParseError becomes a diagnostic and the
  /// caller moves on, in strict mode it propagates. Returns false once the
  /// diagnostic cap is hit — callers stop feeding the parser more lines.
  template <class Fn>
  bool guarded(Fn&& fn) {
    if (diags_ == nullptr) {
      fn();
      return true;
    }
    if (gave_up_) return false;
    try {
      fn();
    } catch (const ParseError& e) {
      diags_->push_back({e.line(), e.col(), e.message()});
      // At the cap the parse stops; a result with exactly max_diags_
      // diagnostics is therefore possibly truncated.
      if (diags_->size() >= max_diags_) gave_up_ = true;
    }
    return !gave_up_;
  }

  // --- types ---------------------------------------------------------------

  static constexpr int kMaxTypeDepth = 32;
  static constexpr uint32_t kMaxIntBits = 1u << 16;
  static constexpr int64_t kMaxArrayLen = int64_t{1} << 32;

  const Type* parse_type(Lexer& lex, int depth = 0) {
    if (depth > kMaxTypeDepth) lex.fail("type nesting too deep");
    const Type* base = nullptr;
    if (lex.peek().kind == Tok::kIdent) {
      const std::string_view w = lex.peek().text;
      if (w == "void") {
        lex.take();
        base = module_->types().void_type();
      } else if (w == "ptr") {
        lex.take();
        base = module_->types().opaque_ptr();
      } else if (w.size() > 1 && w[0] == 'i') {
        uint64_t bits = 0;
        for (size_t i = 1; i < w.size(); ++i) {
          if (!std::isdigit(static_cast<unsigned char>(w[i])) ||
              bits > kMaxIntBits)
            lex.fail("bad type " + std::string(w));
          bits = bits * 10 + static_cast<uint64_t>(w[i] - '0');
        }
        if (bits == 0 || bits > kMaxIntBits)
          lex.fail("bad type " + std::string(w));
        lex.take();
        base = module_->types().int_type(static_cast<uint32_t>(bits));
      } else {
        lex.fail("unknown type " + std::string(w));
      }
    } else if (lex.peek().kind == Tok::kLocal) {
      const std::string name(lex.take().text);
      const StructType* st = module_->types().find_struct(name);
      if (st) {
        base = st;
      } else {
        // Forward / self reference: degrade to untyped pointer if a '*'
        // follows, else error.
        if (lex.peek().kind == Tok::kPunct && lex.peek().text == "*") {
          lex.take();
          return module_->types().opaque_ptr();
        }
        lex.fail("unknown struct %" + name);
      }
    } else if (lex.peek().kind == Tok::kPunct && lex.peek().text == "[") {
      lex.take();
      Token n = lex.expect(Tok::kNumber, "array length");
      if (n.number < 0 || n.number > kMaxArrayLen)
        lex.fail("array length out of range");
      if (!lex.accept_ident("x")) lex.fail("expected 'x' in array type");
      const Type* elem = parse_type(lex, depth + 1);
      lex.expect_punct(']');
      base = module_->types().array_of(elem, static_cast<uint64_t>(n.number));
    } else {
      lex.fail("expected type");
    }
    int stars = 0;
    while (lex.peek().kind == Tok::kPunct && lex.peek().text == "*") {
      if (++stars > kMaxTypeDepth) lex.fail("pointer nesting too deep");
      lex.take();
      base = module_->types().pointer_to(base);
    }
    return base;
  }

  // --- pass 1 ----------------------------------------------------------------

  /// True when the trimmed, non-empty line `t` starts with a bare word
  /// other than module, struct, define and declare. A Lexer over such a
  /// line lexes just that word, which cannot fail, and pass 1 then does
  /// nothing with the line once the module exists.
  static bool inert_word(std::string_view t) {
    if (!std::isalpha(static_cast<unsigned char>(t[0])) && t[0] != '_')
      return false;
    size_t n = 1;
    while (n < t.size() && ident_char(t[n])) ++n;
    const std::string_view w = t.substr(0, n);
    return w != "module" && w != "struct" && w != "define" && w != "declare";
  }

  void scan_header_and_signatures() {
    std::string mod_name = "module";
    // Find module line + struct lines first (in order), then signatures.
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::string_view t = trim(lines_[i]);
      if (t.empty() || t[0] == ';') continue;
      if (module_ && inert_word(t)) continue;
      const bool keep = guarded([&] {
        Lexer lex(lines_[i], i + 1);
        if (lex.accept_ident("module")) {
          mod_name = lex.expect(Tok::kString, "module name").text;
          if (!module_) module_ = std::make_unique<Module>(mod_name);
          return;
        }
        if (!module_) module_ = std::make_unique<Module>(mod_name);
        if (lex.accept_ident("struct")) {
          parse_struct(lex);
        } else if (lex.peek().kind == Tok::kIdent &&
                   (lex.peek().text == "define" ||
                    lex.peek().text == "declare")) {
          parse_signature(lex, i);
        }
      });
      if (!keep) break;
    }
    if (!module_) module_ = std::make_unique<Module>(mod_name);
  }

  void parse_struct(Lexer& lex) {
    const Token tok = lex.expect(Tok::kLocal, "struct name");
    std::string name(tok.text);
    if (module_->types().find_struct(name))
      lex.fail_at(tok, "duplicate struct %" + name);
    lex.expect_punct('{');
    std::vector<const Type*> fields;
    if (!lex.accept_punct('}')) {
      do {
        fields.push_back(parse_type(lex));
      } while (lex.accept_punct(','));
      lex.expect_punct('}');
    }
    module_->types().create_struct(std::move(name), std::move(fields));
  }

  void parse_signature(Lexer& lex, size_t line_index) {
    const bool is_define = lex.peek().text == "define";
    lex.take();
    const Type* ret = parse_type(lex);
    const Token tok = lex.expect(Tok::kGlobal, "function name");
    std::string name(tok.text);
    if (module_->find_function(name))
      lex.fail_at(tok, "duplicate function @" + name);
    lex.expect_punct('(');
    std::vector<std::pair<std::string, const Type*>> params;
    if (!lex.accept_punct(')')) {
      unsigned anon = 0;
      do {
        const Type* pt = parse_type(lex);
        std::string pname;
        if (lex.peek().kind == Tok::kLocal) pname = lex.take().text;
        else pname = "arg" + std::to_string(anon++);
        params.emplace_back(std::move(pname), pt);
      } while (lex.accept_punct(','));
      lex.expect_punct(')');
    }
    Function* f =
        module_->create_function(std::move(name), ret, std::move(params));
    if (is_define)
      body_start_.emplace_back(f, line_index);
    else
      f->set_source_span(span_of(trim(lines_[line_index]),
                                 code_of(lines_[line_index])));
  }

  /// The span from the start of `first` to the end of `last`, two views
  /// into text_ with `last` ending no earlier than `first` starts.
  SourceSpan span_of(std::string_view first, std::string_view last) const {
    const auto offset = static_cast<size_t>(first.data() - text_.data());
    const auto end = static_cast<size_t>(last.data() + last.size() -
                                         text_.data());
    return {offset, end - offset};
  }

  // --- pass 2 ----------------------------------------------------------------

  void parse_bodies() {
    // Bodies parse in source order, so strict mode reports the first error
    // by line number and tolerant diagnostics come out in a stable order.
    for (auto& [func, start] : body_start_) {
      Function* f = func;
      const size_t s = start;
      if (!guarded([&] { parse_body(f, s); })) break;
    }
  }

  /// A line with its trailing ';' comment removed and trimmed.
  static std::string_view code_of(std::string_view line) {
    if (auto semi = line.find(';'); semi != std::string_view::npos)
      line = line.substr(0, semi);
    return trim(line);
  }

  void parse_body(Function* func, size_t def_line) {
    // Body spans from the line after `define ... {` to the matching `}`.
    size_t first = def_line;
    {
      std::string_view t = code_of(lines_[def_line]);
      if (t.empty() || t.back() != '{')
        throw ParseError(def_line + 1, "expected '{' ending define line");
      first = def_line + 1;
    }
    size_t last = first;
    while (last < lines_.size() && code_of(lines_[last]) != "}") ++last;
    if (last >= lines_.size())
      throw ParseError(def_line + 1, "missing closing '}' for @" + func->name());
    func->set_source_span(
        span_of(trim(lines_[def_line]), code_of(lines_[last])));

    // Collect labels in order, creating blocks.
    Blocks blocks;
    for (size_t i = first; i < last; ++i) {
      std::string_view t = code_of(lines_[i]);
      if (t.empty()) continue;
      if (t.back() == ':' && t.find(' ') == std::string_view::npos) {
        const std::string_view label = t.substr(0, t.size() - 1);
        if (blocks.count(label)) {
          // Recoverable: keep the first definition, report the repeat.
          if (!guarded([&] {
                throw ParseError(i + 1,
                                 "duplicate label " + std::string(label));
              }))
            return;
          continue;
        }
        blocks[label] = func->create_block(std::string(label));
      }
    }
    if (func->blocks().empty()) {
      // Implicit single entry block when no labels were written.
      blocks["entry"] = func->create_block("entry");
    }

    IRBuilder b(*func->parent());
    Values values;
    for (const auto& arg : func->args()) values[arg->name()] = arg.get();

    BasicBlock* cur = func->entry();
    b.set_insert_point(cur);

    // Pending conditional branches that referenced labels before creation
    // are impossible: all blocks exist. Parse instructions; in tolerant
    // mode a bad line is recorded and skipped, and parsing resumes on the
    // next line of the same body.
    for (size_t i = first; i < last; ++i) {
      std::string_view t = code_of(lines_[i]);
      if (t.empty()) continue;
      if (t.back() == ':' && t.find(' ') == std::string_view::npos) {
        auto it = blocks.find(t.substr(0, t.size() - 1));
        if (it == blocks.end()) continue;  // duplicate label already noted
        cur = it->second;
        b.set_insert_point(cur);
        continue;
      }
      const bool keep = guarded([&] {
        Lexer lex(lines_[i], i + 1);
        parse_instruction(lex, b, func, values, blocks);
      });
      if (!keep) return;
    }
  }

  Value* parse_operand(Lexer& lex, IRBuilder& b, Values& values,
                       const Type* type_hint = nullptr) {
    // Optional type prefix for constants: `i64 5`.
    if (lex.peek().kind == Tok::kIdent && lex.peek().text.size() > 1 &&
        lex.peek().text[0] == 'i' &&
        std::isdigit(static_cast<unsigned char>(lex.peek().text[1]))) {
      const Type* t = parse_type(lex);
      Token n = lex.expect(Tok::kNumber, "constant");
      const auto* it = dynamic_cast<const IntType*>(t);
      return b.const_int(n.number, it ? it->bits() : 64);
    }
    if (lex.peek().kind == Tok::kNumber) {
      Token n = lex.take();
      uint32_t bits = 64;
      if (const auto* it = dynamic_cast<const IntType*>(type_hint))
        bits = it->bits();
      return b.const_int(n.number, bits);
    }
    Token v = lex.expect(Tok::kLocal, "value");
    auto it = values.find(v.text);
    if (it == values.end())
      lex.fail_at(v, "undefined value %" + std::string(v.text));
    return it->second;
  }

  static std::optional<BinOpKind> binop_from(std::string_view w) {
    if (w == "add") return BinOpKind::kAdd;
    if (w == "sub") return BinOpKind::kSub;
    if (w == "mul") return BinOpKind::kMul;
    if (w == "div") return BinOpKind::kDiv;
    if (w == "eq") return BinOpKind::kEq;
    if (w == "ne") return BinOpKind::kNe;
    if (w == "lt") return BinOpKind::kLt;
    if (w == "le") return BinOpKind::kLe;
    return std::nullopt;
  }

  void parse_instruction(Lexer& lex, IRBuilder& b, Function* func,
                         Values& values, Blocks& blocks) {
    b.set_loc("", 0);  // cleared; !loc suffix re-sets below via set_loc later
    std::string_view result;
    if (lex.peek().kind == Tok::kLocal) {
      result = lex.take().text;
      lex.expect_punct('=');
    }

    // Pre-scan the !loc suffix is awkward mid-line; instead parse the
    // instruction, then the suffix, then patch the location.
    Instruction* inst = nullptr;

    Token op = lex.expect(Tok::kIdent, "opcode");
    const std::string_view w = op.text;

    if (w == "alloca" || w == "pm.alloc") {
      const Type* t = parse_type(lex);
      std::string name(result);
      inst = (w == "alloca")
                 ? static_cast<Instruction*>(b.alloca_(t, std::move(name)))
                 : static_cast<Instruction*>(b.pm_alloc(t, std::move(name)));
    } else if (w == "pm.free") {
      inst = b.pm_free(parse_operand(lex, b, values));
    } else if (w == "load") {
      inst = b.load(parse_operand(lex, b, values), std::string(result));
    } else if (w == "store") {
      Value* val = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* ptr = parse_operand(lex, b, values);
      inst = b.store(val, ptr);
    } else if (w == "gep") {
      Value* base = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* idx = parse_operand(lex, b, values);
      inst = b.gep_at(base, idx, std::string(result));
    } else if (w == "memset") {
      Value* p = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* byte = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* size = parse_operand(lex, b, values);
      inst = b.memset_(p, byte, size);
    } else if (w == "memcpy") {
      Value* d = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* s = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* size = parse_operand(lex, b, values);
      inst = b.memcpy_(d, s, size);
    } else if (w == "pm.flush" || w == "pm.persist" || w == "tx.add") {
      Value* p = parse_operand(lex, b, values);
      uint64_t size = 0;
      if (lex.accept_punct(',')) {
        Token n = lex.expect(Tok::kNumber, "size");
        size = static_cast<uint64_t>(n.number);
      }
      if (w == "pm.flush") inst = b.flush(p, size);
      else if (w == "pm.persist") inst = b.persist(p, size);
      else inst = b.tx_add(p, size);
    } else if (w == "pm.fence") {
      inst = b.fence();
    } else if (w == "tx.begin" || w == "epoch.begin" || w == "strand.begin") {
      RegionKind k = w[0] == 't' ? RegionKind::kTx
                     : w[0] == 'e' ? RegionKind::kEpoch
                                   : RegionKind::kStrand;
      inst = b.tx_begin(k);
    } else if (w == "tx.end" || w == "epoch.end" || w == "strand.end") {
      RegionKind k = w[0] == 't' ? RegionKind::kTx
                     : w[0] == 'e' ? RegionKind::kEpoch
                                   : RegionKind::kStrand;
      inst = b.tx_end(k);
    } else if (w == "call") {
      const Type* ret = module_->types().void_type();
      if (lex.peek().kind != Tok::kGlobal) ret = parse_type(lex);
      std::string callee(lex.expect(Tok::kGlobal, "callee").text);
      lex.expect_punct('(');
      std::vector<Value*> args;
      if (!lex.accept_punct(')')) {
        do {
          args.push_back(parse_operand(lex, b, values));
        } while (lex.accept_punct(','));
        lex.expect_punct(')');
      }
      // Prefer the declared return type when the callee is known.
      if (Function* cf = module_->find_function(callee))
        ret = cf->return_type();
      inst = b.call_ext(std::move(callee), ret, std::move(args),
                        std::string(result));
    } else if (w == "ret") {
      Value* v = nullptr;
      if (!lex.at_end() && !(lex.peek().kind == Tok::kPunct &&
                             lex.peek().text == "!"))
        v = parse_operand(lex, b, values, func->return_type());
      inst = b.ret(v);
    } else if (w == "br") {
      if (lex.accept_ident("label")) {
        Token t = lex.expect(Tok::kLocal, "target");
        inst = b.br(lookup_block(lex, blocks, t.text));
      } else {
        Value* cond = parse_operand(lex, b, values);
        lex.expect_punct(',');
        if (!lex.accept_ident("label")) lex.fail("expected 'label'");
        Token t1 = lex.expect(Tok::kLocal, "true target");
        lex.expect_punct(',');
        if (!lex.accept_ident("label")) lex.fail("expected 'label'");
        Token t2 = lex.expect(Tok::kLocal, "false target");
        inst = b.cond_br(cond, lookup_block(lex, blocks, t1.text),
                         lookup_block(lex, blocks, t2.text));
      }
    } else if (auto bk = binop_from(w)) {
      Value* lhs = parse_operand(lex, b, values);
      lex.expect_punct(',');
      Value* rhs = parse_operand(lex, b, values, lhs->type());
      inst = b.binop(*bk, lhs, rhs, std::string(result));
    } else if (w == "cast") {
      Value* src = parse_operand(lex, b, values);
      if (!lex.accept_ident("to")) lex.fail("expected 'to'");
      const Type* t = parse_type(lex);
      // `cast %p to T*` — builder's cast() takes the pointee.
      const auto* pt = dynamic_cast<const PointerType*>(t);
      if (!pt) lex.fail("cast target must be a pointer type");
      inst = b.cast(src, pt->pointee(), std::string(result));
    } else {
      lex.fail_at(op, "unknown opcode " + std::string(w));
    }

    // Optional !loc("file", line) suffix.
    if (lex.peek().kind == Tok::kPunct && lex.peek().text == "!") {
      lex.take();
      if (!lex.accept_ident("loc")) lex.fail("expected loc after '!'");
      lex.expect_punct('(');
      Token file = lex.expect(Tok::kString, "file name");
      lex.expect_punct(',');
      Token line = lex.expect(Tok::kNumber, "line number");
      lex.expect_punct(')');
      inst->set_loc(SourceLoc(std::string(file.text),
                              static_cast<uint32_t>(line.number)));
    }

    if (!lex.at_end()) lex.fail("trailing tokens");
    if (!result.empty()) {
      if (values.count(result))
        lex.fail("redefinition of %" + std::string(result));
      values[result] = inst;
    }
  }

  static BasicBlock* lookup_block(Lexer& lex, Blocks& blocks,
                                  std::string_view name) {
    auto it = blocks.find(name);
    if (it == blocks.end()) lex.fail("unknown label %" + std::string(name));
    return it->second;
  }

  std::string_view text_;                ///< the text being parsed
  std::vector<std::string_view> lines_;  ///< views into text_
  std::unique_ptr<Module> module_;
  std::vector<std::pair<Function*, size_t>> body_start_;
  std::vector<ParseDiagnostic>* diags_ = nullptr;  // null = strict mode
  size_t max_diags_ = 0;
  bool gave_up_ = false;
};

}  // namespace

std::string ParseDiagnostic::str() const {
  std::string s = "line " + std::to_string(line);
  if (col > 0) s += ":" + std::to_string(col);
  return s + ": " + message;
}

std::unique_ptr<Module> parse_module(std::string_view text) {
  return Parser(text).run();
}

TolerantParseResult parse_module_tolerant(std::string_view text,
                                          size_t max_diagnostics) {
  TolerantParseResult r;
  if (max_diagnostics == 0) max_diagnostics = 1;
  r.module = Parser(text, &r.diagnostics, max_diagnostics).run();
  return r;
}

}  // namespace deepmc::ir
