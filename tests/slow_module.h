// A MIR module the serve tests analyze under a deadline. Included by
// serve_test and cli_test, which send it through a daemon and through
// `deepmc serve --stdin`.
#pragma once

#include <sstream>
#include <string>

namespace deepmc {

/// Diamond-heavy module: 4 roots, each a chain of 40 diamonds, so each
/// root walks the 256-path cap over ~124-event paths. One root alone
/// takes about 2 ms, so a 1 ms deadline fires mid-analysis however many
/// threads check the roots at once (with 10 diamonds a root took ~0.5 ms
/// and a run on an idle 4-thread machine could finish inside 1 ms).
inline std::string slow_module_text() {
  std::ostringstream os;
  os << "module \"slowmod\"\nstruct %rec { i64, i64 }\n\n";
  for (size_t n = 0; n < 4; ++n) {
    os << "define void @root" << n << "() {\nentry:\n"
       << "  %r = pm.alloc %rec\n  %f = gep %r, 0\n"
       << "  store i64 " << (n + 1) << ", %f !loc(\"slow.c\", 1)\n"
       << "  br label %d0\n";
    for (size_t d = 0; d < 40; ++d) {
      os << "d" << d << ":\n"
         << "  %v" << d << " = load %f\n"
         << "  %c" << d << " = lt %v" << d << ", 5\n"
         << "  br %c" << d << ", label %d" << d << "a, label %d" << d << "b\n"
         << "d" << d << "a:\n"
         << "  store i64 " << (d + 2) << ", %f !loc(\"slow.c\", "
         << (100 * n + 2 * d + 2) << ")\n"
         << "  pm.flush %f, 8\n  br label %d" << d << "e\n"
         << "d" << d << "b:\n"
         << "  store i64 " << (d + 3) << ", %f !loc(\"slow.c\", "
         << (100 * n + 2 * d + 3) << ")\n"
         << "  pm.flush %f, 8\n  br label %d" << d << "e\n"
         << "d" << d << "e:\n";
      os << (d + 1 < 40 ? "  br label %d" + std::to_string(d + 1) + "\n"
                        : std::string("  br label %done\n"));
    }
    os << "done:\n  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  }
  return os.str();
}

}  // namespace deepmc
