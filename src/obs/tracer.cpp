#include "obs/tracer.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/metrics.h"
#include "support/str.h"

namespace deepmc::obs {

Recorder& tracer() {
  static Recorder* t = new Recorder();  // leaked; see flight.h
  return *t;
}

void Recorder::write_trace(std::ostream& os) const {
  std::vector<Event> spans = events();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"deepmc\"}}";
  for (const auto& [tid, name] : thread_labels()) {
    out += ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": ";
    out += std::to_string(tid);
    out += ", \"name\": \"thread_name\", \"args\": {\"name\": ";
    json_quote_append(out, name);
    out += "}}";
  }
  os << out;
  for (const Event& e : spans) {
    out.assign(",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": ");
    out += std::to_string(e.tid);
    out += ", \"ts\": ";
    append_fixed3(out, e.ts_us);
    out += ", \"dur\": ";
    append_fixed3(out, e.dur_us);
    out += ", \"name\": ";
    json_quote_append(out, e.name);
    out += ", \"cat\": ";
    json_quote_append(out, e.cat);
    if (!e.args.empty()) {
      out += ", \"args\": ";
      e.args.append_json(out);
    }
    out += "}";
    os << out;
  }
  os << "\n]}\n";
}

bool Recorder::write_trace_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  write_trace(f);
  return f.good();
}

void Span::open(std::span<const Arg> args) {
  Recorder& t = tracer();
  if (!t.armed()) return;
  if (!args.empty()) args_.emplace().assign(args);
  start_ = t.now_us();
}

Span::~Span() {
  if (start_ < 0) return;
  Recorder& t = tracer();
  if (!t.armed()) return;
  const double dur = t.now_us() - start_;
  if (args_)
    t.record(name_, cat_, start_, dur, std::move(*args_));
  else
    t.record(name_, cat_, start_, dur);
}

}  // namespace deepmc::obs
