#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/report.h"
#include "corpus/corpus.h"
#include "ir/printer.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "support/faultpoint.h"
#include "support/flags.h"

namespace deepmc::serve {

namespace {

/// Daemon-assigned request ids ("req-N") for headers without an "id"
/// field. Process-wide so ids stay unique across connections.
std::atomic<uint64_t> g_request_seq{0};

obs::Counter& io_timeouts_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.io_timeouts_total", obs::Volatility::kVolatile,
      "sessions closed because a request frame stalled past the I/O bound");
  return c;
}

/// Retryable errors (injected serve.accept faults, transient conditions)
/// tell the client the *next* attempt may succeed — on a fresh
/// connection, since fault trips are sticky per session.
ResponseFrame error_response(const std::string& message,
                             bool retryable = false) {
  ResponseFrame resp;
  resp.status = kStatusError;
  resp.meta = "{\"error\": " + core::json_quote(message) +
              (retryable ? ", \"retryable\": true}" : "}");
  return resp;
}

std::string analyze_meta(const ServeResult& r, const std::string& rid) {
  std::ostringstream os;
  os << "{\"id\": " << core::json_quote(rid)
     << ", \"exit\": " << r.exit_code
     << ", \"cache\": " << core::json_quote(r.cache)
     << ", \"failed\": " << (r.failed ? "true" : "false")
     << ", \"degraded\": " << (r.degraded ? "true" : "false")
     << ", \"deadline_expired\": " << (r.deadline_expired ? "true" : "false")
     << ", \"warnings\": " << r.warnings << "}";
  return os.str();
}

/// The live-telemetry verbs (docs/SERVER.md "Live telemetry").
///
/// `metrics`: registry snapshot of the running daemon. Body is the
/// deepmc-metrics-v1 JSON (header "format": "json", the default) or the
/// Prometheus text exposition ("prom"). The stable section is a pure
/// function of the requests analyzed so far — byte-identical across
/// --jobs values — while wall_ms carries the daemon uptime; header
/// "volatile": false strips the volatile section server-side.
ResponseFrame handle_metrics(const AnalysisService& service,
                             const RequestFrame& req) {
  const std::string fmt =
      json_string_field(req.header, "format").value_or("json");
  obs::Snapshot snap = obs::registry().snapshot();
  snap.wall_ms = service.uptime_ms();
  ResponseFrame resp;
  if (fmt == "prom" || fmt == "prometheus") {
    std::ostringstream os;
    snap.to_prometheus(os);
    resp.body = os.str();
  } else if (fmt == "json") {
    resp.body = snap.to_json(
        json_bool_field(req.header, "volatile").value_or(true));
  } else {
    return error_response("unknown metrics format '" + fmt + "'");
  }
  resp.meta = "{\"ok\": true}";
  return resp;
}

/// One analyze request: resolve corpus/body input and per-request options
/// from the header, run the service, frame the response.
ResponseFrame handle_analyze(AnalysisService& service, const RequestFrame& req,
                             const std::string& rid,
                             uint64_t default_deadline_ms) {
  RequestOptions ropts;
  ropts.request_id = rid;
  // Effective deadline: the smaller of the daemon's --request-timeout-ms
  // and the client's "deadline_ms" header (0 on either side = defer to
  // the other). The client cannot opt out of the daemon's bound.
  ropts.deadline_ms = default_deadline_ms;
  if (auto d = json_num_field(req.header, "deadline_ms"); d && *d > 0) {
    const auto client_ms = static_cast<uint64_t>(*d);
    ropts.deadline_ms = ropts.deadline_ms == 0
                            ? client_ms
                            : std::min(ropts.deadline_ms, client_ms);
  }
  if (auto model = json_string_field(req.header, "model")) {
    auto parsed = core::parse_model_flag(*model);
    if (!parsed) return error_response("unknown model '" + *model + "'");
    ropts.model = *parsed;
  }
  if (auto format = json_string_field(req.header, "format")) {
    if (*format == "text") ropts.format = core::ReportFormat::kText;
    else if (*format == "json") ropts.format = core::ReportFormat::kJson;
    else return error_response("unknown format '" + *format + "'");
  }
  ropts.include_timing = json_bool_field(req.header, "timing").value_or(false);

  std::string name =
      json_string_field(req.header, "name").value_or("<request>");
  std::string text;
  if (auto corpus_name = json_string_field(req.header, "corpus")) {
    // The server owns the corpus registry; the client just names a module.
    // Framework model is forced exactly like the one-shot CLI does.
    try {
      corpus::CorpusModule cm = corpus::build_module(*corpus_name);
      text = ir::to_string(*cm.module);
      name = *corpus_name;
      ropts.model = corpus::framework_model(cm.framework);
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
  } else {
    text = req.body;
  }

  ServeResult r;
  try {
    r = service.analyze_report(name, text, ropts);
  } catch (const std::exception& e) {
    return error_response(std::string("analysis error: ") + e.what());
  }
  ResponseFrame resp;
  resp.status = 0;
  resp.meta = analyze_meta(r, rid);
  resp.body = std::move(r.body);
  return resp;
}

}  // namespace

int serve_stream(AnalysisService& service, int in_fd, int out_fd,
                 const SessionHooks* hooks) {
  // One fault scope for the whole session: "serve.accept:N" trips on the
  // N-th request of this stream and stays tripped (sticky), while
  // cache.read/cache.write trips are absorbed inside DiskCache.
  support::FaultScope faults;
  support::FaultActivation activation(&faults);
  const uint64_t io_timeout_ms = hooks ? hooks->io_timeout_ms : 0;
  const uint64_t default_deadline_ms = hooks ? hooks->default_deadline_ms : 0;
  while (true) {
    RequestFrame req;
    const int rc = read_request_timed(in_fd, &req, io_timeout_ms);
    if (rc == 0) return 0;  // clean EOF
    if (rc == -2) {
      // Frame-read timeout: the peer went idle mid-frame (slowloris or a
      // stalled client). No response is owed to a request that never
      // finished arriving — count it and release the session slot.
      io_timeouts_total().inc();
      if (obs::flight().armed()) obs::flight().record("serve.io_timeout", "");
      return 0;
    }
    if (rc < 0) {
      // Malformed frame: the stream is unsynchronized, so answer once
      // (best effort) and drop the connection rather than guess.
      write_response(out_fd, error_response("malformed request frame"));
      return 0;
    }
    try {
      DEEPMC_FAULTPOINT("serve.accept");
    } catch (const support::FaultInjected& e) {
      // Retryable: the trip is sticky for *this* session, so a client
      // that reconnects gets a fresh fault scope and a fresh countdown.
      if (!write_response(out_fd, error_response(e.what(), true))) return 0;
      continue;
    }
    const std::string op =
        json_string_field(req.header, "op").value_or("analyze");
    // Request id: honor the client's "id" header, else assign "req-N".
    // It tags the accept span here and every span/flight event the
    // service emits below, and comes back in the analyze meta.
    std::string rid;
    if (auto id = json_string_field(req.header, "id")) {
      rid = *id;
    } else {
      const uint64_t n =
          g_request_seq.fetch_add(1, std::memory_order_relaxed) + 1;
      rid = "req-" + std::to_string(n);
    }
    std::string accept_args = obs::span_arg("op", op);
    {
      const std::string rid_arg = obs::span_arg("req", rid);
      if (!accept_args.empty() && !rid_arg.empty()) accept_args += ", ";
      accept_args += rid_arg;
    }
    obs::Span span("serve.accept", "serve", std::move(accept_args));
    ResponseFrame resp;
    bool shutdown = false;
    if (op == "ping") {
      resp.meta = "{\"pong\": true}";
    } else if (op == "stats") {
      resp.meta = "{\"ok\": true}";
      resp.body = service.stats_json();
    } else if (op == "metrics") {
      resp = handle_metrics(service, req);
    } else if (op == "trace") {
      // Recent span window (Chrome trace_event JSON). Collection stays
      // active; with a ring capacity set the daemon keeps only the
      // newest spans, so this is cheap to poll.
      std::ostringstream os;
      obs::tracer().write(os);
      resp.meta = std::string("{\"active\": ") +
                  (obs::tracer().active() ? "true" : "false") + "}";
      resp.body = os.str();
    } else if (op == "flight") {
      std::ostringstream os;
      obs::flight().dump_jsonl(os);
      resp.meta = std::string("{\"armed\": ") +
                  (obs::flight().armed() ? "true" : "false") + "}";
      resp.body = os.str();
    } else if (op == "shutdown") {
      resp.meta = "{\"shutdown\": true}";
      shutdown = true;
    } else if (op == "analyze") {
      resp = handle_analyze(service, req, rid, default_deadline_ms);
    } else {
      resp = error_response("unknown op '" + op + "'");
    }
    if (!write_response(out_fd, resp)) return 0;
    if (shutdown) return 1;
  }
}

namespace {

int usage(FILE* out) {
  std::fprintf(
      out,
      "usage: deepmc serve --socket PATH | --listen HOST:PORT | --stdin\n"
      "       deepmc serve --connect TARGET [...]     (client)\n"
      "\n"
      "daemon options:\n"
      "  --socket PATH        listen on a Unix-domain socket\n"
      "  --listen HOST:PORT   also/instead listen on localhost TCP\n"
      "                       (port 0 = ephemeral, printed on startup)\n"
      "  --stdin              serve one framed stream on stdin/stdout\n"
      "  --max-sessions N     concurrent client sessions (default 4)\n"
      "  --accept-queue N     accepted-but-unserved bound; beyond it new\n"
      "                       connections are shed with a retryable\n"
      "                       'overloaded' response (default 16)\n"
      "  --request-timeout-ms N   default per-request deadline; expiry\n"
      "                       degrades that request, not the daemon (0 = off)\n"
      "  --io-timeout-ms N    per-frame read bound; a stalled frame closes\n"
      "                       its session (default 30000, 0 = off)\n"
      "  --cache-dir DIR      persist per-function results under DIR\n"
      "  --cache-max-entries N  LRU bound on cached entries (0 = unbounded)\n"
      "  --cache-max-bytes N    LRU bound on cached bytes (0 = unbounded)\n"
      "  --jobs N             analysis threads (0 = hardware)\n"
      "  -strict|-epoch|-strand   default persistency model\n"
      "  --field-insensitive  disable DSA field sensitivity\n"
      "  --no-telemetry       disable live metrics + flight recorder\n"
      "  --trace-ring N       trace spans into an N-span ring (DMRQ trace)\n"
      "  --flight-out FILE    dump the flight recorder (JSONL) on exit\n"
      "\n"
      "client options:\n"
      "  --connect TARGET     socket path or HOST:PORT of a daemon\n"
      "  file.mir...          analyze files (framed as requests)\n"
      "  --corpus NAME        analyze a built-in corpus module\n"
      "  --format text|json   response rendering (default json)\n"
      "  --timing             include per-unit elapsed_ms\n"
      "  --deadline-ms N      per-request deadline sent in the header\n"
      "  --max-retries N      retries of retryable failures (default 4)\n"
      "  --retry-budget-ms N  wall-clock cap across retries (default 2000)\n"
      "  -strict|-epoch|-strand   request model override\n"
      "  --ping               round-trip check\n"
      "  --cache-stats        print server cache statistics\n"
      "  --metrics            print a live metrics snapshot (JSON)\n"
      "  --prom               print a live metrics snapshot (Prometheus)\n"
      "  --trace-dump         print the daemon's recent spans (JSON)\n"
      "  --flight-dump        print the daemon's flight recorder (JSONL)\n"
      "  --shutdown           ask the daemon to exit (after other work)\n");
  return out == stderr ? 64 : 0;
}

struct ClientJob {
  bool corpus = false;
  std::string name;  ///< file path or corpus module name
};

std::string analyze_header(const ClientJob& job, const std::string& model,
                           const std::string& format, bool timing,
                           uint64_t deadline_ms) {
  std::ostringstream os;
  os << "{\"op\": \"analyze\"";
  if (job.corpus)
    os << ", \"corpus\": " << core::json_quote(job.name);
  else
    os << ", \"name\": " << core::json_quote(job.name);
  if (!model.empty()) os << ", \"model\": " << core::json_quote(model);
  if (deadline_ms > 0) os << ", \"deadline_ms\": " << deadline_ms;
  os << ", \"format\": " << core::json_quote(format)
     << ", \"timing\": " << (timing ? "true" : "false") << "}";
  return os.str();
}

/// Client-side telemetry verbs, gathered so client_main stays readable.
struct TelemetryFetch {
  bool metrics = false;     ///< DMRQ metrics, JSON body
  bool prom = false;        ///< DMRQ metrics, Prometheus body
  bool trace_dump = false;  ///< DMRQ trace
  bool flight_dump = false; ///< DMRQ flight
  [[nodiscard]] bool any() const {
    return metrics || prom || trace_dump || flight_dump;
  }
};

int client_main(const std::string& target, const std::vector<ClientJob>& jobs,
                const std::string& model, const std::string& format,
                bool timing, uint64_t deadline_ms, const RetryPolicy& policy,
                bool ping, bool cache_stats, const TelemetryFetch& telemetry,
                bool shutdown) {
  // Every round trip goes through the retrying client: overloaded sheds,
  // retryable fault errors, and dropped connections back off (with
  // jitter) and resend on a fresh connection.
  ServeClient client(target, policy);
  bool any_failed = false;
  bool any_degraded = false;
  bool transport_error = false;
  uint64_t warnings = 0;
  ResponseFrame resp;
  std::string call_err;
  auto call = [&](const RequestFrame& req) {
    if (client.call(req, &resp, &call_err)) return true;
    std::fprintf(stderr, "deepmc serve: %s\n", call_err.c_str());
    transport_error = true;
    return false;
  };
  if (ping) {
    RequestFrame req;
    req.header = "{\"op\": \"ping\"}";
    if (call(req) && resp.status == kStatusOk &&
        json_bool_field(resp.meta, "pong").value_or(false)) {
      std::printf("pong\n");
    } else if (!transport_error) {
      std::fprintf(stderr, "deepmc serve: ping failed\n");
      transport_error = true;
    }
  }
  for (const ClientJob& job : jobs) {
    if (transport_error) break;
    RequestFrame req;
    req.header = analyze_header(job, model, format, timing, deadline_ms);
    if (!job.corpus) {
      std::ifstream in(job.name, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "deepmc serve: cannot read %s\n",
                     job.name.c_str());
        any_failed = true;
        continue;
      }
      std::ostringstream body;
      body << in.rdbuf();
      req.body = body.str();
    }
    if (!call(req)) break;
    if (resp.status != kStatusOk) {
      std::fprintf(stderr, "deepmc serve: %s: %s\n", job.name.c_str(),
                   json_string_field(resp.meta, "error")
                       .value_or("request failed")
                       .c_str());
      any_failed = true;
      continue;
    }
    std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
    if (json_bool_field(resp.meta, "failed").value_or(false))
      any_failed = true;
    if (json_bool_field(resp.meta, "degraded").value_or(false))
      any_degraded = true;
    warnings += static_cast<uint64_t>(
        json_num_field(resp.meta, "warnings").value_or(0));
  }
  if (cache_stats && !transport_error) {
    RequestFrame req;
    req.header = "{\"op\": \"stats\"}";
    if (call(req) && resp.status == kStatusOk) {
      std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
      std::printf("\n");
    } else {
      transport_error = true;
    }
  }
  // Telemetry verbs print the raw body: JSON snapshots stay parseable,
  // Prometheus text stays scrapeable, flight JSONL stays line-oriented.
  auto fetch_body = [&](const char* header) {
    if (transport_error) return;
    RequestFrame req;
    req.header = header;
    if (call(req) && resp.status == kStatusOk) {
      std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
      if (!resp.body.empty() && resp.body.back() != '\n') std::printf("\n");
    } else {
      transport_error = true;
    }
  };
  if (telemetry.metrics) fetch_body("{\"op\": \"metrics\"}");
  if (telemetry.prom) fetch_body("{\"op\": \"metrics\", \"format\": \"prom\"}");
  if (telemetry.trace_dump) fetch_body("{\"op\": \"trace\"}");
  if (telemetry.flight_dump) fetch_body("{\"op\": \"flight\"}");
  if (shutdown && !transport_error) {
    RequestFrame req;
    req.header = "{\"op\": \"shutdown\"}";
    if (!call(req) || resp.status != kStatusOk) transport_error = true;
  }
  std::fflush(stdout);
  if (transport_error) {
    std::fprintf(stderr, "deepmc serve: connection to %s failed\n",
                 target.c_str());
    return 65;
  }
  // Same precedence as the one-shot CLI: failed > degraded > warning count.
  if (any_failed) return 65;
  if (any_degraded) return 66;
  return static_cast<int>(warnings > 63 ? 63 : warnings);
}

/// `flag N` or `flag=N` into `*out`: a plain unsigned decimal no larger
/// than `max` or than `*out`'s type holds. Returns true when `arg` is
/// `flag`, pointing `*bad` at it when the value is not.
template <typename T>
bool field_flag(const char* flag, const std::string& arg, int argc,
                char** argv, int& i, T* out, const char** bad,
                uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t n = 0;
  bool ok = true;
  max = std::min<uint64_t>(max, std::numeric_limits<T>::max());
  if (!support::num_flag(flag, arg, argc, argv, i, &n, &ok, max)) return false;
  if (ok) {
    *out = static_cast<T>(n);
  } else {
    *bad = flag;
  }
  return true;
}

}  // namespace

int serve_cli(int argc, char** argv) {
  std::string socket_path;
  std::string listen_spec;
  std::string connect_path;
  bool use_stdin = false;
  ServeOptions sopts;
  DaemonOptions daemon_opts;
  std::string client_model;
  std::string format = "json";
  bool timing = false;
  uint64_t deadline_ms = 0;
  RetryPolicy retry_policy;
  bool ping = false;
  bool cache_stats = false;
  bool shutdown = false;
  bool telemetry_on = true;
  uint64_t trace_ring = 0;
  std::string flight_out;
  TelemetryFetch telemetry;
  std::vector<ClientJob> jobs;
  const char* bad_flag = nullptr;

  auto need_value = [&](int i) { return i + 1 < argc; };
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--socket") {
      if (!need_value(i)) return usage(stderr);
      socket_path = argv[++i];
    } else if (arg == "--listen") {
      if (!need_value(i)) return usage(stderr);
      listen_spec = argv[++i];
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--connect") {
      if (!need_value(i)) return usage(stderr);
      connect_path = argv[++i];
    } else if (
        field_flag("--max-sessions", arg, argc, argv, i,
                   &daemon_opts.max_sessions, &bad_flag, support::kMaxJobs) ||
        field_flag("--accept-queue", arg, argc, argv, i,
                   &daemon_opts.accept_queue, &bad_flag) ||
        field_flag("--request-timeout-ms", arg, argc, argv, i,
                   &daemon_opts.request_timeout_ms, &bad_flag) ||
        field_flag("--io-timeout-ms", arg, argc, argv, i,
                   &daemon_opts.io_timeout_ms, &bad_flag) ||
        field_flag("--deadline-ms", arg, argc, argv, i, &deadline_ms,
                   &bad_flag) ||
        field_flag("--max-retries", arg, argc, argv, i,
                   &retry_policy.max_retries, &bad_flag) ||
        field_flag("--retry-budget-ms", arg, argc, argv, i,
                   &retry_policy.retry_budget_ms, &bad_flag) ||
        field_flag("--cache-max-entries", arg, argc, argv, i,
                   &sopts.cache_limits.max_entries, &bad_flag) ||
        field_flag("--cache-max-bytes", arg, argc, argv, i,
                   &sopts.cache_limits.max_bytes, &bad_flag) ||
        field_flag("--jobs", arg, argc, argv, i, &sopts.driver.jobs,
                   &bad_flag, support::kMaxJobs) ||
        field_flag("--trace-ring", arg, argc, argv, i, &trace_ring,
                   &bad_flag)) {
      if (bad_flag != nullptr) {
        std::fprintf(stderr, "deepmc serve: invalid value for %s\n",
                     bad_flag);
        return 64;
      }
    } else if (arg == "--cache-dir") {
      if (!need_value(i)) return usage(stderr);
      sopts.cache_dir = argv[++i];
    } else if (arg == "--field-insensitive") {
      sopts.driver.checker.field_sensitive = false;
    } else if (arg == "--format") {
      if (!need_value(i)) return usage(stderr);
      format = argv[++i];
      if (format != "text" && format != "json") return usage(stderr);
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--corpus") {
      if (!need_value(i)) return usage(stderr);
      jobs.push_back({true, argv[++i]});
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--cache-stats") {
      cache_stats = true;
    } else if (arg == "--metrics") {
      telemetry.metrics = true;
    } else if (arg == "--prom") {
      telemetry.prom = true;
    } else if (arg == "--trace-dump") {
      telemetry.trace_dump = true;
    } else if (arg == "--flight-dump") {
      telemetry.flight_dump = true;
    } else if (arg == "--no-telemetry") {
      telemetry_on = false;
    } else if (arg == "--flight-out") {
      if (!need_value(i)) return usage(stderr);
      flight_out = argv[++i];
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (auto model = core::parse_model_flag(arg)) {
      sopts.driver.model = *model;
      client_model = core::model_name(*model);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "deepmc serve: unknown flag %s\n", arg.c_str());
      return 64;
    } else {
      jobs.push_back({false, arg});
    }
  }

  if (!connect_path.empty()) {
    if (!socket_path.empty() || !listen_spec.empty() || use_stdin)
      return usage(stderr);
    if (jobs.empty() && !ping && !cache_stats && !shutdown && !telemetry.any())
      return usage(stderr);
    return client_main(connect_path, jobs, client_model, format, timing,
                       deadline_ms, retry_policy, ping, cache_stats, telemetry,
                       shutdown);
  }
  // Daemon mode: --stdin alone, or any combination of --socket/--listen.
  const bool have_listener = !socket_path.empty() || !listen_spec.empty();
  if (use_stdin == have_listener) return usage(stderr);  // exactly one mode
  if (!jobs.empty() || ping || cache_stats || shutdown || timing ||
      deadline_ms > 0 || telemetry.any())
    return usage(stderr);  // client-only flags without --connect

  std::string fault_error;
  if (!support::arm_faults_from_env(&fault_error)) {
    std::fprintf(stderr, "deepmc serve: %s\n", fault_error.c_str());
    return 64;
  }
  // Long-lived daemons run with live telemetry by default: metrics and
  // the flight recorder are pure side channels (response bodies stay
  // byte-identical with telemetry on or off), and the metrics/trace/
  // flight verbs read them from a running daemon without a restart.
  // Span tracing stays opt-in (--trace-ring) since every span allocates.
  if (flight_out.empty()) {
    if (const char* env = std::getenv("DEEPMC_FLIGHT_OUT")) flight_out = env;
  }
  if (telemetry_on) obs::set_enabled(true);
  if (telemetry_on || !flight_out.empty()) obs::flight().arm();
  if (trace_ring > 0) {
    obs::tracer().set_ring_capacity(static_cast<size_t>(trace_ring));
    obs::tracer().start();
  }
  AnalysisService service(std::move(sopts));
  int rc = 0;
  if (use_stdin) {
    serve_stream(service, STDIN_FILENO, STDOUT_FILENO);
  } else {
    ServeDaemon daemon(service, daemon_opts);
    std::string err;
    if (!socket_path.empty() && !daemon.listen_unix(socket_path, &err)) {
      std::fprintf(stderr, "deepmc serve: %s\n", err.c_str());
      return 65;
    }
    if (!listen_spec.empty() && !daemon.listen_tcp(listen_spec, &err)) {
      std::fprintf(stderr, "deepmc serve: %s\n", err.c_str());
      return 65;
    }
    daemon.arm_signal_drain();
    rc = daemon.run();
  }
  if (!flight_out.empty() && obs::flight().armed() &&
      !obs::flight().dump_file(flight_out)) {
    std::fprintf(stderr, "deepmc serve: cannot write flight log %s\n",
                 flight_out.c_str());
  }
  return rc;
}

}  // namespace deepmc::serve
