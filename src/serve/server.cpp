#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
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
    if (*d > static_cast<double>(support::kMaxMillis))
      return error_response("deadline_ms out of range (at most " +
                            std::to_string(support::kMaxMillis) + ")");
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
                 SessionHooks hooks) {
  // One fault scope for the whole session: "serve.accept:N" trips on the
  // N-th request of this stream and stays tripped (sticky), while
  // cache.read/cache.write trips are absorbed inside DiskCache.
  support::FaultScope faults;
  support::FaultActivation activation(&faults);
  while (true) {
    RequestFrame req;
    const int rc = read_request(in_fd, &req, hooks.io_timeout_ms);
    if (rc == 0) return 0;  // clean EOF
    if (rc == -2) {
      // Frame-read timeout: the peer went idle mid-frame (slowloris or a
      // stalled client). No response is owed to a request that never
      // finished arriving — count it and release the session slot.
      io_timeouts_total().inc();
      obs::flight().record("serve.io_timeout");
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
    obs::Span span("serve.accept", "serve", {{"op", op}, {"req", rid}});
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
      obs::tracer().write_trace(os);
      resp.meta = std::string("{\"active\": ") +
                  (obs::tracer().armed() ? "true" : "false") + "}";
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
      resp = handle_analyze(service, req, rid, hooks.default_deadline_ms);
    } else {
      resp = error_response("unknown op '" + op + "'");
    }
    if (!write_response(out_fd, resp)) return 0;
    if (shutdown) return 1;
  }
}

namespace {

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
  return core::run_exit_code(any_failed, any_degraded, warnings);
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
  bool no_telemetry = false;
  uint64_t trace_ring = 0;
  std::string flight_out;
  TelemetryFetch telemetry;
  std::vector<ClientJob> jobs;
  const support::Command cmd{
      "deepmc serve",
      {"deepmc serve --socket PATH | --listen HOST:PORT | --stdin [options]",
       "deepmc serve --connect TARGET [options] [file.mir...]   (client)"},
      {
          {"-strict|-epoch|-strand", nullptr,
           [&](const std::string& m) {
             sopts.driver.model = *core::parse_model_flag(m);
             client_model = core::model_name(sopts.driver.model);
             return true;
           },
           "persistency model (daemon default / request)"},
          {"--help|-h", nullptr, support::Help{}, "print this help"},
          support::heading("daemon options"),
          {"--socket", "PATH", &socket_path,
           "listen on a Unix-domain socket"},
          {"--listen", "HOST:PORT", &listen_spec,
           "listen on localhost TCP (port 0: ephemeral, printed)"},
          {"--stdin", nullptr, &use_stdin,
           "serve one framed stream on stdin/stdout"},
          {"--max-sessions", "N", &daemon_opts.max_sessions,
           "concurrent client sessions (default 4)", support::kMaxJobs},
          {"--accept-queue", "N", &daemon_opts.accept_queue,
           "queued connections before shedding (default 16)"},
          {"--request-timeout-ms", "N", &daemon_opts.request_timeout_ms,
           "default per-request deadline (0 = off)", support::kMaxMillis},
          {"--io-timeout-ms", "N", &daemon_opts.io_timeout_ms,
           "per-frame read bound (default 30000, 0 = off)",
           support::kMaxMillis},
          {"--cache-dir", "DIR", &sopts.cache_dir,
           "persist per-function results under DIR"},
          {"--cache-max-entries", "N", &sopts.cache_limits.max_entries,
           "LRU bound on cached entries (0 = unbounded)"},
          {"--cache-max-bytes", "N", &sopts.cache_limits.max_bytes,
           "LRU bound on cached bytes (0 = unbounded)"},
          {"--jobs", "N", &sopts.driver.jobs,
           "analysis threads (0 = hardware, the default)", support::kMaxJobs},
          {"--field-insensitive", nullptr,
           support::set_to(&sopts.driver.field_sensitive, false),
           "disable DSA field sensitivity"},
          {"--no-telemetry", nullptr, &no_telemetry,
           "disable live metrics and the flight recorder"},
          {"--trace-ring", "N", &trace_ring,
           "keep the newest N spans for DMRQ trace"},
          support::flight_out_flag(&flight_out),
          support::heading("client options"),
          {"--connect", "TARGET", &connect_path,
           "socket path or HOST:PORT of a daemon"},
          {"--corpus", "NAME",
           [&](const std::string& name) {
             jobs.push_back({true, name});
             return true;
           },
           "analyze a built-in corpus module"},
          {"--format", "text|json", &format,
           "response rendering (default json)"},
          {"--timing", nullptr, &timing, "include per-unit elapsed_ms"},
          {"--deadline-ms", "N", &deadline_ms,
           "per-request deadline sent in the header", support::kMaxMillis},
          {"--max-retries", "N", &retry_policy.max_retries,
           "retries of retryable failures (default 4)"},
          {"--retry-budget-ms", "N", &retry_policy.retry_budget_ms,
           "wall-clock cap across retries (default 2000)",
           support::kMaxMillis},
          {"--ping", nullptr, &ping, "round-trip check"},
          {"--cache-stats", nullptr, &cache_stats,
           "print the daemon's cache statistics"},
          {"--metrics", nullptr, &telemetry.metrics,
           "print a live metrics snapshot (JSON)"},
          {"--prom", nullptr, &telemetry.prom,
           "print a live metrics snapshot (Prometheus)"},
          {"--trace-dump", nullptr, &telemetry.trace_dump,
           "print the daemon's recent spans (JSON)"},
          {"--flight-dump", nullptr, &telemetry.flight_dump,
           "print the daemon's flight recorder (JSONL)"},
          {"--shutdown", nullptr, &shutdown,
           "ask the daemon to exit (after other work)"},
      },
      [&](const std::string& file) { jobs.push_back({false, file}); }};
  if (auto rc = support::parse_flags(cmd, argc, argv)) return *rc;

  const bool have_listener = !socket_path.empty() || !listen_spec.empty();
  if (!connect_path.empty()) {
    if (have_listener || use_stdin)
      return support::usage_error(
          cmd, "--connect excludes --socket, --listen and --stdin");
    if (jobs.empty() && !ping && !cache_stats && !shutdown && !telemetry.any())
      return support::usage_error(cmd, "--connect needs a request to send");
    return client_main(connect_path, jobs, client_model, format, timing,
                       deadline_ms, retry_policy, ping, cache_stats, telemetry,
                       shutdown);
  }
  // Daemon mode: --stdin alone, or any combination of --socket/--listen.
  if (use_stdin && have_listener)
    return support::usage_error(cmd, "--stdin excludes --socket and --listen");
  if (!use_stdin && !have_listener)
    return support::usage_error(
        cmd, "give --socket, --listen, --stdin or --connect");
  if (!jobs.empty() || ping || cache_stats || shutdown || timing ||
      deadline_ms > 0 || telemetry.any())
    return support::usage_error(cmd, "client options need --connect");

  std::string fault_error;
  if (!support::arm_faults_from_env(&fault_error)) {
    std::fprintf(stderr, "deepmc serve: %s\n", fault_error.c_str());
    return support::kExitUsage;
  }
  // Long-lived daemons run with live telemetry by default: metrics and
  // the flight recorder are pure side channels (response bodies stay
  // byte-identical with telemetry on or off), and the metrics/trace/
  // flight verbs read them from a running daemon without a restart.
  // Span tracing stays opt-in (--trace-ring): a traced span reads the
  // clock at both ends and copies its args, and even a unit-cache hit
  // opens three (accept, request, cache lookup).
  if (!no_telemetry) obs::set_enabled(true);
  if (!no_telemetry || !flight_out.empty()) obs::flight().arm();
  if (trace_ring > 0) obs::tracer().arm(static_cast<size_t>(trace_ring));
  AnalysisService service(std::move(sopts));
  int rc = 0;
  if (use_stdin) {
    // No I/O bound: the input is a pipe or a file, not a peer that stalls.
    serve_stream(service, STDIN_FILENO, STDOUT_FILENO,
                 {.default_deadline_ms = daemon_opts.request_timeout_ms});
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
