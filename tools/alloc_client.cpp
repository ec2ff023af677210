// CLI client for the allocation daemon (see tools/alloc_serve.cpp).
//
//   alloc_client --socket PATH [--retry N] VERB ...
//   alloc_client --tcp HOST PORT [--retry N] VERB ...
//
//   submit FILE [OBJECTIVE] [--deadline MS] [--conflicts N]
//          [--threads N] [--wait]
//   status ID | result ID | cancel ID
//   dump [ID]                     # flight-recorder events
//   metrics [--prom]
//   query [METRIC] [--last S] [--max-samples N]
//                                 # time-series: catalogue, or one
//                                 # series' [unix_ms, value] samples
//   shutdown [--no-drain]
//   raw LINE                      # send LINE verbatim
//
// Incremental re-solve sessions (what-if queries over a warm solver):
//
//   session-open FILE [OBJECTIVE] [--deadline MS] [--conflicts N]
//       -> opens a session, solves, prints {"session":"s1",...}
//   revise SESSION EDITS          # EDITS: inline JSON array or @file
//       e.g. revise s1 '[{"op":"set_wcet","task":"a","ecu":0,"wcet":9}]'
//   session-close SESSION
//
// FILE may be "-" for stdin. The raw JSON response is printed on stdout;
// "metrics --prom" instead renders the server's registry snapshot in
// Prometheus text exposition format (histograms as cumulative buckets
// plus p50/p95/p99 gauges). "raw" sends an arbitrary protocol line
// (useful for probing the server's structured error answers).
//
// --retry N retries a failed connect() up to N times with exponential
// backoff (50ms, doubling), for transient races against a daemon that is
// still binding its socket. The default is 1 (a single attempt).
//
// Exit codes: 0 success; 1 protocol / connection error (no response, or
// every connect attempt failed — with --retry N, exit 1 means all N
// attempts were exhausted); 2 usage; 3 server-reported error — an
// {"ok":false,...} answer with its machine-readable "code" (unknown
// verb, unknown id, unknown session, bad problem, bad patch, queue
// full); 4 terminal answer that is feasible but not proven optimal (the
// anytime deadline answer — or a session answer interrupted by its
// budget).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "svc/client.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: alloc_client (--socket PATH | --tcp HOST PORT)"
         " [--retry N] VERB ...\n"
      << "  submit FILE [OBJECTIVE] [--deadline MS] [--conflicts N]\n"
      << "         [--threads N] [--wait]\n"
      << "  status ID | result ID | cancel ID\n"
      << "  session-open FILE [OBJECTIVE] [--deadline MS] [--conflicts N]\n"
      << "  revise SESSION EDITS_JSON|@FILE\n"
      << "  session-close SESSION\n"
      << "  dump [ID]\n"
      << "  metrics [--prom]\n"
      << "  query [METRIC] [--last S] [--max-samples N]\n"
      << "  shutdown [--no-drain]\n"
      << "  raw LINE\n";
  return 2;
}

/// 0 ok; 1 malformed response; 3 server-reported error ("ok":false);
/// 4 terminal-but-not-proven-optimal (anytime answer).
int classify(const std::string& response) {
  const auto doc = optalloc::obs::json_parse(response);
  if (!doc || !doc->is_object()) return 1;
  const optalloc::obs::JsonValue* ok = doc->get("ok");
  if (ok == nullptr || ok->kind != optalloc::obs::JsonValue::Kind::kBool) {
    return 1;
  }
  if (!ok->b) return 3;
  const auto state = doc->get_string("state");
  const bool terminal = (state && *state == "done") ||
                        doc->get_string("session").has_value();
  if (terminal) {
    const optalloc::obs::JsonValue* proven = doc->get("proven_optimal");
    if (proven != nullptr &&
        proven->kind == optalloc::obs::JsonValue::Kind::kBool && !proven->b) {
      return 4;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int i = 1;
  auto next = [&]() -> const char* { return i < argc ? argv[i++] : nullptr; };

  std::string socket_path, tcp_host;
  int tcp_port = -1;
  int retry_attempts = 1;
  const char* verb_arg = nullptr;
  while (const char* a = next()) {
    const std::string s = a;
    if (s == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (s == "--tcp") {
      const char* host = next();
      const char* port = next();
      if (host == nullptr || port == nullptr) return usage();
      tcp_host = host;
      tcp_port = std::atoi(port);
    } else if (s == "--retry") {
      const char* v = next();
      if (v == nullptr) return usage();
      retry_attempts = std::atoi(v);
      if (retry_attempts < 1) retry_attempts = 1;
    } else {
      verb_arg = a;
      break;
    }
  }
  if (verb_arg == nullptr) return usage();
  if (socket_path.empty() && tcp_port < 0) return usage();
  const std::string verb = verb_arg;
  bool prom = false;
  std::string raw_line;  ///< non-empty: sent verbatim instead of `request`

  optalloc::obs::JsonObject request;
  if (verb == "submit") {
    const char* file = next();
    if (file == nullptr) return usage();
    std::string objective = "sum-trt";
    double deadline_ms = 0.0;
    long conflicts = 0;
    int threads = 1;
    bool wait = false;
    while (const char* a = next()) {
      const std::string s = a;
      if (s == "--deadline") {
        const char* v = next();
        if (v == nullptr) return usage();
        deadline_ms = std::atof(v);
      } else if (s == "--conflicts") {
        const char* v = next();
        if (v == nullptr) return usage();
        conflicts = std::atol(v);
      } else if (s == "--threads") {
        const char* v = next();
        if (v == nullptr) return usage();
        threads = std::atoi(v);
      } else if (s == "--wait") {
        wait = true;
      } else if (!s.empty() && s[0] != '-') {
        objective = s;
      } else {
        return usage();
      }
    }
    std::string problem_text;
    if (std::string(file) == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      problem_text = ss.str();
    } else {
      std::ifstream in(file);
      if (!in) {
        std::cerr << "alloc_client: cannot read " << file << "\n";
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      problem_text = ss.str();
    }
    request.str("verb", "submit")
        .str("problem", problem_text)
        .str("objective", objective);
    if (deadline_ms > 0) request.num("deadline_ms", deadline_ms);
    if (conflicts > 0) {
      request.num("conflicts", static_cast<std::int64_t>(conflicts));
    }
    if (threads > 1) request.num("threads", static_cast<std::int64_t>(threads));
    if (wait) request.boolean("wait", true);
  } else if (verb == "session-open") {
    const char* file = next();
    if (file == nullptr) return usage();
    std::string objective = "sum-trt";
    double deadline_ms = 0.0;
    long conflicts = 0;
    while (const char* a = next()) {
      const std::string s = a;
      if (s == "--deadline") {
        const char* v = next();
        if (v == nullptr) return usage();
        deadline_ms = std::atof(v);
      } else if (s == "--conflicts") {
        const char* v = next();
        if (v == nullptr) return usage();
        conflicts = std::atol(v);
      } else if (!s.empty() && s[0] != '-') {
        objective = s;
      } else {
        return usage();
      }
    }
    std::string problem_text;
    if (std::string(file) == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      problem_text = ss.str();
    } else {
      std::ifstream in(file);
      if (!in) {
        std::cerr << "alloc_client: cannot read " << file << "\n";
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      problem_text = ss.str();
    }
    request.str("verb", "session_open")
        .str("problem", problem_text)
        .str("objective", objective);
    if (deadline_ms > 0) request.num("deadline_ms", deadline_ms);
    if (conflicts > 0) {
      request.num("conflicts", static_cast<std::int64_t>(conflicts));
    }
  } else if (verb == "revise") {
    const char* session = next();
    const char* edits = next();
    if (session == nullptr || edits == nullptr) return usage();
    std::string edits_json = edits;
    if (!edits_json.empty() && edits_json[0] == '@') {
      std::ifstream in(edits_json.substr(1));
      if (!in) {
        std::cerr << "alloc_client: cannot read " << edits_json.substr(1)
                  << "\n";
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      edits_json = ss.str();
      // The wire protocol is one request per line; a pretty-printed
      // edits file must not smuggle newlines into the frame.
      std::erase(edits_json, '\n');
      std::erase(edits_json, '\r');
    }
    request.str("verb", "revise").str("session", session);
    request.raw("edits", edits_json);
  } else if (verb == "session-close") {
    const char* session = next();
    if (session == nullptr) return usage();
    request.str("verb", "session_close").str("session", session);
  } else if (verb == "status" || verb == "result" || verb == "cancel") {
    const char* id = next();
    if (id == nullptr) return usage();
    request.str("verb", verb).str("id", id);
  } else if (verb == "dump") {
    request.str("verb", "dump");
    if (const char* id = next()) request.str("id", id);
  } else if (verb == "raw") {
    const char* line = next();
    if (line == nullptr) return usage();
    raw_line = line;
  } else if (verb == "metrics") {
    request.str("verb", "metrics");
    if (const char* a = next()) {
      if (std::string(a) == "--prom") {
        prom = true;
      } else {
        return usage();
      }
    }
  } else if (verb == "query") {
    request.str("verb", "query");
    while (const char* a = next()) {
      const std::string s = a;
      if (s == "--last") {
        const char* v = next();
        if (v == nullptr) return usage();
        request.num("last_s", std::atof(v));
      } else if (s == "--max-samples") {
        const char* v = next();
        if (v == nullptr) return usage();
        request.num("max_samples", static_cast<std::int64_t>(std::atol(v)));
      } else if (!s.empty() && s[0] != '-') {
        request.str("metric", s);
      } else {
        return usage();
      }
    }
  } else if (verb == "shutdown") {
    bool drain = true;
    if (const char* a = next()) {
      if (std::string(a) == "--no-drain") {
        drain = false;
      } else {
        return usage();
      }
    }
    request.str("verb", "shutdown").boolean("drain", drain);
  } else {
    std::cerr << "alloc_client: unknown verb " << verb << "\n";
    return usage();
  }

  const int fd =
      !socket_path.empty()
          ? optalloc::svc::connect_unix_retry(socket_path, retry_attempts)
          : optalloc::svc::connect_tcp_retry(tcp_host, tcp_port,
                                             retry_attempts);
  if (fd < 0) {
    std::cerr << "alloc_client: cannot connect";
    if (retry_attempts > 1) {
      std::cerr << " (" << retry_attempts << " attempts)";
    }
    std::cerr << "\n";
    return 1;
  }
  std::string buffer, response;
  const std::string line = raw_line.empty() ? request.build() : raw_line;
  if (!optalloc::svc::send_line(fd, line) ||
      !optalloc::svc::recv_line(fd, buffer, response)) {
    std::cerr << "alloc_client: connection lost\n";
    return 1;
  }
  if (prom) {
    const auto doc = optalloc::obs::json_parse(response);
    const optalloc::obs::JsonValue* m =
        doc && doc->is_object() ? doc->get("metrics") : nullptr;
    if (m == nullptr) {
      std::cerr << "alloc_client: malformed metrics response\n";
      return 1;
    }
    std::cout << optalloc::obs::prometheus_from_snapshot(
        optalloc::obs::metrics_from_json(*m));
    return 0;
  }
  std::cout << response << "\n";
  return classify(response);
}
