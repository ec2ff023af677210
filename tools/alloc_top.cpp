// Terminal capacity dashboard for a running alloc_serve: polls the
// metrics verb and renders queue depth, worker utilization, cache
// occupancy, session dead-guard fraction, arena bytes and latency —
// curses-free, plain ANSI, usable over ssh.
//
//   alloc_top --socket PATH [--interval S] [--window S] [--once]
//   alloc_top --tcp HOST PORT ...
//
// --once prints a single frame and exits (scripting / CI assertions);
// otherwise the screen is redrawn every --interval seconds (default 2)
// until interrupted. Every number comes live from the metrics registry;
// only the two latency sparklines (time window --window W, default 60 s)
// come from the query verb, and they need the daemon's sampler running
// (start alloc_serve with --metrics-interval) — without it the frame
// says what is missing. Uptime is this host's wall clock minus the
// service's svc.start_time_unix_ms: the daemon listens only on a Unix
// socket or loopback TCP, so both clocks are the same.
//
// Output is line-oriented `key=value` so the smoke test (and any shell)
// can scrape it: e.g. `arena bytes=147456 wasted=1024 learnts=37`.
//
// Exit codes: 0 rendered at least one frame; 1 connect/protocol error;
// 2 usage.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "svc/client.hpp"

namespace {

using optalloc::obs::HistBucket;
using optalloc::obs::JsonValue;
using optalloc::obs::MetricValue;
using optalloc::obs::histogram_quantile;

int usage() {
  std::cerr << "usage: alloc_top (--socket PATH | --tcp HOST PORT)\n"
            << "                 [--interval S] [--window S] [--once]\n";
  return 2;
}

struct Endpoint {
  std::string socket_path;
  std::string tcp_host;
  int tcp_port = -1;

  int connect() const {
    return !socket_path.empty()
               ? optalloc::svc::connect_unix_retry(socket_path)
               : optalloc::svc::connect_tcp_retry(tcp_host, tcp_port);
  }
  std::string describe() const {
    return !socket_path.empty()
               ? "unix:" + socket_path
               : "tcp:" + tcp_host + ":" + std::to_string(tcp_port);
  }
};

/// One request/response cycle on an open connection.
std::optional<JsonValue> roundtrip(int fd, std::string& buffer,
                                   const std::string& line) {
  std::string response;
  if (!optalloc::svc::send_line(fd, line) ||
      !optalloc::svc::recv_line(fd, buffer, response)) {
    return std::nullopt;
  }
  auto doc = optalloc::obs::json_parse(response);
  if (!doc || !doc->is_object()) return std::nullopt;
  return doc;
}

std::vector<double> series_values(const JsonValue& doc) {
  std::vector<double> out;
  const JsonValue* samples = doc.get("samples");
  if (samples == nullptr || samples->kind != JsonValue::Kind::kArray) {
    return out;
  }
  for (const JsonValue& pair : samples->array) {
    if (pair.kind != JsonValue::Kind::kArray || pair.array.size() != 2) {
      continue;
    }
    out.push_back(pair.array[1].number);
  }
  return out;
}

/// Unicode block sparkline; empty input -> "(no samples)".
std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) return "(no samples)";
  double lo = values[0], hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    int idx = hi > lo ? static_cast<int>((v - lo) / (hi - lo) * 7.0) : 3;
    if (idx < 0) idx = 0;
    if (idx > 7) idx = 7;
    out += kBlocks[idx];
  }
  return out;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Fetch everything and render one frame into `out`. False only when the
/// connection or the metrics verb failed (missing sparklines still render).
bool render_frame(const Endpoint& endpoint, double window_s,
                  std::string& out) {
  const int fd = endpoint.connect();
  if (fd < 0) return false;
  std::string buffer;
  const auto reply = roundtrip(fd, buffer, "{\"verb\":\"metrics\"}");
  const JsonValue* doc = reply ? reply->get("metrics") : nullptr;
  if (doc == nullptr) {
    ::close(fd);
    return false;
  }
  std::map<std::string, MetricValue> registry;
  for (MetricValue& m : optalloc::obs::metrics_from_json(*doc)) {
    registry[m.name] = std::move(m);
  }
  const auto window = fmt("%.0f", window_s);
  const auto fetch_series = [&](const std::string& metric) {
    const auto doc = roundtrip(
        fd, buffer, "{\"verb\":\"query\",\"metric\":\"" + metric +
                        "\",\"last_s\":" + window + ",\"max_samples\":64}");
    return doc ? series_values(*doc) : std::vector<double>{};
  };
  const std::vector<double> p50 = fetch_series("svc.request_ms.p50");
  const std::vector<double> p99 = fetch_series("svc.request_ms.p99");
  ::close(fd);

  const MetricValue none;
  const auto metric = [&](const char* name) -> const MetricValue& {
    const auto it = registry.find(name);
    return it != registry.end() ? it->second : none;
  };
  const auto get = [&](const char* name) {
    return static_cast<double>(metric(name).value);
  };
  const double start_ms = get("svc.start_time_unix_ms");
  const double uptime =
      start_ms > 0.0
          ? (static_cast<double>(optalloc::obs::wall_unix_ms()) - start_ms) /
                1000.0
          : 0.0;
  const double workers = get("svc.workers");
  const double hits = get("svc.cache.hits");
  const double misses = get("svc.cache.misses");
  const double lookups = hits + misses;
  const double solve_s = metric("svc.time.solve").seconds;
  const double utilization =
      uptime > 0.0 && workers > 0.0
          ? std::min(1.0, solve_s / (uptime * workers))
          : 0.0;
  const double guards = get("res.inc.guards.items");
  const double dead = get("res.inc.dead_guards.items");
  const double guard_total = guards + dead;
  const std::vector<HistBucket>& latency = metric("svc.request_ms").buckets;
  // The top non-empty bucket bounds the slowest request from above.
  const double max_ms = latency.empty()                 ? 0.0
                        : std::isinf(latency.back().hi) ? latency.back().lo
                                                        : latency.back().hi;

  out.clear();
  out += "alloc_top " + endpoint.describe() +
         "  uptime=" + fmt("%.1f", uptime) + "s" +
         "  workers=" + fmt("%.0f", workers) + "\n";
  out += "requests   submitted=" + fmt("%.0f", get("svc.requests")) +
         " completed=" + fmt("%.0f", get("svc.completed")) +
         " rejected=" + fmt("%.0f", get("svc.rejected")) +
         " cancelled=" + fmt("%.0f", get("svc.cancelled")) +
         " deadline_expired=" + fmt("%.0f", get("svc.deadline_expired")) +
         "\n";
  out += "queue      depth=" + fmt("%.0f", get("res.svc.queue.items")) +
         " bytes=" + fmt("%.0f", get("res.svc.queue.bytes")) + "\n";
  out += "workers    utilization=" + fmt("%.1f", utilization * 100.0) +
         "% solve_s=" + fmt("%.2f", solve_s) + "\n";
  out += "cache      hits=" + fmt("%.0f", hits) +
         " misses=" + fmt("%.0f", misses) + " hit_rate=" +
         fmt("%.1f", lookups > 0 ? hits / lookups * 100.0 : 0.0) +
         "% entries=" + fmt("%.0f", get("res.svc.cache.items")) +
         " bytes=" + fmt("%.0f", get("res.svc.cache.bytes")) + "\n";
  out += "sessions   active=" + fmt("%.0f", get("res.svc.sessions.items")) +
         " revises=" + fmt("%.0f", get("svc.revises")) +
         " guards=" + fmt("%.0f", guards) + " dead=" + fmt("%.0f", dead) +
         " dead_fraction=" +
         fmt("%.1f", guard_total > 0 ? dead / guard_total * 100.0 : 0.0) +
         "%\n";
  out += "arena      bytes=" + fmt("%.0f", get("res.sat.arena.bytes")) +
         " wasted=" + fmt("%.0f", get("res.sat.arena.wasted.bytes")) +
         " learnts=" + fmt("%.0f", get("res.sat.learnts.items")) + "\n";
  out += "latency    p50=" + fmt("%.1f", histogram_quantile(latency, 0.50)) +
         "ms p99=" + fmt("%.1f", histogram_quantile(latency, 0.99)) +
         "ms max=" + fmt("%.1f", max_ms) + "ms\n";
  out += "p50_ms     [" + window + "s] " + sparkline(p50) +
         (p50.empty() ? "" : " last=" + fmt("%.1f", p50.back())) + "\n";
  out += "p99_ms     [" + window + "s] " + sparkline(p99) +
         (p99.empty() ? "" : " last=" + fmt("%.1f", p99.back())) + "\n";
  if (p50.empty() && p99.empty()) {
    out += "(time-series empty: start alloc_serve with "
           "--metrics-interval S)\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  double interval_s = 2.0;
  double window_s = 60.0;
  bool once = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      endpoint.socket_path = v;
    } else if (arg == "--tcp") {
      const char* host = next();
      const char* port = next();
      if (host == nullptr || port == nullptr) return usage();
      endpoint.tcp_host = host;
      endpoint.tcp_port = std::atoi(port);
    } else if (arg == "--interval") {
      const char* v = next();
      if (v == nullptr) return usage();
      interval_s = std::atof(v);
      if (interval_s <= 0.0) return usage();
    } else if (arg == "--window") {
      const char* v = next();
      if (v == nullptr) return usage();
      window_s = std::atof(v);
      if (window_s <= 0.0) return usage();
    } else if (arg == "--once") {
      once = true;
    } else {
      std::cerr << "alloc_top: unknown option " << arg << "\n";
      return usage();
    }
  }
  if (endpoint.socket_path.empty() == (endpoint.tcp_port < 0)) {
    return usage();
  }

  for (;;) {
    std::string frame;
    if (!render_frame(endpoint, window_s, frame)) {
      std::cerr << "alloc_top: cannot reach " << endpoint.describe() << "\n";
      return 1;
    }
    if (!once) std::cout << "\x1b[2J\x1b[H";  // clear + home
    std::cout << frame << std::flush;
    if (once) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(interval_s)));
  }
}
