// Allocation daemon: serves the NDJSON allocation protocol (see
// src/svc/protocol.hpp) over a Unix-domain or TCP socket, with a worker
// pool, canonical result cache and anytime deadline answers.
//
//   alloc_serve --socket /tmp/alloc.sock [--workers 2] [--queue 64]
//               [--cache 256] [--anneal 2000] [--trace FILE] [--stats]
//               [--metrics-interval S] [--flight-dump FILE]
//               [--no-inprocess] [--inprocess-interval N]
//               [--watermark NAME:HIGH[:LOW]]
//   alloc_serve --tcp 7421 ...
//
// SIGTERM / SIGINT trigger a graceful drain: no new requests are
// accepted, every queued job still gets its answer, the trace sink is
// flushed and closed, then the process exits 0. --stats prints the
// service counters on exit. --metrics-interval S drives the sampler
// thread every S seconds: each tick records the whole registry into the
// in-process time-series rings (the `query` verb / alloc_top's data),
// checks the armed resource watermarks, and — while tracing is on —
// emits a "metrics_snapshot" trace event carrying the typed registry
// object the `metrics` verb returns.
// --watermark arms a byte threshold on a resource ("sat.arena:8388608"
// or "svc.cache:1048576:786432"); crossings emit `resource_watermark`
// trace events with hysteresis (LOW defaults to 3/4 of HIGH).
//
// Post-mortem: a fatal signal (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT)
// dumps the flight-recorder rings — the last telemetry records of every
// thread — as JSONL before the process dies: to stderr by default, or to
// --flight-dump FILE (opened at startup so the handler never allocates).

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "svc/server.hpp"

namespace {

optalloc::svc::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage() {
  std::cerr
      << "usage: alloc_serve (--socket PATH | --tcp PORT)\n"
      << "                   [--workers N] [--queue N] [--cache N]\n"
      << "                   [--anneal ITERS] [--trace FILE] [--stats]\n"
      << "                   [--metrics-interval S] [--flight-dump FILE]\n"
      << "                   [--no-inprocess] [--inprocess-interval N]\n"
      << "                   [--watermark NAME:HIGH[:LOW]]\n";
  return 2;
}

/// Parse "NAME:HIGH[:LOW]" and arm the watermark. False on bad syntax.
bool arm_watermark(const std::string& spec) {
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  const std::string name = spec.substr(0, c1);
  const std::size_t c2 = spec.find(':', c1 + 1);
  const std::string high_s =
      c2 == std::string::npos ? spec.substr(c1 + 1)
                              : spec.substr(c1 + 1, c2 - c1 - 1);
  const long long high = std::atoll(high_s.c_str());
  if (high <= 0) return false;
  long long low = -1;
  if (c2 != std::string::npos) {
    low = std::atoll(spec.substr(c2 + 1).c_str());
    if (low < 0 || low > high) return false;
  }
  optalloc::obs::set_resource_watermark(name, high, low);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  bool print_stats = false;
  std::string trace_path;
  std::string flight_dump_path;
  double metrics_interval_s = 0.0;
  optalloc::svc::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (v == nullptr) return usage();
      tcp_port = std::atoi(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.scheduler.workers = std::atoi(v);
    } else if (arg == "--queue") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.scheduler.queue_capacity =
          static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--cache") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.scheduler.cache_entries = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--anneal") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.scheduler.anneal_iterations = std::atoi(v);
    } else if (arg == "--no-inprocess") {
      options.scheduler.inprocess = false;
    } else if (arg == "--inprocess-interval") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.scheduler.inprocess_interval = std::atoll(v);
      if (options.scheduler.inprocess_interval <= 0) return usage();
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_path = v;
    } else if (arg == "--metrics-interval") {
      const char* v = next();
      if (v == nullptr) return usage();
      metrics_interval_s = std::atof(v);
    } else if (arg == "--flight-dump") {
      const char* v = next();
      if (v == nullptr) return usage();
      flight_dump_path = v;
    } else if (arg == "--watermark") {
      const char* v = next();
      if (v == nullptr || !arm_watermark(v)) {
        std::cerr << "alloc_serve: --watermark wants NAME:HIGH[:LOW] "
                     "(bytes)\n";
        return usage();
      }
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      std::cerr << "alloc_serve: unknown option " << arg << "\n";
      return usage();
    }
  }
  if (socket_path.empty() == (tcp_port < 0)) return usage();

  if (!trace_path.empty() && !optalloc::obs::trace_open(trace_path)) {
    std::cerr << "alloc_serve: cannot open trace file " << trace_path << "\n";
    return 1;
  }

  // Crash-path telemetry: open the dump destination NOW (the fatal-signal
  // handler may not open files or allocate) and keep the fd for the
  // process lifetime. Default is stderr.
  int flight_fd = STDERR_FILENO;
  if (!flight_dump_path.empty()) {
    flight_fd = ::open(flight_dump_path.c_str(),
                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (flight_fd < 0) {
      std::cerr << "alloc_serve: cannot open flight dump file "
                << flight_dump_path << "\n";
      optalloc::obs::trace_close();
      return 1;
    }
  }
  optalloc::obs::flight_install_crash_handler(flight_fd);

  optalloc::svc::Server server(options);
  if (!socket_path.empty()) {
    if (!server.listen_unix(socket_path)) {
      std::cerr << "alloc_serve: cannot listen on " << socket_path << "\n";
      optalloc::obs::flight_install_crash_handler(-1);
      optalloc::obs::trace_close();
      return 1;
    }
    std::cout << "listening on unix socket " << socket_path << std::endl;
  } else {
    if (!server.listen_tcp(tcp_port)) {
      std::cerr << "alloc_serve: cannot listen on tcp port " << tcp_port
                << "\n";
      optalloc::obs::flight_install_crash_handler(-1);
      optalloc::obs::trace_close();
      return 1;
    }
    std::cout << "listening on tcp 127.0.0.1:" << server.tcp_port()
              << std::endl;
  }

  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  // Periodic sampler: every tick feeds the in-process time-series rings
  // (the `query` verb's data), checks resource watermarks, and — with
  // tracing on — snapshots the registry into the trace, so a long run's
  // JSONL is also a coarse time series of every counter/histogram.
  std::thread snapshotter;
  std::atomic<bool> snapshot_stop{false};
  if (metrics_interval_s > 0.0) {
    snapshotter = std::thread([&] {
      const auto interval = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(metrics_interval_s));
      auto wake = std::chrono::steady_clock::now() + interval;
      while (!snapshot_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < wake) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        wake += interval;
        optalloc::obs::timeseries_sample_now();
        optalloc::obs::check_resource_watermarks();
        if (optalloc::obs::trace_enabled()) {
          optalloc::obs::TraceEvent("metrics_snapshot")
              .raw("metrics", optalloc::obs::metrics_full_json());
        }
      }
    });
  }

  server.run();

  if (snapshotter.joinable()) {
    snapshot_stop.store(true, std::memory_order_relaxed);
    snapshotter.join();
  }
  if (print_stats) {
    const auto stats = server.scheduler().stats();
    std::cout << optalloc::svc::stats_line(stats) << "\n";
    std::cout << optalloc::obs::render_metrics();
  }
  // The sink is process-global and deliberately leaked; without this
  // explicit flush+close the tail of the trace (the drain's last events)
  // would be lost in the ofstream buffer.
  optalloc::obs::flight_install_crash_handler(-1);
  if (flight_fd != STDERR_FILENO) ::close(flight_fd);
  optalloc::obs::trace_close();
  return 0;
}
