// Closed-loop load generator for the allocation service: an in-process
// alloc_serve (Server on a Unix-domain socket) hammered by N concurrent
// clients, each submitting a stream of small generated instances with
// wait=true and measuring end-to-end latency at the socket.
//
// The instance mix cycles through a handful of distinct systems *plus
// task-order permutations of them*, so a healthy run exercises both the
// solver path and the canonical-fingerprint cache (permuted duplicates
// must hit). The run fails (exit 1) if any request is dropped or answers
// a non-ok response.
//
// Environment knobs:
//   OPTALLOC_SVC_CLIENTS    concurrent closed-loop clients (default 16)
//   OPTALLOC_SVC_REQUESTS   requests per client (default 8)
//   OPTALLOC_SVC_WORKERS    scheduler worker threads (default 4)
//
// Emits BENCH_service.json: request counts, drop count, cache hit rate,
// client-side latency percentiles and throughput.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"

using namespace optalloc;

namespace {

int env_int(const char* name, int dflt) {
  if (const char* env = std::getenv(name)) return std::atoi(env);
  return dflt;
}

/// Move task `from` to the end — a reordering the canonical fingerprint
/// must see through (same system, different declaration order).
alloc::Problem permute_tasks(const alloc::Problem& p) {
  alloc::Problem q = p;
  if (q.tasks.tasks.size() < 2) return q;
  std::rotate(q.tasks.tasks.begin(), q.tasks.tasks.begin() + 1,
              q.tasks.tasks.end());
  const int n = static_cast<int>(q.tasks.tasks.size());
  auto remap = [n](int t) { return (t + n - 1) % n; };
  for (rt::Task& t : q.tasks.tasks) {
    for (int& s : t.separated_from) s = remap(s);
    for (rt::Message& m : t.messages) m.target_task = remap(m.target_task);
  }
  return q;
}

/// Current value of a registry counter (0 before its first use).
std::int64_t counter(const char* name) {
  for (const obs::MetricValue& m : obs::snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

int main() {
  const int clients = std::max(1, env_int("OPTALLOC_SVC_CLIENTS", 16));
  const int per_client = std::max(1, env_int("OPTALLOC_SVC_REQUESTS", 8));

  // Distinct base instances plus a permuted twin of each: 2*kBases unique
  // request bodies mapping to kBases cache entries.
  constexpr int kBases = 3;
  std::vector<std::string> bodies;
  for (int b = 0; b < kBases; ++b) {
    workload::GenOptions gen;
    gen.num_tasks = 10;
    gen.num_chains = 3;
    gen.num_ecus = 4;
    gen.separated_pairs = 1;
    gen.seed = 0xBE7C0000ull + static_cast<std::uint64_t>(b);
    const alloc::Problem p = workload::generate(gen);
    std::ostringstream base, perm;
    alloc::write_problem(base, p);
    alloc::write_problem(perm, permute_tasks(p));
    bodies.push_back(base.str());
    bodies.push_back(perm.str());
  }

  svc::ServerOptions options;
  options.scheduler.workers = std::max(1, env_int("OPTALLOC_SVC_WORKERS", 4));
  options.scheduler.queue_capacity =
      static_cast<std::size_t>(clients) * static_cast<std::size_t>(per_client);
  svc::Server server(options);
  const std::string socket_path = "./bench_service.sock";
  if (!server.listen_unix(socket_path)) {
    std::fprintf(stderr, "bench_service: cannot listen on %s\n",
                 socket_path.c_str());
    return 1;
  }
  std::thread server_thread([&server] { server.run(); });

  // Cache counters are read from the registry, as deltas over the run.
  const std::int64_t hits0 = counter("svc.cache.hits");
  const std::int64_t misses0 = counter("svc.cache.misses");
  std::atomic<int> dropped{0};
  std::atomic<int> bad{0};
  std::mutex lat_mu;
  std::vector<double> latencies_ms;

  Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      const int fd = svc::connect_unix(socket_path);
      if (fd < 0) {
        dropped.fetch_add(per_client);
        return;
      }
      std::string buffer;
      for (int r = 0; r < per_client; ++r) {
        const std::string& body =
            bodies[static_cast<std::size_t>(c + r) % bodies.size()];
        const std::string request = obs::JsonObject()
                                        .str("verb", "submit")
                                        .str("problem", body)
                                        .str("objective", "trt:0")
                                        .boolean("wait", true)
                                        .build();
        Stopwatch rtt;
        std::string response;
        if (!svc::send_line(fd, request) ||
            !svc::recv_line(fd, buffer, response)) {
          dropped.fetch_add(1);
          continue;
        }
        const double ms = rtt.seconds() * 1000.0;
        const auto doc = obs::json_parse(response);
        const obs::JsonValue* ok = doc ? doc->get("ok") : nullptr;
        if (ok == nullptr || !ok->b) {
          bad.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        latencies_ms.push_back(ms);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_s = wall.seconds();

  const std::int64_t hits = counter("svc.cache.hits") - hits0;
  const std::int64_t misses = counter("svc.cache.misses") - misses0;
  server.request_stop();
  server_thread.join();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const int total = clients * per_client;
  const int answered = static_cast<int>(latencies_ms.size());
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  const double p50 = percentile(latencies_ms, 50.0);
  const double p95 = percentile(latencies_ms, 95.0);
  const double p99 = percentile(latencies_ms, 99.0);
  const double pmax = latencies_ms.empty() ? 0.0 : latencies_ms.back();

  std::printf("clients=%d requests=%d answered=%d dropped=%d bad=%d\n",
              clients, total, answered, dropped.load(), bad.load());
  std::printf("cache: %lld hits / %lld misses (%.0f%% hit rate)\n",
              static_cast<long long>(hits), static_cast<long long>(misses),
              hit_rate * 100.0);
  std::printf("latency ms: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n", p50, p95,
              p99, pmax);
  std::printf("wall=%.2fs throughput=%.1f req/s\n", wall_s,
              wall_s > 0 ? answered / wall_s : 0.0);

  {
    std::ofstream out("BENCH_service.json", std::ios::trunc);
    if (out) {
      out << obs::JsonObject()
                 .str("bench", "service")
                 .num("clients", static_cast<std::int64_t>(clients))
                 .num("requests", static_cast<std::int64_t>(total))
                 .num("answered", static_cast<std::int64_t>(answered))
                 .num("dropped", static_cast<std::int64_t>(dropped.load()))
                 .num("bad", static_cast<std::int64_t>(bad.load()))
                 .num("workers",
                      static_cast<std::int64_t>(options.scheduler.workers))
                 .num("cache_hits", hits)
                 .num("cache_misses", misses)
                 .num("cache_hit_rate", hit_rate)
                 .num("p50_ms", p50)
                 .num("p95_ms", p95)
                 .num("p99_ms", p99)
                 .num("max_ms", pmax)
                 .num("wall_seconds", wall_s)
                 .num("throughput_rps", wall_s > 0 ? answered / wall_s : 0.0)
                 .build()
          << '\n';
      std::printf("wrote BENCH_service.json\n");
    } else {
      std::fprintf(stderr, "warning: cannot write BENCH_service.json\n");
    }
  }
  return dropped.load() == 0 && bad.load() == 0 && answered == total ? 0 : 1;
}
