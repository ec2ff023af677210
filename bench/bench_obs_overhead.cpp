// Observability overhead bench: the same optimization workload under the
// telemetry configurations —
//   off        tracing off, flight recorder off (the hot-path baseline:
//              every producer site pays one relaxed atomic load)
//   flight     flight recorder on, tracing off — the production default
//              (the recorder is always-on); the gate below keys on it
//   trace      tracing on (to a file), flight recorder off
//   all        tracing and flight recorder on
// Counters, levels and histograms have no switch and are on in every
// config: they are relaxed adds into per-thread shards, part of the
// baseline.
//
// The configs run in interleaved rounds — each round runs every config
// once, starting one config later than the round before — so a drift in
// the host's speed during the run lands on all configs alike. The
// default of 8 rounds puts every config in every position twice. Each
// config reports the median and the spread (distance between the
// quartiles, as a fraction of the median) of its per-run seconds.
//
// Gate: the flight recorder is the always-on post-mortem path and may
// cost at most 5% of solve time. The bench exits 1 when the flight
// config's median exceeds off's median by more than 5% plus off's own
// spread — an overhead the host's run-to-run noise cannot explain.
//
// Environment knobs:
//   OPTALLOC_OBS_BENCH_REPEATS  rounds, i.e. optimize() runs per config
//                               (default 8)
//
// Writes BENCH_obs_overhead.json with the per-config medians, spreads
// and overhead ratios against off.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "alloc/optimizer.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"

using namespace optalloc;

namespace {

constexpr double kFlightBudget = 0.05;

int rounds() {
  if (const char* env = std::getenv("OPTALLOC_OBS_BENCH_REPEATS")) {
    return std::max(1, std::atoi(env));
  }
  return 8;
}

struct Config {
  const char* name;
  bool trace;
  bool flight;
  std::vector<double> seconds;  ///< one entry per round
};

/// One timed optimize() run of `problem` under `cfg`.
double run_once(const alloc::Problem& problem, const Config& cfg,
                const std::string& trace_path) {
  obs::set_flight(cfg.flight);
  if (cfg.trace && !obs::trace_open(trace_path)) {
    std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
    std::exit(1);
  }
  alloc::OptimizeOptions opts;
  opts.time_limit_s = 60.0;
  Stopwatch sw;
  const auto res = alloc::optimize(problem, alloc::Objective::sum_trt(), opts);
  const double secs = sw.seconds();
  if (cfg.trace) obs::trace_close();
  obs::set_flight(true);
  if (res.status != alloc::OptimizeResult::Status::kOptimal) {
    std::fprintf(stderr, "bench instance did not reach the optimum\n");
    std::exit(1);
  }
  return secs;
}

/// Linearly interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Interquartile distance as a fraction of the median.
double spread(const std::vector<double>& v) {
  return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v);
}

}  // namespace

int main() {
  workload::GenOptions gen;
  gen.num_tasks = 20;
  gen.num_ecus = 5;
  const alloc::Problem problem = workload::generate(gen);
  const int n_rounds = rounds();
  const std::string trace_path = "BENCH_obs_overhead_trace.jsonl";

  std::vector<Config> configs = {
      {"off", false, false, {}},
      {"flight", false, true, {}},
      {"trace", true, false, {}},
      {"all", true, true, {}},
  };
  const std::size_t n = configs.size();

  std::printf("observability overhead: %d interleaved rounds of %zu configs\n",
              n_rounds, n);
  // Warm-up run (allocator, branch predictors, metric registrations) so
  // the first measured config isn't penalized.
  run_once(problem, configs[0], trace_path);
  for (int r = 0; r < n_rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      Config& cfg = configs[(static_cast<std::size_t>(r) + i) % n];
      cfg.seconds.push_back(run_once(problem, cfg, trace_path));
    }
  }

  const double off_median = median(configs[0].seconds);
  const double off_spread = spread(configs[0].seconds);
  std::printf("%-8s %10s %8s %8s\n", "config", "median_s", "spread",
              "vs off");
  obs::JsonArray rows;
  double flight_ratio = 1.0;
  for (const Config& cfg : configs) {
    const double med = median(cfg.seconds);
    const double ratio = med / off_median;
    if (std::string(cfg.name) == "flight") flight_ratio = ratio;
    std::printf("%-8s %10.3f %7.1f%% %7.3fx\n", cfg.name, med,
                spread(cfg.seconds) * 100.0, ratio);
    obs::JsonArray runs;
    for (const double s : cfg.seconds) runs.push(obs::json_number(s));
    rows.push(obs::JsonObject()
                  .str("config", cfg.name)
                  .boolean("trace", cfg.trace)
                  .boolean("flight", cfg.flight)
                  .num("median_seconds", med)
                  .num("spread", spread(cfg.seconds))
                  .num("overhead_ratio", ratio)
                  .raw("seconds", runs.build())
                  .build());
  }
  const double allowed = kFlightBudget + off_spread;
  const bool flight_ok = flight_ratio - 1.0 <= allowed;
  std::printf(
      "flight-recorder overhead: %.1f%% (budget 5%% + off's spread %.1f%% "
      "= %.1f%%) -> %s\n",
      (flight_ratio - 1.0) * 100.0, off_spread * 100.0, allowed * 100.0,
      flight_ok ? "OK" : "OVER");

  const std::string path = "BENCH_obs_overhead.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return 1;
  }
  out << obs::JsonObject()
             .str("bench", "obs_overhead")
             .num("rounds", static_cast<std::int64_t>(n_rounds))
             .num("tasks", static_cast<std::int64_t>(gen.num_tasks))
             .num("ecus", static_cast<std::int64_t>(gen.num_ecus))
             .num("flight_overhead_ratio", flight_ratio)
             .num("flight_overhead_allowed", allowed)
             .boolean("flight_overhead_ok", flight_ok)
             .raw("configs", rows.build())
             .build()
      << '\n';
  std::printf("wrote %s\n", path.c_str());
  return flight_ok ? 0 : 1;
}
