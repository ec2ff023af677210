// Observability overhead bench: the same optimization workload under the
// telemetry configurations —
//   off        tracing off, histograms off, flight recorder off (the
//              hot-path baseline: every producer site pays one relaxed
//              atomic load)
//   flight     flight recorder on, everything else off — the production
//              default (the recorder is always-on); the gate below keys
//              on this config
//   hist       tracing off, histograms on (bucket index + two relaxed
//              atomic adds per observation)
//   trace      tracing on (to a file), histograms off
//   all        everything on (trace + histograms + flight)
// — and writes BENCH_obs_overhead.json with per-config wall times and
// the overhead ratio of each config against "off". Acceptance gates:
// tracing-off overhead must stay within noise (a few percent) of the
// untelemetered baseline, because production services run that way; the
// flight recorder (on, trace off) must cost <= 5% — it is the always-on
// post-mortem path and may not tax the solver. Counters and resource
// levels have no switch and are on in every config: they are relaxed
// adds into per-thread shards, part of the baseline.
//
// Environment knobs:
//   OPTALLOC_OBS_BENCH_REPEATS  optimize() runs per config (default 5)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "alloc/optimizer.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"

using namespace optalloc;

namespace {

int repeats() {
  if (const char* env = std::getenv("OPTALLOC_OBS_BENCH_REPEATS")) {
    return std::max(1, std::atoi(env));
  }
  return 5;
}

struct Config {
  const char* name;
  bool trace;
  bool histograms;
  bool flight;
};

/// One timed pass: `reps` full optimize() runs over the same instance.
double run_config(const alloc::Problem& problem, const Config& cfg,
                  int reps, const std::string& trace_path) {
  obs::set_histograms(cfg.histograms);
  obs::set_flight(cfg.flight);
  if (cfg.trace) {
    if (!obs::trace_open(trace_path)) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      std::exit(1);
    }
  }
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) {
    alloc::OptimizeOptions opts;
    opts.time_limit_s = 60.0;
    const auto res =
        alloc::optimize(problem, alloc::Objective::sum_trt(), opts);
    if (res.status != alloc::OptimizeResult::Status::kOptimal) {
      std::fprintf(stderr, "bench instance did not reach the optimum\n");
      std::exit(1);
    }
  }
  const double secs = sw.seconds();
  if (cfg.trace) obs::trace_close();
  obs::set_histograms(true);
  obs::set_flight(true);
  return secs;
}

}  // namespace

int main() {
  workload::GenOptions gen;
  gen.num_tasks = 20;
  gen.num_ecus = 5;
  const alloc::Problem problem = workload::generate(gen);
  const int reps = repeats();

  const Config configs[] = {
      {"off", false, false, false},
      {"flight", false, false, true},
      {"hist", false, true, false},
      {"trace", true, false, false},
      {"all", true, true, true},
  };

  std::printf("observability overhead: %d optimize() runs per config\n",
              reps);
  std::printf("%-12s %10s %10s\n", "config", "seconds", "vs off");

  // Warm-up pass (allocator, branch predictors, metric registrations) so
  // the first measured config isn't penalized.
  run_config(problem, configs[0], 1, "");

  obs::JsonArray rows;
  double baseline = 0.0;
  double flight_ratio = 1.0;
  for (const Config& cfg : configs) {
    const double secs =
        run_config(problem, cfg, reps, "BENCH_obs_overhead_trace.jsonl");
    if (baseline == 0.0) baseline = secs;
    const double ratio = baseline > 0.0 ? secs / baseline : 1.0;
    if (std::string(cfg.name) == "flight") flight_ratio = ratio;
    std::printf("%-12s %10.3f %9.3fx\n", cfg.name, secs, ratio);
    rows.push(obs::JsonObject()
                  .str("config", cfg.name)
                  .boolean("trace", cfg.trace)
                  .boolean("histograms", cfg.histograms)
                  .boolean("flight", cfg.flight)
                  .num("seconds", secs)
                  .num("seconds_per_run", secs / reps)
                  .num("overhead_ratio", ratio)
                  .build());
  }
  // The flight recorder is always-on in production: 5% budget.
  const bool flight_ok = flight_ratio <= 1.05;
  std::printf("flight-recorder overhead: %.1f%% (budget 5%%) -> %s\n",
              (flight_ratio - 1.0) * 100.0, flight_ok ? "OK" : "OVER");

  const std::string path = "BENCH_obs_overhead.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return 1;
  }
  out << obs::JsonObject()
             .str("bench", "obs_overhead")
             .num("repeats", static_cast<std::int64_t>(reps))
             .num("tasks", static_cast<std::int64_t>(gen.num_tasks))
             .num("ecus", static_cast<std::int64_t>(gen.num_ecus))
             .num("flight_overhead_ratio", flight_ratio)
             .boolean("flight_overhead_ok", flight_ok)
             .raw("configs", rows.build())
             .build()
      << '\n';
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
