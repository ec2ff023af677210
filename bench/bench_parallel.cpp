// Cooperative-portfolio scaling benchmark: Table-4-class hierarchical
// instances solved by 1/2/4/8 diversified CDCL workers, with the sharing
// layer (clause exchange + bound broadcasting, see src/par) switched on
// and off. "off" is the classic independent portfolio race — the same
// worker configurations with no communication — so each row pair isolates
// what cooperation buys at that scale. Every run must end on the same
// optimum (the sharing layer changes how fast the search converges, never
// where); the bench cross-checks that and reports per-row medians over
// OPTALLOC_PAR_REPEATS repetitions.
//
// Environment knobs (on top of bench_common's):
//   OPTALLOC_PAR_TASKS    Tindell-prefix size per instance (default 22)
//   OPTALLOC_PAR_REPEATS  repetitions per row, median reported (default 3)
//
// Emits BENCH_parallel.json: one row per (instance, workers, sharing)
// with wall seconds (median + all), SOLVE calls, exchanged-clause and
// bound-update counts, plus per-instance speedup summaries.

#include <algorithm>
#include <string>
#include <vector>

#include "alloc/portfolio.hpp"
#include "bench_common.hpp"
#include "workload/tindell.hpp"

using namespace optalloc;

namespace {

int par_tasks() {
  if (const char* env = std::getenv("OPTALLOC_PAR_TASKS")) {
    return std::atoi(env);
  }
  return 22;
}

int par_repeats() {
  if (const char* env = std::getenv("OPTALLOC_PAR_REPEATS")) {
    return std::atoi(env);
  }
  return 3;
}

struct Row {
  int workers = 0;
  bool sharing = false;
  double median_s = 0.0;
  std::vector<double> all_s;
  alloc::PortfolioResult last;
  bool consistent = true;  ///< every repeat reached the same definitive cost
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Row run_row(const alloc::Problem& problem, alloc::Objective objective,
            const alloc::OptimizeOptions& base, int workers, bool sharing,
            int repeats, std::int64_t* expected_cost, bool* expected_known) {
  Row row;
  row.workers = workers;
  row.sharing = sharing;
  for (int r = 0; r < repeats; ++r) {
    alloc::PortfolioOptions popts;
    popts.threads = workers;
    popts.base_config = base;
    popts.share = sharing;
    Stopwatch sw;
    alloc::PortfolioResult res =
        alloc::optimize_portfolio(problem, objective, popts);
    row.all_s.push_back(sw.seconds());
    if (res.best.status == alloc::OptimizeResult::Status::kOptimal) {
      if (!*expected_known) {
        *expected_known = true;
        *expected_cost = res.best.cost;
      } else if (res.best.cost != *expected_cost) {
        row.consistent = false;
      }
    }
    row.last = std::move(res);
  }
  row.median_s = median(row.all_s);
  return row;
}

}  // namespace

int main() {
  const int tasks = par_tasks();
  const int repeats = par_repeats();
  char title[160];
  std::snprintf(title, sizeof title,
                "Parallel scaling — cooperative portfolio (clause + bound "
                "sharing) vs independent race, %d tasks, %d repeats",
                tasks, repeats);
  bench::print_header(title,
                      "no paper counterpart; the paper's runs are "
                      "single-threaded (Section 7)");

  struct Instance {
    const char* name;
    alloc::Problem problem;
  };
  std::vector<Instance> instances;
  instances.push_back({"A", workload::architecture_a(tasks)});
  instances.push_back({"C", workload::architecture_c(false, tasks)});
  const alloc::Objective objective = alloc::Objective::sum_trt();
  const std::vector<int> worker_counts = {1, 2, 4, 8};

  obs::JsonArray json_instances;
  std::vector<double> race_speedups;
  bool all_consistent = true;
  for (Instance& inst : instances) {
    // One annealing seed per instance, shared by every row, so worker
    // counts are compared from an identical starting interval.
    heur::AnnealingOptions sa_opts;
    sa_opts.iterations = bench::sa_iterations();
    const auto sa = heur::anneal(inst.problem, objective, sa_opts);
    alloc::OptimizeOptions base;
    base.time_limit_s = bench::budget_seconds();
    if (sa.feasible) base.warm_start = sa.allocation;

    std::printf("\ninstance %s (%d tasks)\n", inst.name, tasks);
    std::printf("%-8s %-9s %-10s %-22s %-9s %-9s %s\n", "workers", "sharing",
                "median", "result", "exported", "imported", "bounds");
    std::int64_t expected_cost = 0;
    bool expected_known = false;
    std::vector<Row> rows;
    for (const int w : worker_counts) {
      for (const bool sharing : {false, true}) {
        if (w == 1 && sharing) continue;  // nobody to share with
        Row row = run_row(inst.problem, objective, base, w, sharing, repeats,
                          &expected_cost, &expected_known);
        all_consistent = all_consistent && row.consistent;
        std::printf("%-8d %-9s %-10s %-22s %-9llu %-9llu %llu/%llu\n", w,
                    sharing ? "on" : "off",
                    Stopwatch::pretty_seconds(row.median_s).c_str(),
                    bench::result_cell(row.last.best).c_str(),
                    static_cast<unsigned long long>(
                        row.last.sharing.clauses_exported),
                    static_cast<unsigned long long>(
                        row.last.sharing.clauses_imported),
                    static_cast<unsigned long long>(
                        row.last.sharing.bounds_published),
                    static_cast<unsigned long long>(
                        row.last.sharing.bounds_adopted));
        std::fflush(stdout);
        rows.push_back(std::move(row));
      }
    }

    auto median_of = [&](int w, bool sharing) -> double {
      for (const Row& r : rows) {
        if (r.workers == w && r.sharing == sharing) return r.median_s;
      }
      return 0.0;
    };
    const double base_1 = median_of(1, false);
    const double race_4 = median_of(4, false);
    const double coop_4 = median_of(4, true);
    const double speedup_vs_serial = coop_4 > 0.0 ? base_1 / coop_4 : 0.0;
    const double speedup_vs_race = coop_4 > 0.0 ? race_4 / coop_4 : 0.0;
    std::printf("  4-worker cooperative speedup: %.2fx vs 1 worker, "
                "%.2fx vs independent 4-worker race\n",
                speedup_vs_serial, speedup_vs_race);
    race_speedups.push_back(speedup_vs_race);

    obs::JsonArray json_rows;
    for (const Row& r : rows) {
      obs::JsonObject jr;
      jr.num("workers", static_cast<std::int64_t>(r.workers))
          .boolean("sharing", r.sharing)
          .num("median_seconds", r.median_s);
      obs::JsonArray times;
      for (const double s : r.all_s) times.push(obs::json_number(s));
      jr.raw("seconds", times.build())
          .str("status", r.last.best.status_string());
      if (r.last.best.has_allocation) jr.num("cost", r.last.best.cost);
      jr.num("sat_calls", [&] {
          std::int64_t calls = 0;
          for (const auto& s : r.last.per_config_stats) calls += s.sat_calls;
          return calls;
        }())
          .num("clauses_exported",
               static_cast<std::int64_t>(r.last.sharing.clauses_exported))
          .num("clauses_imported",
               static_cast<std::int64_t>(r.last.sharing.clauses_imported))
          .num("bounds_published",
               static_cast<std::int64_t>(r.last.sharing.bounds_published))
          .num("bounds_adopted",
               static_cast<std::int64_t>(r.last.sharing.bounds_adopted))
          .num("pool_dropped",
               static_cast<std::int64_t>(r.last.sharing.pool_dropped))
          .boolean("consistent", r.consistent);
      json_rows.push(jr.build());
    }
    obs::JsonObject ji;
    ji.str("instance", inst.name)
        .raw("rows", json_rows.build())
        .num("speedup_4w_vs_serial", speedup_vs_serial)
        .num("speedup_4w_vs_race", speedup_vs_race);
    if (expected_known) ji.num("optimum", expected_cost);
    json_instances.push(ji.build());
  }

  const double median_race_speedup = median(race_speedups);
  std::printf("\nmedian 4-worker speedup, sharing on vs independent race: "
              "%.2fx\n",
              median_race_speedup);
  std::printf("optima consistent across all runs: %s\n",
              all_consistent ? "yes" : "NO");
  {
    std::ofstream out("BENCH_parallel.json", std::ios::trunc);
    if (out) {
      out << obs::JsonObject()
                 .str("bench", "parallel")
                 .num("tasks", static_cast<std::int64_t>(tasks))
                 .num("repeats", static_cast<std::int64_t>(repeats))
                 .num("budget_seconds", bench::budget_seconds())
                 .num("median_speedup_4w_vs_race", median_race_speedup)
                 .boolean("consistent", all_consistent)
                 .raw("instances", json_instances.build())
                 .build()
          << '\n';
      std::printf("wrote BENCH_parallel.json\n");
    } else {
      std::fprintf(stderr, "warning: cannot write BENCH_parallel.json\n");
    }
  }
  return all_consistent ? 0 : 1;
}
