// optbench harness: runs one workload against the optalloc libraries
// through their public APIs and prints one JSON result line.
//
//   optbench --workload W --seed N --trace 0|1 --reference FILE [--spans FILE]
//
// One process runs the workload's request set once (traced: once untraced,
// then once traced); run.py repeats processes for the run's seconds and
// reports medians across them.
//   optbench --make-reference     (prints the reference file to stdout)
//
// Exit status: 0 when every answer was correct, 1 when one was wrong,
// 2 on a usage or set-up error (no result line then).

#include <cstdio>
#include <exception>
#include <string>

#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "heur/exhaustive.hpp"
#include "workloads.hpp"

using namespace optalloc;
using namespace optbench;

namespace optbench {

const std::vector<LayerMetric>& end_to_end_metrics() {
  static const std::vector<LayerMetric> m = {
      {"setup_s", "s"},
      {"batch_s", "s"},
      {"answer_ms.geomean", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> m = {
      {"io.parse_ms", "ms"},
      {"heur.anneal_ms", "ms"},
      {"encode.build_ms", "ms"},
      {"encode.vars", "count"},
      {"encode.lits", "count"},
      {"encode.pb_constraints", "count"},
      {"opt.sat_calls", "count"},
      {"opt.sat_calls_unsat", "count"},
      {"opt.solve_ms", "ms"},
      {"sat.conflicts", "count"},
      {"sat.decisions", "count"},
      {"sat.propagations", "count"},
      {"sat.propagate_ms", "ms"},
      {"sat.analyze_ms", "ms"},
      {"sat.reduce_ms", "ms"},
      {"sat.other_ms", "ms"},
      {"sat.props_per_s", "1/s"},
      {"sat.inprocess.eliminated", "count"},
      {"sat.inprocess.subsumed", "count"},
      {"pb.theory_props", "count"},
      {"pb.translate_ms", "ms"},
      {"check.certify_ms", "ms"},
      {"check.lemmas", "count"},
      {"check.certified_ratio", "ratio"},
      {"rt.verify_ms", "ms"},
      {"par.clauses_exported", "count"},
      {"par.clauses_imported", "count"},
      {"par.pool_dropped", "count"},
      {"par.bounds_adopted", "count"},
      {"par.encode_ms_sum", "ms"},
      {"par.cpu_per_wall", "ratio"},
      {"svc.parse_request_us", "us"},
      {"svc.canonicalize_us", "us"},
      {"svc.cache_lookup_ms.p50", "ms"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.dup_solves", "count"},
      {"svc.bad_objective_unrefused", "count"},
      {"svc.queue_wait_ms.p50", "ms"},
      {"svc.queue_wait_ms.p99", "ms"},
      {"svc.worker_busy_ratio", "ratio"},
      {"inc.revise_ms.p50", "ms"},
      {"inc.dead_guard_ratio", "ratio"},
      {"inc.session_bytes", "bytes"},
      {"mix.cold_ms.p50", "ms"},
      {"mix.repeat_ms.p50", "ms"},
      {"mix.revise_ms.p50", "ms"},
      {"mix.latency_ms.p80", "ms"},
      {"mix.goodput_rps", "1/s"},
      {"mix.load_ratio", "ratio"},
      {"loadgen.late_ms.p99", "ms"},
      {"proc.cpu_s", "s"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"host.calib_ms.start", "ms"},
      {"host.calib_ms.end", "ms"},
  };
  return m;
}

}  // namespace optbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: optbench --workload W --seed N --trace 0|1 --reference FILE "
               "[--spans FILE]\n"
               "       optbench --make-reference\n");
  return 2;
}

/// Certified solve of one reference entry, cross-checked by exhaustive
/// search where that is exact (when `exhaustive` is set). Returns the
/// reference line.
std::string reference_line(const std::string& spec, const alloc::Problem& p,
                           const std::string& objective_spec, bool exhaustive) {
  const alloc::Objective objective = alloc::parse_objective(objective_spec);
  alloc::OptimizeOptions opts;
  opts.certify = true;
  const alloc::OptimizeResult res = alloc::optimize(p, objective, opts);
  if (!res.certified) {
    throw std::runtime_error(spec + ": certified solve failed: " + res.certify_error);
  }
  const bool infeasible = res.status == alloc::OptimizeResult::Status::kInfeasible;
  std::string method = "certified";
  if (const auto exh = exhaustive ? heur::exhaustive_search(p, objective) : std::nullopt;
      exh && exh->exact) {
    const std::int64_t exh_cost = exh->feasible ? exh->cost : -1;
    if (exh_cost != (infeasible ? -1 : res.cost)) {
      throw std::runtime_error(spec + ": exhaustive search disagrees with certified optimum");
    }
    method += "+exhaustive";
  }
  return spec + " " + objective_spec + " " +
         (infeasible ? std::string("infeasible") : std::to_string(res.cost)) + " " +
         method;
}

int make_reference() {
  std::printf("# Proven optima of every optbench input: <spec> <objective> "
              "<optimum|infeasible> <method>.\n"
              "# Regenerate with the harness's --make-reference mode.\n");
  std::vector<Solve> all = {warm_up_instance()};
  for (const char* w : {"ring-cnf", "hier-pb-certify"}) {
    for (const Solve& s : closed_loop_instances(w)) all.push_back(s);
  }
  const std::size_t closed = all.size();
  for (const Solve& s : service_instances()) all.push_back(s);
  // The service-mix inputs (10 tasks on a 4-ECU ring) are single-ring and
  // in reach of the default cap, but each takes about three hours: 166k to
  // 393k placements, each enumerating its slot tables (42 to 67 ms per
  // placement, sampled). They rest on the certified solve alone.
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Solve& s = all[i];
    std::printf("%s\n",
                reference_line(s.spec, build_instance(s.spec), s.objective, i < closed).c_str());
    std::fflush(stdout);
  }
  for (const std::string& base : session_bases()) {
    const alloc::Problem p = build_instance(base);
    const auto chain = edit_chain(p);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      std::printf("%s\n", reference_line(step_key(base, i), apply_chain(p, chain, i),
                                         "sum-trt", false)
                              .c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string reference_path, spans_path;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
        return argv[++i];
      };
      if (a == "--make-reference") return make_reference();
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--trace") {
        cfg.trace = value() == "1";
      } else if (a == "--reference") {
        reference_path = value();
      } else if (a == "--spans") {
        spans_path = value();
      } else {
        return usage();
      }
    }
    if (cfg.workload.empty() || !have_seed || reference_path.empty()) return usage();
    cfg.passes = cfg.trace ? 2 : 1;

    const Reference ref = Reference::load(reference_path);
    const double calib_start = host_calibration_ms();
    RunResult res = cfg.workload == "service-mix" ? run_service_mix(cfg, ref)
                                                  : run_closed_loop(cfg, ref);
    const double calib_end = host_calibration_ms();
    res.values["host.calib_ms.start"] = calib_start;
    res.values["host.calib_ms.end"] = calib_end;
    for (const std::string& e : res.errors) {
      std::fprintf(stderr, "optbench: wrong answer: %s\n", e.c_str());
    }
    if (cfg.trace && !spans_path.empty() && !tracer().write_jsonl(spans_path)) {
      std::fprintf(stderr, "optbench: cannot write spans to %s\n", spans_path.c_str());
      return 2;
    }

    // The host probe goes on its own line in every run; the result line
    // carries exactly the metrics of the mode.
    std::printf("{\"host.calib_ms.start\": %.6f, \"host.calib_ms.end\": %.6f}\n",
                calib_start, calib_end);
    // Values keep all their digits (obs::json_number rounds to 6).
    std::string metrics;
    for (const LayerMetric& m : cfg.trace ? layer_metrics() : end_to_end_metrics()) {
      const auto it = res.values.find(m.name);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name,
                    it == res.values.end() ? 0.0 : it->second, m.unit);
      metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                res.correct ? "true" : "false", static_cast<long long>(res.attempted),
                static_cast<long long>(res.failed), metrics.c_str());
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "optbench: %s\n", e.what());
    return 2;
  }
}
