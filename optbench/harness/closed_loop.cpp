// Closed-loop workloads: one caller sends a fixed request set, one
// request at a time, each a problem text carried through the
// allocate_file pipeline (parse -> SA warm start -> BIN_SEARCH ->
// rt::verify) and checked against the reference optimum before the next
// is sent.
//
//   ring-cnf         flat token-ring and CAN systems, CNF backend: sat and
//                    encode do the work; pb/check/par/svc/inc stay idle.
//   hier-pb-certify  Fig. 2 architectures, PB backend, certify on: pb
//                    propagation, multi-hop routes and check do the work.
//   portfolio        ring-cnf's set through optimize_portfolio with three
//                    cooperating workers: par and per-worker encoding.

#include <malloc.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "alloc/cost.hpp"
#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "alloc/portfolio.hpp"
#include "heur/annealing.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "rt/verify.hpp"
#include "workloads.hpp"

using namespace optalloc;

namespace optbench {

namespace {

struct Request {
  Solve solve;
  std::string text;
  alloc::Problem problem;  ///< the harness's own copy, for checking
  std::int64_t optimum = 0;
};

int portfolio_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 1, 1, 3);
}

/// Build the request set in a seeded order.
std::vector<Request> build_requests(const std::string& workload,
                                    std::uint64_t seed, const Reference& ref) {
  std::vector<Request> reqs;
  for (const Solve& s : closed_loop_instances(workload)) {
    Request r;
    r.solve = s;
    r.problem = build_instance(s.spec);
    r.text = problem_text(r.problem);
    r.optimum = ref.optimum(s.spec, s.objective);
    reqs.push_back(std::move(r));
  }
  Rng rng(seed);
  shuffle(reqs, rng);
  return reqs;
}

/// Effort of one pass, summed over its requests.
struct PassEffort {
  double encode_ms = 0, solve_ms = 0, certify_ms = 0;
  double par_encode_ms = 0, par_solve_ms = 0;  ///< summed over workers
  double vars = 0, lits = 0, pb = 0, lemmas = 0, certified = 0;
  double exported = 0, imported = 0, dropped = 0, adopted = 0;

  void add(const alloc::OptimizeStats& s) {
    encode_ms += s.encode_seconds * 1e3;
    solve_ms += s.solve_seconds * 1e3;
    certify_ms += s.certify_seconds * 1e3;
    vars += static_cast<double>(s.boolean_vars);
    lits += static_cast<double>(s.boolean_literals);
    pb += static_cast<double>(s.pb_constraints);
    lemmas += static_cast<double>(s.proof_lemmas_checked);
  }
};


/// How a workload drives the optimizer.
struct Mode {
  bool pb_certify = false;
  int threads = 1;
};

/// One request through the allocate_file pipeline: parse the text, SA
/// warm start, BIN_SEARCH (or the portfolio), rt::verify against the
/// harness's own copy of the problem. Returns the reason the answer is
/// wrong, or "" when it matches `optimum`.
std::string run_request(const Request& r, const Mode& mode, std::int64_t id,
                        PassEffort& effort) {
  Span request("request", id);
  alloc::Problem problem;
  alloc::Objective objective;
  {
    Span s("io", id);
    std::istringstream in(r.text);
    problem = alloc::parse_problem(in, r.solve.spec);
    objective = alloc::parse_objective(r.solve.objective);
  }
  alloc::OptimizeOptions opts;
  {
    Span s("heur", id);
    const auto sa = heur::anneal(problem, objective, {.iterations = 8000});
    if (sa.feasible) opts.warm_start = sa.allocation;
  }
  if (mode.pb_certify) {
    opts.encoder.backend = encode::Backend::kPbMixed;
    opts.certify = true;
  }
  alloc::OptimizeResult res;
  if (mode.threads > 1) {
    Span s("par", id);
    alloc::PortfolioOptions popts;
    popts.threads = mode.threads;
    popts.base_config = opts;
    alloc::PortfolioResult pres = alloc::optimize_portfolio(problem, objective, popts);
    for (const auto& st : pres.per_config_stats) {
      effort.par_encode_ms += st.encode_seconds * 1e3;
      effort.par_solve_ms += st.solve_seconds * 1e3;
    }
    effort.exported += static_cast<double>(pres.sharing.clauses_exported);
    effort.imported += static_cast<double>(pres.sharing.clauses_imported);
    effort.dropped += static_cast<double>(pres.sharing.pool_dropped);
    effort.adopted += static_cast<double>(pres.sharing.bounds_adopted);
    res = std::move(pres.best);
  } else {
    Span s("alloc", id);
    res = alloc::optimize(problem, objective, opts);
  }
  effort.add(res.stats);
  if (res.certified) effort.certified += 1;
  rt::VerifyReport report;
  {
    Span s("rt", id);
    report = rt::verify(r.problem.tasks, r.problem.arch, res.allocation);
  }
  if (res.status != alloc::OptimizeResult::Status::kOptimal || !res.has_allocation) {
    return "status " + res.status_string();
  }
  if (!report.feasible) return "allocation fails rt::verify";
  if (res.cost != r.optimum ||
      alloc::objective_value(r.problem, objective, res.allocation) != r.optimum) {
    return "cost " + std::to_string(res.cost) + " != reference " + std::to_string(r.optimum);
  }
  if (mode.pb_certify && !res.certified) return "not certified: " + res.certify_error;
  return "";
}

}  // namespace

std::vector<Solve> closed_loop_instances(const std::string& workload) {
  if (workload == "ring-cnf" || workload == "portfolio") {
    return {{"tindell:12", "trt:0"}, {"tindell:16", "trt:0"},
            {"tindell:20", "trt:0"}, {"can:8", "can-load:0"},
            {"can:10", "can-load:0"}, {"gen:12:6:101", "sum-trt"},
            {"gen:12:5:204", "sum-trt"}};
  }
  if (workload == "hier-pb-certify") {
    return {{"archA:8", "sum-trt"}, {"archB:6", "sum-trt"},
            {"archC:10", "sum-trt"}, {"archC+can:8", "sum-trt"}};
  }
  throw std::runtime_error("unknown closed-loop workload " + workload);
}

Solve warm_up_instance() { return {"gen:6:3:7", "sum-trt"}; }

RunResult run_closed_loop(const RunConfig& cfg, const Reference& ref) {
  RunResult out;
  const Mode mode{cfg.workload == "hier-pb-certify",
                  cfg.workload == "portfolio" ? portfolio_threads() : 1};

  // Set-up: everything before the first timed request — building the
  // inputs, and one warm-up request through the same pipeline on a small
  // instance outside the set, so lazy initialisation is not timed.
  std::vector<Request> reqs;
  std::vector<double> setup_s;
  Request warm_up;
  warm_up.solve = warm_up_instance();
  warm_up.problem = build_instance(warm_up.solve.spec);
  warm_up.text = problem_text(warm_up.problem);
  warm_up.optimum = ref.optimum(warm_up.solve.spec, warm_up.solve.objective);
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_s();
    reqs = build_requests(cfg.workload, cfg.seed, ref);
    PassEffort ignored;
    if (const std::string why = run_request(warm_up, mode, -1, ignored); !why.empty()) {
      out.fail("warm-up " + warm_up.solve.spec + ": " + why);
    }
    setup_s.push_back(now_s() - t0);
  }

  std::vector<double> answer_ms, pass_s, traced_pass_s;
  std::vector<LayerValues> layers;
  std::int64_t req_id = 0;
  for (int pass = 0; pass < cfg.passes; ++pass) {
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured inside one process.
    const bool traced = cfg.trace && pass % 2 == 1;
    tracer().set_enabled(traced);
    obs::set_phase_timing(traced);
    obs::reset_metrics();
    const std::size_t span_mark = tracer().size();
    PassEffort effort;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    for (const Request& r : reqs) {
      // Hand freed heap back to the system between requests, as separate
      // CLI runs would, so peak RSS does not depend on request order.
      malloc_trim(0);
      ++out.attempted;
      const double r0 = now_s();
      // The answer is checked before the next request is sent.
      const std::string why = run_request(r, mode, req_id++, effort);
      if (!why.empty()) out.fail(r.solve.spec + " " + r.solve.objective + ": " + why);
      if (!traced) answer_ms.push_back((now_s() - r0) * 1e3);
    }
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - cpu0;
    (traced ? traced_pass_s : pass_s).push_back(wall);
    if (!traced) continue;

    LayerValues lv = registry_layers();
    const auto self = tracer().self_ms(span_mark);
    const auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    lv["io.parse_ms"] = self_of("io");
    lv["heur.anneal_ms"] = self_of("heur");
    lv["rt.verify_ms"] = self_of("rt");
    lv["encode.build_ms"] = effort.encode_ms;
    // The sat timers add up over every worker, so the portfolio's solve
    // time does too.
    lv["opt.solve_ms"] = mode.threads > 1 ? effort.par_solve_ms : effort.solve_ms;
    lv["sat.other_ms"] = lv["opt.solve_ms"] - lv["sat.propagate_ms"] -
                         lv["sat.analyze_ms"] - lv["sat.reduce_ms"];
    lv["encode.vars"] = effort.vars;
    lv["encode.lits"] = effort.lits;
    lv["encode.pb_constraints"] = effort.pb;
    lv["check.certify_ms"] = effort.certify_ms;
    lv["check.lemmas"] = effort.lemmas;
    lv["check.certified_ratio"] = effort.certified / static_cast<double>(reqs.size());
    lv["par.clauses_exported"] = effort.exported;
    lv["par.clauses_imported"] = effort.imported;
    lv["par.pool_dropped"] = effort.dropped;
    lv["par.bounds_adopted"] = effort.adopted;
    lv["par.encode_ms_sum"] = effort.par_encode_ms;
    if (mode.threads > 1) lv["par.cpu_per_wall"] = cpu / wall;
    lv["proc.cpu_s"] = cpu;
    layers.push_back(std::move(lv));
  }
  tracer().set_enabled(false);
  obs::set_phase_timing(false);

  if (cfg.trace) {
    LayerValues lv = median_layers(layers);
    lv["obs.trace_overhead_ratio"] = median(traced_pass_s) / median(pass_s);
    out.values = std::move(lv);
  } else {
    out.values["setup_s"] = median(setup_s);
    out.values["batch_s"] = median(pass_s);
    out.values["answer_ms.geomean"] = geomean(answer_ms);
    out.values["peak_rss_mb"] = peak_rss_mb();
  }
  return out;
}

}  // namespace optbench
