#include "alloc/optimizer.hpp"

#include <cstdio>
#include <memory>
#include <vector>

#include "alloc/cost.hpp"
#include "check/drat.hpp"
#include "check/model.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/sharing.hpp"
#include "rt/verify.hpp"
#include "sat/proof.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace optalloc::alloc {

namespace {

/// Accumulate solver statistics into the result.
void absorb_stats(OptimizeStats& stats, const AllocEncoder& enc) {
  stats.boolean_vars += enc.solver().num_vars();
  stats.boolean_literals += enc.solver().stats().added_literals;
  stats.conflicts += enc.solver().stats().conflicts;
  stats.pb_constraints += enc.pb().stats().constraints;
  stats.clauses_exported += enc.solver().stats().clauses_exported;
  stats.clauses_imported += enc.solver().stats().clauses_imported;
}

/// Apply the per-worker diversification knobs to a freshly built solver.
/// Must run before build(): default_polarity seeds every new variable's
/// initial phase at creation time.
void apply_tuning(sat::Solver& solver, const SolverTuning& t) {
  solver.var_decay = t.var_decay;
  solver.restart_base = t.restart_base;
  solver.default_polarity = t.default_polarity;
  solver.random_branch_freq = t.random_branch_freq;
  if (t.seed != 0) solver.set_random_seed(t.seed);
}

void apply_inprocess(sat::Solver& solver, const OptimizeOptions& options) {
  solver.inprocess = options.inprocess;
  if (options.inprocess_interval > 0) {
    solver.inprocess_interval = options.inprocess_interval;
  }
}

const char* verdict_name(sat::LBool v) {
  switch (v) {
    case sat::LBool::kTrue: return "sat";
    case sat::LBool::kFalse: return "unsat";
    case sat::LBool::kUndef: return "undef";
  }
  return "?";
}

/// Distribution metrics for the phases a request's cost decomposes into
/// (trace spans carry the same names' timings per request; these carry
/// the aggregate shape across requests).
obs::Metric encode_ms_hist() {
  static const obs::Metric m = obs::histogram("opt.encode_ms");
  return m;
}
obs::Metric solve_conflicts_hist() {
  static const obs::Metric m = obs::histogram("opt.solve_conflicts");
  return m;
}

/// Fold one finished optimize() run into the global metrics registry.
void flush_optimize_metrics(const OptimizeResult& result) {
  static const obs::Metric runs = obs::counter("opt.runs");
  static const obs::Metric optimal = obs::counter("opt.optimal");
  static const obs::Metric calls = obs::counter("opt.sat_calls");
  static const obs::Metric calls_sat = obs::counter("opt.sat_calls_sat");
  static const obs::Metric calls_unsat = obs::counter("opt.sat_calls_unsat");
  static const obs::Metric t_total = obs::timer("opt.time.total");
  static const obs::Metric t_encode = obs::timer("opt.time.encode");
  static const obs::Metric t_solve = obs::timer("opt.time.solve");
  obs::add(runs, 1);
  if (result.status == OptimizeResult::Status::kOptimal) obs::add(optimal, 1);
  obs::add(calls, result.stats.sat_calls);
  obs::add(calls_sat, result.stats.sat_calls_sat);
  obs::add(calls_unsat, result.stats.sat_calls_unsat);
  obs::record(t_total, result.stats.seconds);
  obs::record(t_encode, result.stats.encode_seconds);
  obs::record(t_solve, result.stats.solve_seconds);
}

}  // namespace

std::string OptimizeStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "calls=%d (%d sat / %d unsat) encode=%.3fs solve=%.3fs "
                "total=%.3fs vars=%lld lits=%llu conflicts=%llu pb=%llu",
                sat_calls, sat_calls_sat, sat_calls_unsat, encode_seconds,
                solve_seconds, seconds, static_cast<long long>(boolean_vars),
                static_cast<unsigned long long>(boolean_literals),
                static_cast<unsigned long long>(conflicts),
                static_cast<unsigned long long>(pb_constraints));
  std::string s = buf;
  if (clauses_exported > 0 || clauses_imported > 0 || bounds_published > 0 ||
      bounds_adopted > 0) {
    std::snprintf(buf, sizeof buf,
                  " share: exported=%llu imported=%llu bounds_pub=%llu "
                  "bounds_adopt=%llu",
                  static_cast<unsigned long long>(clauses_exported),
                  static_cast<unsigned long long>(clauses_imported),
                  static_cast<unsigned long long>(bounds_published),
                  static_cast<unsigned long long>(bounds_adopted));
    s += buf;
  }
  if (models_certified > 0 || proofs_certified > 0) {
    std::snprintf(buf, sizeof buf,
                  " certify: models=%d proofs=%d lemmas=%llu time=%.3fs",
                  models_certified, proofs_certified,
                  static_cast<unsigned long long>(proof_lemmas_checked),
                  certify_seconds);
    s += buf;
  }
  return s;
}

OptimizeResult optimize(const Problem& problem, Objective objective,
                        const OptimizeOptions& options) {
  OptimizeResult result;
  Stopwatch total;

  auto out_of_time = [&] {
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      return true;
    }
    return options.time_limit_s > 0.0 && total.seconds() >= options.time_limit_s;
  };
  auto call_budget = [&]() -> sat::Budget {
    sat::Budget b = options.per_call;
    b.stop = options.stop;
    if (options.time_limit_s > 0.0) {
      const double remaining = options.time_limit_s - total.seconds();
      if (b.seconds <= 0.0 || remaining < b.seconds) {
        b.seconds = std::max(0.001, remaining);
      }
    }
    return b;
  };

  // CDCL conflicts consumed across all SOLVE calls so far (the per-call
  // solver stats are only absorbed into result.stats at the end).
  std::uint64_t conflicts_seen = 0;

  // Anytime progress: invoked after the initial solution and after every
  // interval-narrowing SOLVE; mirrored as an "interval" trace event and
  // a flight-recorder note (so a post-mortem shows the proven interval).
  auto report_progress = [&](std::int64_t lower, std::int64_t upper) {
    if (obs::flight_enabled()) {
      obs::FlightNote("interval")
          .num("lower", lower)
          .num("upper", upper)
          .num("sat_calls", result.stats.sat_calls);
    }
    if (obs::trace_enabled()) {
      obs::TraceEvent e("interval");
      e.num("lower", lower).num("upper", upper);
      if (result.has_allocation) e.num("incumbent", result.cost);
      e.num("sat_calls", result.stats.sat_calls);
    }
    if (options.on_progress) {
      Progress p;
      p.seconds = total.seconds();
      p.lower = lower;
      p.upper = upper;
      p.has_incumbent = result.has_allocation;
      p.incumbent_cost = result.has_allocation ? result.cost : -1;
      p.sat_calls = result.stats.sat_calls;
      p.conflicts = conflicts_seen;
      options.on_progress(p);
    }
  };

  // --- Cooperative shared search (active only under options.share). -----
  // Bound broadcasting: lower bounds this worker proves and incumbents it
  // finds are published to the shared interval; foreign bounds are folded
  // into the local search before each SOLVE step. Under proof logging the
  // worker stops *consuming* foreign lower bounds (they have no derivation
  // in its log) but keeps publishing, and still adopts foreign incumbents
  // — those are re-validated independently by the final RT analysis.
  par::SharedInterval* interval =
      options.share != nullptr ? options.share->interval() : nullptr;
  const bool proof_active = options.certify || options.proof != nullptr;

  auto publish_lower_bound = [&](std::int64_t lo) {
    if (interval != nullptr && interval->raise_lower(lo)) {
      ++result.stats.bounds_published;
    }
  };
  // The shared interval stores the allocation before it drops its bound.
  auto announce_incumbent = [&](std::int64_t cost) {
    if (interval != nullptr && interval->offer(cost, result.allocation)) {
      ++result.stats.bounds_published;
    }
  };
  auto sync_shared_bounds = [&](std::int64_t& lower, std::int64_t& upper) {
    if (interval == nullptr) return;
    bool adopted = false;
    if (!proof_active) {
      const std::int64_t gl = interval->lower();
      if (gl > lower) {
        lower = gl;
        ++result.stats.bounds_adopted;
        adopted = true;
      }
    }
    if (auto inc = interval->better_than(upper)) {
      upper = inc->first;
      result.cost = upper;
      result.allocation = std::move(inc->second);
      result.has_allocation = true;
      ++result.stats.bounds_adopted;
      adopted = true;
    }
    if (adopted && obs::trace_enabled()) {
      obs::TraceEvent("bound_sync").num("lower", lower).num("upper", upper);
    }
  };
  // --- Certification machinery (active only under options.certify). -----
  // Every SAT answer is replayed against the PB store and the pre-encode
  // IR formulas; every UNSAT answer contributes its core lemma as a proof
  // obligation, discharged by one backward RUP-checking pass when its
  // encoder retires (at the end in incremental mode, per call in scratch
  // mode); the final allocation is re-validated by the independent RT
  // analysis.
  std::vector<std::size_t> unsat_steps;  // proof-step indices of UNSAT cores
  bool cert_ok = true;
  auto cert_fail = [&](std::string msg) {
    if (cert_ok) {
      cert_ok = false;
      result.certify_error = std::move(msg);
    }
    log_info("certify: FAILED: %s", result.certify_error.c_str());
  };

  auto certify_model = [&](AllocEncoder& enc, std::optional<std::int64_t> lo,
                           std::optional<std::int64_t> hi) {
    if (!options.certify) return;
    obs::Span span("certify");
    Stopwatch sw;
    const check::ModelResult mr =
        check::check_model(enc.ctx(), enc.asserted_formulas(), enc.blaster(),
                           enc.solver(), &enc.pb());
    bool ok = mr.ok;
    std::string err = mr.error;
    if (ok) {
      const std::int64_t cost = enc.decode_cost();
      if ((lo && cost < *lo) || (hi && cost > *hi)) {
        ok = false;
        err = "decoded cost " + std::to_string(cost) +
              " escapes the queried bounds";
      }
    }
    result.stats.certify_seconds += sw.seconds();
    if (ok) {
      ++result.stats.models_certified;
    } else {
      cert_fail("model: " + err);
    }
    if (obs::trace_enabled()) {
      obs::TraceEvent e("certify");
      e.str("kind", "model").boolean("ok", ok);
      if (!ok) e.str("error", err);
    }
  };

  auto certify_proof = [&](const sat::ProofLog& log,
                           std::span<const std::size_t> targets) {
    if (!options.certify) return;
    obs::Span span("certify");
    Stopwatch sw;
    const check::DratResult dr = check::check_proof(log, targets);
    result.stats.certify_seconds += sw.seconds();
    if (dr.ok) {
      ++result.stats.proofs_certified;
      result.stats.proof_lemmas_checked += dr.lemmas_checked;
    } else {
      cert_fail("proof: " + dr.error);
    }
    if (obs::trace_enabled()) {
      obs::TraceEvent e("certify");
      e.str("kind", "proof")
          .boolean("ok", dr.ok)
          .num("lemmas", static_cast<std::int64_t>(dr.lemmas_checked))
          .num("theory", static_cast<std::int64_t>(dr.theory_checked));
      if (!dr.ok) e.str("error", dr.error);
    }
  };

  auto certify_allocation = [&] {
    if (!options.certify || !result.has_allocation) return;
    obs::Span span("certify");
    Stopwatch sw;
    bool ok = true;
    std::string err;
    const rt::VerifyReport report =
        rt::verify(problem.tasks, problem.arch, result.allocation);
    if (!report.feasible) {
      ok = false;
      err = "final allocation failed RT re-validation";
    } else {
      const std::int64_t value =
          objective_value(problem, objective, result.allocation);
      if (value != result.cost) {
        ok = false;
        err = "objective re-evaluates to " + std::to_string(value) +
              ", solver reported " + std::to_string(result.cost);
      }
    }
    result.stats.certify_seconds += sw.seconds();
    if (!ok) cert_fail("allocation: " + err);
    if (obs::trace_enabled()) {
      obs::TraceEvent e("certify");
      e.str("kind", "allocation").boolean("ok", ok);
      if (!ok) e.str("error", err);
    }
  };

  // One SOLVE call against `enc`, with wall time, SAT/UNSAT breakdown,
  // and a "solve" trace event carrying the queried bounds.
  auto timed_solve = [&](AllocEncoder& enc, std::optional<std::int64_t> lo,
                         std::optional<std::int64_t> hi) -> sat::LBool {
    obs::Span span("SOLVE");
    ++result.stats.sat_calls;
    const std::uint64_t conflicts_before = enc.solver().stats().conflicts;
    Stopwatch sw;
    const sat::LBool verdict = enc.solve(lo, hi, call_budget());
    const double secs = sw.seconds();
    const std::uint64_t call_conflicts =
        enc.solver().stats().conflicts - conflicts_before;
    conflicts_seen += call_conflicts;
    obs::observe(solve_conflicts_hist(),
                 static_cast<double>(call_conflicts));
    result.stats.solve_seconds += secs;
    if (verdict == sat::LBool::kTrue) {
      ++result.stats.sat_calls_sat;
    } else if (verdict == sat::LBool::kFalse) {
      ++result.stats.sat_calls_unsat;
      // The last logged step is this answer's conflict-core (or empty)
      // lemma: a proof obligation for the final backward check.
      const sat::ProofLog* log = enc.solver().proof();
      if (log != nullptr && log->num_steps() > 0 &&
          log->step(log->last_step()).kind == sat::ProofStepKind::kLemma) {
        unsat_steps.push_back(log->last_step());
      }
    }
    if (obs::flight_enabled()) {
      // Numeric result code (flight records carry numbers only):
      // 1 = SAT, 0 = UNSAT, -1 = budget exhausted.
      obs::FlightNote("solve")
          .num("call", result.stats.sat_calls)
          .num("result", verdict == sat::LBool::kTrue    ? 1
                         : verdict == sat::LBool::kFalse ? 0
                                                         : -1)
          .num("conflicts", call_conflicts)
          .num("seconds", secs);
    }
    if (obs::trace_enabled()) {
      obs::TraceEvent e("solve");
      e.num("call", result.stats.sat_calls);
      if (lo) e.num("lo", *lo);
      if (hi) e.num("hi", *hi);
      e.str("result", verdict_name(verdict))
          .num("conflicts", call_conflicts)
          .num("seconds", secs);
    }
    return verdict;
  };

  auto trace_optimum = [&] {
    if (!obs::trace_enabled()) return;
    obs::TraceEvent e("optimum");
    e.str("status", result.status_string());
    if (result.has_allocation) e.num("cost", result.cost);
    e.num("lower", result.lower_bound)
        .num("sat_calls", result.stats.sat_calls)
        .num("seconds", result.stats.seconds);
    if (options.certify) e.boolean("certified", result.certified);
  };

  // --- The SOLVE pipeline. ----------------------------------------------
  // Incremental mode: one encoder answers every SOLVE, with the bounds as
  // assumptions; its proof log spans the whole search. Scratch mode (the
  // paper's base procedure): a fresh encoder per SOLVE, with the bounds
  // asserted permanently and a proof log of its own. The proof log must be
  // attached before build() so it captures the whole clause database.
  std::unique_ptr<AllocEncoder> enc;
  std::unique_ptr<sat::ProofLog> own_proof;
  sat::ProofLog* proof = nullptr;
  auto make_encoder = [&] {
    if (options.incremental && options.proof != nullptr) {
      proof = options.proof;
    } else if (options.certify) {
      own_proof = std::make_unique<sat::ProofLog>();
      proof = own_proof.get();
    }
    enc = std::make_unique<AllocEncoder>(problem, objective, options.encoder);
    if (options.tuning) apply_tuning(enc->solver(), *options.tuning);
    apply_inprocess(enc->solver(), options);
    if (proof != nullptr) enc->set_proof(proof);
    bool built = false;
    {
      obs::Span span("encode");
      Stopwatch sw;
      built = enc->build();
      const double secs = sw.seconds();
      result.stats.encode_seconds += secs;
      obs::observe(encode_ms_hist(), secs * 1000.0);
    }
    if (!built) return false;
    // Clause exchange joins here: the variable count right after build()
    // delimits the deterministic base encoding every sibling worker
    // shares; later bound-guard variables are query-order-dependent and
    // stay private.
    if (options.incremental && options.share != nullptr) {
      options.share->attach(enc->solver(), enc->solver().num_vars());
    }
    if (options.warm_start) enc->hint(*options.warm_start);
    return true;
  };
  // Retire the current encoder: discharge its UNSAT cores (when
  // `check_proof`) and fold its solver statistics into the result.
  auto retire = [&](bool check_proof) {
    if (check_proof && proof != nullptr) certify_proof(*proof, unsat_steps);
    absorb_stats(result.stats, *enc);
    enc.reset();
    unsat_steps.clear();
  };

  auto finish = [&](OptimizeResult::Status status) {
    result.status = status;
    const bool definitive = status != OptimizeResult::Status::kBudgetExhausted;
    if (enc) {
      retire(definitive && (!unsat_steps.empty() ||
                            status == OptimizeResult::Status::kInfeasible));
    }
    if (options.certify && definitive) {
      certify_allocation();
      result.certified = cert_ok;
    }
    result.stats.seconds = total.seconds();
    trace_optimum();
    flush_optimize_metrics(result);
    return result;
  };

  if (!make_encoder()) return finish(OptimizeResult::Status::kInfeasible);
  const ir::Range range = enc->cost_range();

  auto probe = [&](std::int64_t lo, std::int64_t hi) -> ProbeResult {
    if (out_of_time()) return {};
    sat::LBool verdict = sat::LBool::kFalse;
    if (options.incremental) {
      verdict = timed_solve(*enc, lo, hi);
    } else if ((enc != nullptr || make_encoder()) &&
               ((lo <= range.lo && hi >= range.hi) ||
                enc->assert_cost_bounds(lo, hi))) {
      // Scratch: the set-up encoder answers the first SOLVE.
      verdict = timed_solve(*enc, {}, {});
    } else {
      // Encode-time UNSAT still counts as one (answered) SOLVE call.
      ++result.stats.sat_calls;
      ++result.stats.sat_calls_unsat;
    }
    std::int64_t cost = 0;
    if (verdict == sat::LBool::kTrue) {
      certify_model(*enc, lo, hi);
      cost = enc->decode_cost();
      result.cost = cost;
      result.allocation = enc->decode();
      result.has_allocation = true;
      announce_incumbent(cost);
    } else if (verdict == sat::LBool::kFalse && hi < range.hi) {
      publish_lower_bound(hi + 1);
    }
    if (!options.incremental) retire(verdict == sat::LBool::kFalse);
    return {verdict, cost};
  };

  // A verified warm-start allocation short-circuits the first SOLVE: its
  // objective value *is* a feasible upper estimate.
  std::optional<std::int64_t> incumbent;
  if (options.warm_start) {
    incumbent = evaluate_allocation(problem, objective, *options.warm_start);
    if (incumbent) {
      result.cost = *incumbent;
      result.allocation = *options.warm_start;
      result.has_allocation = true;
      announce_incumbent(*incumbent);
    }
  }
  // A sibling's incumbent caps the first SOLVE.
  std::optional<std::int64_t> cap;
  if (interval != nullptr &&
      interval->upper() != par::SharedInterval::kNoUpper) {
    cap = interval->upper();
  }
  const SearchResult search = bin_search(
      range, incumbent, cap, options.strategy, probe,
      sync_shared_bounds, [&](std::int64_t lower, std::int64_t upper) {
        log_info("optimize: interval [%lld, %lld]",
                 static_cast<long long>(lower), static_cast<long long>(upper));
        report_progress(lower, upper);
      });
  switch (search.verdict) {
    case sat::LBool::kFalse:
      return finish(OptimizeResult::Status::kInfeasible);
    case sat::LBool::kUndef:
      result.lower_bound = search.lower;
      return finish(OptimizeResult::Status::kBudgetExhausted);
    case sat::LBool::kTrue:
      break;
  }
  result.cost = search.upper;
  result.lower_bound = search.upper;
  publish_lower_bound(search.upper);
  return finish(OptimizeResult::Status::kOptimal);
}

}  // namespace optalloc::alloc
