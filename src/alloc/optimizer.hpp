#pragma once
// The paper's Section 5.2 optimization loop: SOLVE is one SAT query over
// the encoded constraint system; BIN_SEARCH (alloc/search.hpp) narrows
// the cost interval by repeated SOLVE calls until the optimum is pinned.
//
// Two execution modes, i.e. two ways to answer a SOLVE:
//   * incremental (default): one solver instance; cost bounds enter as
//     assumption literals over comparator circuits, so learned clauses
//     carry over between search steps — the improvement the paper's
//     Section 7 reports as "a factor of 2 and more".
//   * scratch: a fresh encoder + solver per SOLVE call with bounds
//     asserted permanently — the paper's baseline procedure, kept for the
//     ablation benchmark.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "alloc/encoder.hpp"
#include "alloc/problem.hpp"
#include "alloc/search.hpp"

namespace optalloc::par {
class SharingClient;
}  // namespace optalloc::par

namespace optalloc::alloc {

/// Anytime search-progress report: the state of the cost interval after a
/// SOLVE call. `lower > upper` never holds; the interval shrinks
/// monotonically, and lower == upper on the report that pins the optimum.
struct Progress {
  double seconds = 0.0;            ///< wall time since optimize() started
  std::int64_t lower = 0;          ///< greatest proven lower bound
  std::int64_t upper = 0;          ///< incumbent cost (least known upper)
  std::int64_t incumbent_cost = -1;  ///< best feasible cost; -1 before one
  bool has_incumbent = false;
  int sat_calls = 0;               ///< SOLVE calls issued so far
  std::uint64_t conflicts = 0;     ///< CDCL conflicts spent so far
};

/// Per-worker CDCL diversification knobs, applied to every solver the
/// optimizer creates. The cooperative portfolio varies these across
/// workers so that clause- and bound-sharing threads explore different
/// parts of the search space instead of racing down the same path.
struct SolverTuning {
  double var_decay = 0.95;
  int restart_base = 100;          ///< conflicts per Luby unit
  bool default_polarity = false;   ///< initial branching polarity (sign)
  double random_branch_freq = 0.0; ///< probability of a random decision
  std::uint64_t seed = 0;          ///< RNG seed; 0 keeps the default state
};

struct OptimizeOptions {
  EncoderConfig encoder;
  bool incremental = true;
  SearchStrategy strategy = SearchStrategy::kBisection;
  /// Per-SOLVE budget (0 = unlimited).
  sat::Budget per_call;
  /// Overall wall-clock limit in seconds (0 = unlimited); a portfolio
  /// applies it to the whole run.
  double time_limit_s = 0.0;
  /// Known feasible allocation (e.g. from simulated annealing). Once
  /// verified, its cost replaces the first SOLVE, and it biases every
  /// solver's first descent (phase-saving warm start).
  std::optional<rt::Allocation> warm_start;
  /// Certify every step of the search (see src/check): SAT answers are
  /// replayed against the PB store and the pre-bit-blast IR formulas,
  /// UNSAT answers are backed by DRAT proofs checked by the independent
  /// RUP checker, and the final allocation is re-validated by the RT
  /// analysis. The outcome lands in OptimizeResult::certified.
  bool certify = false;
  /// Route proof logging into an external log (incremental mode only) so
  /// callers can dump it for the standalone drat_check tool. Implies
  /// nothing about `certify`; both may be set independently.
  sat::ProofLog* proof = nullptr;
  /// Cooperative cancellation: the run winds down once this reads true.
  /// A portfolio forwards it to every worker.
  const std::atomic<bool>* stop = nullptr;
  /// Solver diversification (see SolverTuning); absent = solver defaults.
  std::optional<SolverTuning> tuning;
  /// Clause-database inprocessing at restart boundaries (subsumption,
  /// vivification, bounded variable elimination — see sat/inprocess.hpp).
  bool inprocess = true;
  /// Conflicts between inprocessing passes; 0 keeps the solver default.
  std::int64_t inprocess_interval = 0;
  /// Cooperative parallel search handle (wired by the portfolio; see
  /// src/par): clause exchange with sibling workers plus the shared cost
  /// interval and its incumbent store. Not owned. When a proof log is
  /// active (certify/proof), clause import and foreign *lower*-bound
  /// adoption are disabled so the certificate stays self-contained;
  /// exporting clauses, publishing bounds, and adopting foreign
  /// *incumbents* remain on (an incumbent is re-validated independently
  /// by the final RT analysis).
  par::SharingClient* share = nullptr;
  /// Anytime progress callback, invoked after the initial solution and
  /// after every interval-narrowing SOLVE call, on the optimizer's own
  /// thread. In a portfolio every worker calls it from its own thread, so
  /// calls may run concurrently and each reports that worker's interval
  /// and effort: the callback must be thread-safe. Keep it cheap.
  std::function<void(const Progress&)> on_progress;
};

struct OptimizeStats {
  int sat_calls = 0;
  double seconds = 0.0;
  std::int64_t boolean_vars = 0;    ///< paper's "Var." column
  std::uint64_t boolean_literals = 0;  ///< paper's "Lit." column
  std::uint64_t conflicts = 0;
  std::uint64_t pb_constraints = 0;
  // Per-call breakdown of where the search effort went.
  int sat_calls_sat = 0;      ///< SOLVE calls answered SAT
  int sat_calls_unsat = 0;    ///< SOLVE calls answered UNSAT
  double encode_seconds = 0.0;  ///< building + bit-blasting constraints
  double solve_seconds = 0.0;   ///< inside sat::Solver::solve()
  // Cooperative-search traffic (all zero unless OptimizeOptions::share).
  std::uint64_t clauses_exported = 0;  ///< learnts pushed to the pool
  std::uint64_t clauses_imported = 0;  ///< foreign learnts attached
  std::uint64_t bounds_published = 0;  ///< interval tightenings we caused
  std::uint64_t bounds_adopted = 0;    ///< foreign bounds folded in
  // Certification effort (all zero unless OptimizeOptions::certify).
  int models_certified = 0;   ///< SAT answers accepted by the model checker
  int proofs_certified = 0;   ///< proof checker passes (per log checked)
  std::uint64_t proof_lemmas_checked = 0;  ///< RUP lemmas verified
  double certify_seconds = 0.0;

  /// One-line human summary ("calls=7 (5 sat/2 unsat) encode=0.1s ...").
  std::string summary() const;
};

struct OptimizeResult {
  enum class Status {
    kOptimal,          ///< cost is the global optimum
    kInfeasible,       ///< no valid allocation exists
    kBudgetExhausted,  ///< search interrupted; best-so-far in `allocation`
  };
  Status status = Status::kInfeasible;
  std::int64_t cost = -1;  ///< optimal (or best-so-far) objective value
  bool has_allocation = false;
  rt::Allocation allocation;
  /// Remaining search interval on interruption ([lower, cost] with
  /// lower == cost when optimal).
  std::int64_t lower_bound = 0;
  /// True iff OptimizeOptions::certify was set, the search ran to a
  /// definitive status (kOptimal/kInfeasible), and every certification
  /// layer accepted: all SAT models, all UNSAT proofs, and the final
  /// allocation's RT re-validation + objective cross-check.
  bool certified = false;
  /// First certification failure, empty when none (or not certifying).
  std::string certify_error;
  OptimizeStats stats;

  std::string status_string() const {
    switch (status) {
      case Status::kOptimal: return "optimal";
      case Status::kInfeasible: return "infeasible";
      case Status::kBudgetExhausted: return "budget-exhausted";
    }
    return "?";
  }
};

/// Find the cost-minimal allocation for the problem under the objective.
OptimizeResult optimize(const Problem& problem, Objective objective,
                        const OptimizeOptions& options = {});

}  // namespace optalloc::alloc
