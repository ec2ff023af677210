#include "par/sharing.hpp"

namespace optalloc::par {

namespace {

/// Largest batch of foreign clauses pulled per restart drain.
constexpr std::size_t kMaxImportBatch = 512;

}  // namespace

bool SharedInterval::offer(std::int64_t cost,
                           const rt::Allocation& allocation) {
  {
    util::MutexLock lock(mu_);
    if (cost < incumbent_cost_) {
      incumbent_cost_ = cost;
      incumbent_ = allocation;
    }
  }
  return drop_upper(cost);
}

std::optional<std::pair<std::int64_t, rt::Allocation>>
SharedInterval::better_than(std::int64_t upper) const {
  if (this->upper() >= upper) return std::nullopt;  // lock-free fast path
  util::MutexLock lock(mu_);
  if (incumbent_cost_ >= upper) return std::nullopt;
  return std::make_pair(incumbent_cost_, incumbent_);
}

void SharingClient::attach(sat::Solver& solver, std::int32_t var_limit) {
  if (pool_ == nullptr) return;
  // The export range is the base encoding shared by every worker: foreign
  // clauses may arrive over any of these variables at any time, so none of
  // them may be eliminated by inprocessing (imports over a locally
  // eliminated variable would otherwise have to be dropped, eroding the
  // portfolio's clause exchange).
  for (sat::Var v = 0; v < var_limit && v < solver.num_vars(); ++v) {
    solver.set_frozen(v);
  }
  sat::Solver::ShareHooks hooks;
  hooks.export_var_limit = var_limit;
  hooks.export_clause = [this](std::span<const sat::Lit> lits,
                               std::uint32_t lbd) {
    pool_->publish(worker_, lits, lbd);
  };
  hooks.import_clauses = [this](std::vector<sat::SharedClause>& out) {
    pool_->drain(worker_, cursor_, out, kMaxImportBatch);
  };
  solver.set_share(std::move(hooks));
}

}  // namespace optalloc::par
