#pragma once
// The allocation service's execution core: a bounded job queue drained by
// a worker pool, fronted by the canonical result cache.
//
// Request lifecycle:
//   submit() canonicalizes the instance, probes the cache (a hit completes
//   the job immediately, translated back into the requester's indexing)
//   and otherwise enqueues it — or rejects it when the queue is full (the
//   bound is the backpressure mechanism; callers surface "queue full").
//   A worker picks the job up, runs a short simulated-annealing pass for a
//   warm-start incumbent, then dispatches to alloc::optimize (or the
//   cooperative portfolio for threads > 1) with the request's remaining
//   wall-clock deadline and per-SOLVE conflict budget.
//
// Anytime contract: a request with a deadline ALWAYS gets an answer by
// that deadline — the proven optimum if the search finished, otherwise
// the best incumbent found (warm start included) plus the greatest proven
// lower bound, with proven_optimal=false. Cancellation is cooperative
// through the solver's stop flag; a cancelled solve frees its worker
// within one propagation budget check.
//
// Observability: the metrics registry is the only record of service
// counters — svc.* counters (requests, completions, cancellations,
// rejections, cache hits), svc.workers / svc.start_time_unix_ms gauges,
// queue/solve timers and latency histograms, the res.svc.queue /
// res.svc.sessions levels — plus request_received / cache_hit /
// deadline_expired / request_done trace events. A process runs one
// service, so the registry's svc.* values are that service's.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/problem.hpp"
#include "inc/patch.hpp"
#include "inc/session.hpp"
#include "obs/resource.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "util/mutex.hpp"

namespace optalloc::svc {

struct SchedulerOptions {
  int workers = 2;
  std::size_t queue_capacity = 64;   ///< queued (not yet running) jobs
  std::size_t cache_entries = 256;
  int cache_shards = 8;
  /// Simulated-annealing warm-start effort per request (0 = skip; the
  /// warm start is what guarantees an incumbent for anytime answers).
  int anneal_iterations = 2000;
  /// Solver inprocessing for every job (see alloc::OptimizeOptions).
  bool inprocess = true;
  std::int64_t inprocess_interval = 0;  ///< 0 = solver default
};

struct JobRequest {
  alloc::Problem problem;
  alloc::Objective objective;
  double deadline_s = 0.0;          ///< answer-by budget from submission; 0 = none
  std::int64_t conflict_budget = 0; ///< per-SOLVE conflict cap (0 = unlimited)
  int threads = 1;                  ///< >1 = cooperative portfolio
};

enum class JobState { kQueued, kRunning, kDone, kCancelled };
const char* job_state_name(JobState s);

/// Where inside its lifecycle a running job currently is: waiting in the
/// queue, in the simulated-annealing warm start, inside the BIN_SEARCH
/// loop, or terminal. Updated with relaxed atomics by the worker; readers
/// (the status verb) see a recent-but-not-instantaneous view.
enum class JobPhase { kQueued, kWarmStart, kSolving, kFinished };
const char* job_phase_name(JobPhase p);

/// The anytime answer. `proven_optimal` is true only for a finished
/// search (status "optimal" — and "infeasible", which is also a proof).
struct JobAnswer {
  std::string status = "unknown";  ///< optimal|infeasible|feasible|unknown
  bool proven_optimal = false;
  bool deadline_expired = false;
  bool cached = false;
  bool has_allocation = false;
  std::int64_t cost = -1;
  std::int64_t lower_bound = 0;
  rt::Allocation allocation;       ///< requester's original indexing
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;
};

/// The view of one request (status and wait): lifecycle phase, elapsed
/// wall time, effort so far and, while it runs, the optimizer's proven
/// cost interval as of its most recent progress report. The live fields
/// are best-effort relaxed-atomic reads — they lag the solver by at most
/// one SOLVE call.
struct JobSnapshot {
  std::string id;
  JobState state = JobState::kQueued;
  JobPhase phase = JobPhase::kQueued;
  double elapsed_s = 0.0;          ///< since submission; the total once terminal
  double deadline_s = 0.0;         ///< answer-by budget (0 = none)
  std::int64_t lower = 0;          ///< greatest proven lower bound so far
  std::int64_t upper = -1;         ///< incumbent cost (-1 = none yet)
  std::int64_t sat_calls = 0;      ///< SOLVE calls issued (all workers, once terminal)
  std::int64_t conflicts = 0;      ///< CDCL conflicts spent so far
  std::uint64_t req = 0;           ///< trace/flight request id
  JobAnswer answer;                ///< meaningful once state is terminal
};

/// Answer of one session solve (open or revise) — the incremental
/// counterpart of JobAnswer, with the delta/search statistics the
/// session reports and, on infeasible edits, the named constraint core.
struct SessionAnswer {
  std::string status = "unknown";  ///< optimal|infeasible|feasible|unknown|error
  bool proven_optimal = false;
  bool has_allocation = false;
  std::int64_t cost = -1;
  std::int64_t lower_bound = 0;
  rt::Allocation allocation;       ///< the session instance's indexing
  std::vector<std::string> core;   ///< infeasible: conflicting groups
  std::string error;               ///< status "error": what went wrong
  int sat_calls = 0;
  double solve_seconds = 0.0;
  int groups_added = 0;
  int groups_retired = 0;
  std::size_t groups_unchanged = 0;
  std::int64_t clauses_added = 0;
  /// A proven answer was stored in the result cache under the *post-edit*
  /// canonical fingerprint (so cold submits of the same edited instance
  /// hit it — and the base instance's entry is never poisoned).
  bool cache_stored = false;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  ~Scheduler();  ///< shutdown(false)
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Returns the assigned request id, or nullopt when the queue is full
  /// or the scheduler is shutting down.
  std::optional<std::string> submit(JobRequest request);

  /// The job's view (running or terminal); nullopt for unknown ids.
  /// Never blocks on the solver — the live fields come from relaxed
  /// atomics the worker updates per progress report.
  std::optional<JobSnapshot> status(const std::string& id) const;

  /// Request cooperative cancellation. Returns false for unknown or
  /// already-terminal jobs.
  bool cancel(const std::string& id);

  /// Block until the job reaches a terminal state (kDone / kCancelled).
  /// timeout_s = 0 waits indefinitely; returns nullopt on timeout or
  /// unknown id.
  std::optional<JobSnapshot> wait(const std::string& id,
                                  double timeout_s = 0.0);

  // --- Incremental re-solve sessions (the revise verb) -----------------
  //
  // A session keeps a live inc::Session (persistent solver + encoding)
  // for one client across edits. Session solves run inline on the calling
  // thread — they are interactive what-if queries riding the warm solver,
  // not batch jobs for the worker pool. Concurrent ops on the *same*
  // session serialize on a per-session mutex; different sessions do not
  // contend.

  /// Open a session on `request.problem` and solve it. Returns the
  /// session id + the initial answer, or nullopt when shutting down.
  /// (JobRequest::threads is ignored: sessions are single-solver.)
  std::optional<std::pair<std::string, SessionAnswer>> session_open(
      JobRequest request);

  /// Apply a patch to a session's instance and re-solve incrementally.
  /// Nullopt for unknown session ids; a patch that fails validation
  /// returns status "error" and leaves the session instance untouched.
  std::optional<SessionAnswer> session_revise(const std::string& id,
                                              const inc::InstancePatch& patch,
                                              double deadline_s,
                                              std::int64_t conflicts);

  /// Discard a session (frees its solver). False for unknown ids.
  bool session_close(const std::string& id);

  /// Stop accepting work. drain=true finishes every queued job first;
  /// drain=false cancels queued jobs and stops running solves. Joins the
  /// workers; idempotent. Session solves in flight on connection threads
  /// are stopped cooperatively in both modes.
  void shutdown(bool drain);

 private:
  struct Job;
  struct SessionEntry;

  /// Run one session solve (open or revise) under the entry's own mutex,
  /// translate the result, emit trace events, and cache proven answers
  /// under the post-edit canonical fingerprint. `edits` is only for the
  /// trace (0 = the opening solve).
  SessionAnswer run_session_solve(SessionEntry& entry,
                                  const inc::InstancePatch* patch,
                                  std::size_t edits, double deadline_s,
                                  std::int64_t conflicts);

  /// The view of `job`, given its state and answer as copied under mu_.
  static JobSnapshot snapshot_of(const Job& job, JobState state,
                                 JobAnswer answer);

  void worker_loop();
  void execute(const std::shared_ptr<Job>& job);
  /// Terminalize under the scheduler mutex and wake waiters.
  void finalize(const std::shared_ptr<Job>& job, JobState state,
                JobAnswer answer) OPTALLOC_EXCLUDES(mu_);

  SchedulerOptions options_;
  ResultCache cache_;

  mutable util::Mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue / shutdown
  std::condition_variable done_cv_;  ///< waiters: job completions
  /// Job fields with cross-thread state (`state`, `answer`,
  /// `cancel_requested`) are likewise guarded by mu_; that guard crosses
  /// the object boundary, which GUARDED_BY cannot name — it is enforced
  /// by keeping every such access inside this class, under mu_.
  std::map<std::string, std::shared_ptr<Job>> jobs_ OPTALLOC_GUARDED_BY(mu_);
  std::deque<std::shared_ptr<Job>> queue_ OPTALLOC_GUARDED_BY(mu_);
  /// Live sessions. The map is guarded by mu_; each entry's inc::Session
  /// is guarded by the entry's own mutex so a long incremental solve
  /// never holds the scheduler lock.
  std::map<std::string, std::shared_ptr<SessionEntry>> sessions_
      OPTALLOC_GUARDED_BY(mu_);
  /// Raised by shutdown(); every session solve passes it as its stop
  /// flag, so in-flight revises on connection threads wind down fast.
  std::atomic<bool> session_stop_{false};
  std::vector<std::thread> workers_;  ///< written in ctor, joined once
  std::uint64_t next_id_ OPTALLOC_GUARDED_BY(mu_) = 0;
  std::uint64_t next_session_id_ OPTALLOC_GUARDED_BY(mu_) = 0;
  bool accepting_ OPTALLOC_GUARDED_BY(mu_) = true;
  bool joined_ OPTALLOC_GUARDED_BY(mu_) = false;
  /// Serializes shutdown(): the first caller joins the workers while
  /// holding it (mu_ stays free so workers can finish); latecomers block
  /// here until the join completes instead of racing t.join().
  util::Mutex shutdown_mu_;
  /// Capacity accounting: queued-request bytes/count and open sessions.
  obs::Resource queue_res_ = obs::resource("svc.queue");
  obs::Resource sessions_res_ = obs::resource("svc.sessions");
};

}  // namespace optalloc::svc
