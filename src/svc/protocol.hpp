#pragma once
// Wire protocol of the allocation service: newline-delimited JSON, one
// request object in, one response object out, over a Unix-domain or TCP
// stream. Verbs:
//
//   {"verb":"submit","problem":"<problem text>","objective":"sum-trt",
//    "deadline_ms":500,"conflicts":100000,"threads":1,"wait":true}
//       -> {"ok":true,"id":"r1"}  (or, with "wait", the terminal job view)
//   {"verb":"status","id":"r1"}    -> the job view: always id, state,
//                                     phase (queued/warm_start/solving/
//                                     finished), elapsed_ms, deadline_ms,
//                                     sat_calls, conflicts and req (the
//                                     trace/flight request id); while it
//                                     runs, the proven cost interval
//                                     lower/upper; once terminal, the
//                                     answer (status, cost, allocation...)
//   {"verb":"result","id":"r1"}    -> the job view, blocking until terminal
//   {"verb":"cancel","id":"r1"}    -> {"ok":true,"id":"r1"}
//   {"verb":"metrics"}             -> full metrics registry snapshot
//                                     (counters, gauges, levels, timers,
//                                     histogram quantiles + buckets) under
//                                     "metrics": every service counter
//   {"verb":"dump"}                -> flight-recorder contents as an
//                                     "events" array (add "id" to filter
//                                     to one request's records)
//   {"verb":"query"}               -> time-series catalogue: one summary
//                                     row per recorded series (name,
//                                     sample count, latest value)
//   {"verb":"query","metric":"svc.request_ms.p99","last_s":60}
//                                  -> that series' samples in the window
//                                     as [unix_ms, value] pairs (add
//                                     "max_samples" to downsample);
//                                     unknown series -> ok, count 0
//   {"verb":"shutdown","drain":true} -> {"ok":true,...}; server exits
//
// Incremental re-solve sessions (what-if queries over a warm solver):
//
//   {"verb":"session_open","problem":"<text>","objective":"sum-trt",
//    "deadline_ms":500,"conflicts":100000}
//       -> {"ok":true,"session":"s1",...initial answer...}
//   {"verb":"revise","session":"s1","edits":[{"op":"set_wcet",
//    "task":"sensor","ecu":0,"wcet":12},...]}
//       -> the post-edit answer: status/proven_optimal/cost/lower_bound,
//          delta statistics (groups_added/retired/unchanged,
//          clauses_added), the allocation when feasible — and, for an
//          infeasible edit, "unsat_core": the named constraint groups
//          that conflict (see inc/patch.hpp for the edit op schema)
//   {"verb":"session_close","session":"s1"} -> {"ok":true,"session":"s1"}
//
// Every response carries "ok"; failures look like
// {"ok":false,"error":m,"code":c} where `code` is a stable machine-
// readable discriminator ("bad_json", "bad_request", "unknown_verb",
// "unknown_id", "bad_problem", "bad_objective", "queue_full",
// "unknown_session", "bad_patch", "request_too_large") — clients branch
// on it without parsing prose. "request_too_large" answers a line over
// kMaxRequestBytes; the server then closes that connection. Unknown verbs
// in particular are answered (with code "unknown_verb"), never silently
// dropped. Integer fields (conflicts, threads, max_samples and the edits'
// numbers) must be whole numbers in range, else "bad_request" (or
// "bad_patch"); threads is capped at alloc::kMaxPortfolioThreads.
// The problem text is the alloc::io file format embedded as one JSON
// string (newlines escaped); the objective uses alloc::parse_objective
// spec syntax. Anytime answers surface as state="done" with
// "proven_optimal":false plus the incumbent cost and proven lower bound.

#include <cstddef>
#include <optional>
#include <string>

#include "inc/patch.hpp"
#include "svc/scheduler.hpp"

namespace optalloc::svc {

/// Longest request line a connection may send (the shipped problems are
/// around 1 KiB). A longer one is answered with code "request_too_large"
/// and its connection closed, so no client can grow a handler's buffer
/// without bound.
constexpr std::size_t kMaxRequestBytes = std::size_t{8} << 20;

struct Request {
  enum class Verb {
    kSubmit,
    kStatus,
    kCancel,
    kResult,
    kMetrics,
    kQuery,
    kDump,
    kShutdown,
    kSessionOpen,
    kRevise,
    kSessionClose
  };
  Verb verb = Verb::kMetrics;
  std::string id;            ///< status/cancel/result; dump (optional)
  std::string problem_text;  ///< submit/session_open: alloc::io format
  std::string objective = "sum-trt";
  double deadline_ms = 0.0;
  std::int64_t conflicts = 0;
  int threads = 1;
  bool wait = false;         ///< submit: block until terminal
  bool drain = true;         ///< shutdown: finish queued work first
  std::string session;       ///< revise/session_close: session id
  inc::InstancePatch patch;  ///< revise: parsed "edits" array
  std::string metric;        ///< query: series name ("" = list catalogue)
  double last_s = 0.0;       ///< query: window in seconds (0 = full ring)
  std::int64_t max_samples = 0;  ///< query: downsample cap (0 = all)
};

/// Parse one request line. Returns nullopt and fills `error` (and, when
/// given, the machine-readable `code`) on malformed JSON, an unknown
/// verb, or missing required fields.
std::optional<Request> parse_request(const std::string& line,
                                     std::string* error,
                                     std::string* code = nullptr);

// --- Response lines (no trailing newline). -----------------------------

std::string error_line(const std::string& message,
                       const std::string& code = "error");
std::string submit_ack_line(const std::string& id);
/// The job view (status, result, submit with "wait"): see the header.
std::string snapshot_line(const JobSnapshot& snapshot);
/// Full registry snapshot (obs::metrics_full_json) under "metrics" —
/// enough for a remote client to render Prometheus text format.
std::string metrics_line();
/// Time-series reply (query verb). With a metric: its windowed samples
/// as [unix_ms, value] pairs; without: the series catalogue.
std::string query_line(const Request& request);
/// Flight-recorder dump (dump verb): {"ok":true,"count":N,"events":[..]},
/// filtered to one request's records when `req` != 0.
std::string dump_line(std::uint64_t req);
std::string shutdown_ack_line(bool drain);
/// Answer of one session solve (session_open / revise): status, bounds,
/// delta statistics, the allocation's task->ECU vector when present, and
/// "unsat_core" (named constraint groups) for proven-infeasible edits.
std::string session_line(const std::string& session,
                         const SessionAnswer& answer);
std::string session_close_line(const std::string& session);

}  // namespace optalloc::svc
