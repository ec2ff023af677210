#include "svc/protocol.hpp"

#include <type_traits>
#include <utility>

#include "alloc/portfolio.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace optalloc::svc {

namespace {

bool get_bool(const obs::JsonValue& v, std::string_view key, bool dflt) {
  const obs::JsonValue* m = v.get(key);
  if (m == nullptr || m->kind != obs::JsonValue::Kind::kBool) return dflt;
  return m->b;
}

}  // namespace

std::optional<Request> parse_request(const std::string& line,
                                     std::string* error,
                                     std::string* code) {
  const auto fail = [&](const std::string& m, const char* c) {
    if (error != nullptr) *error = m;
    if (code != nullptr) *code = c;
    return std::nullopt;
  };
  const auto doc = obs::json_parse(line);
  if (!doc || !doc->is_object()) {
    return fail("malformed JSON request", "bad_json");
  }
  const auto verb = doc->get_string("verb");
  if (!verb) {
    return fail("missing \"verb\"", "bad_request");
  }
  // Integer fields: an absent one keeps its default; anything but a whole
  // number within [lo, hi] names itself in `bad_field`.
  std::string bad_field;
  const auto integer = [&](const char* key, std::int64_t lo, std::int64_t hi,
                           auto& out) {
    const obs::JsonValue* v = doc->get(key);
    if (v == nullptr) return;
    if (const auto n = obs::json_integer(*v, lo, hi)) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(*n);
    } else if (bad_field.empty()) {
      bad_field = "\"" + std::string(key) + "\" must be an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
  };
  // The solve budget every solving verb takes.
  const auto budget = [&](Request& req) {
    if (const auto d = doc->get_number("deadline_ms")) {
      req.deadline_ms = *d > 0 ? *d : 0.0;
    }
    integer("conflicts", 0, obs::kJsonMaxInteger, req.conflicts);
  };
  const auto checked = [&](Request req) -> std::optional<Request> {
    if (!bad_field.empty()) return fail(bad_field, "bad_request");
    return req;
  };
  Request req;
  if (*verb == "submit" || *verb == "session_open") {
    req.verb = *verb == "submit" ? Request::Verb::kSubmit
                                 : Request::Verb::kSessionOpen;
    const auto problem = doc->get_string("problem");
    if (!problem || problem->empty()) {
      return fail(*verb + " requires a \"problem\" string", "bad_request");
    }
    req.problem_text = *problem;
    if (const auto obj = doc->get_string("objective")) req.objective = *obj;
    budget(req);
    if (req.verb == Request::Verb::kSubmit) {
      integer("threads", 1, alloc::kMaxPortfolioThreads, req.threads);
      req.wait = get_bool(*doc, "wait", false);
    }
    return checked(std::move(req));
  }
  if (*verb == "status" || *verb == "cancel" || *verb == "result") {
    req.verb = *verb == "status"   ? Request::Verb::kStatus
               : *verb == "cancel" ? Request::Verb::kCancel
                                   : Request::Verb::kResult;
    const auto id = doc->get_string("id");
    if (!id || id->empty()) {
      return fail(*verb + " requires an \"id\"", "bad_request");
    }
    req.id = *id;
    return req;
  }
  if (*verb == "dump") {
    req.verb = Request::Verb::kDump;
    if (const auto id = doc->get_string("id")) req.id = *id;
    return req;
  }
  if (*verb == "metrics") {
    req.verb = Request::Verb::kMetrics;
    return req;
  }
  if (*verb == "query") {
    req.verb = Request::Verb::kQuery;
    if (const auto metric = doc->get_string("metric")) req.metric = *metric;
    if (const auto w = doc->get_number("last_s")) {
      req.last_s = *w > 0 ? *w : 0.0;
    }
    integer("max_samples", 0, obs::kJsonMaxInteger, req.max_samples);
    return checked(std::move(req));
  }
  if (*verb == "revise" || *verb == "session_close") {
    req.verb = *verb == "revise" ? Request::Verb::kRevise
                                 : Request::Verb::kSessionClose;
    const auto session = doc->get_string("session");
    if (!session || session->empty()) {
      return fail(*verb + " requires a \"session\" id", "bad_request");
    }
    req.session = *session;
    if (req.verb == Request::Verb::kRevise) {
      const obs::JsonValue* edits = doc->get("edits");
      if (edits == nullptr) {
        return fail("revise requires an \"edits\" array", "bad_request");
      }
      std::string patch_error;
      auto patch = inc::parse_patch(*edits, &patch_error);
      if (!patch) return fail(patch_error, "bad_patch");
      req.patch = std::move(*patch);
      budget(req);
    }
    return checked(std::move(req));
  }
  if (*verb == "shutdown") {
    req.verb = Request::Verb::kShutdown;
    req.drain = get_bool(*doc, "drain", true);
    return req;
  }
  return fail("unknown verb \"" + *verb + "\"", "unknown_verb");
}

std::string error_line(const std::string& message, const std::string& code) {
  return obs::JsonObject()
      .boolean("ok", false)
      .str("error", message)
      .str("code", code)
      .build();
}

std::string submit_ack_line(const std::string& id) {
  return obs::JsonObject().boolean("ok", true).str("id", id).build();
}

std::string snapshot_line(const JobSnapshot& snapshot) {
  obs::JsonObject o;
  o.boolean("ok", true)
      .str("id", snapshot.id)
      .str("state", job_state_name(snapshot.state))
      .str("phase", job_phase_name(snapshot.phase))
      .num("elapsed_ms", snapshot.elapsed_s * 1000.0)
      .num("deadline_ms", snapshot.deadline_s * 1000.0)
      .num("sat_calls", snapshot.sat_calls)
      .num("conflicts", snapshot.conflicts)
      .num("req", static_cast<std::int64_t>(snapshot.req));
  if (snapshot.state == JobState::kQueued ||
      snapshot.state == JobState::kRunning) {
    return o.num("lower", snapshot.lower).num("upper", snapshot.upper).build();
  }
  const JobAnswer& a = snapshot.answer;
  o.str("status", a.status)
      .boolean("proven_optimal", a.proven_optimal)
      .boolean("deadline_expired", a.deadline_expired)
      .boolean("cached", a.cached)
      .num("cost", a.cost)
      .num("lower_bound", a.lower_bound)
      .num("queue_ms", a.queue_seconds * 1000.0)
      .num("solve_ms", a.solve_seconds * 1000.0)
      .num("total_ms", a.total_seconds * 1000.0);
  if (a.has_allocation) {
    obs::JsonArray ecus;
    for (const int e : a.allocation.task_ecu) {
      ecus.push(std::to_string(e));
    }
    o.raw("task_ecu", ecus.build());
  }
  return o.build();
}

std::string metrics_line() {
  return obs::JsonObject()
      .boolean("ok", true)
      .raw("metrics", obs::metrics_full_json())
      .build();
}

std::string query_line(const Request& request) {
  if (request.metric.empty()) {
    // Catalogue mode: one summary row per series.
    obs::JsonArray series;
    std::size_t n = 0;
    for (const obs::SeriesInfo& info : obs::timeseries_list()) {
      series.push(obs::JsonObject()
                      .str("metric", info.name)
                      .num("count", static_cast<std::int64_t>(info.count))
                      .num("last_unix_ms", info.last_unix_ms)
                      .num("last", info.last)
                      .build());
      ++n;
    }
    return obs::JsonObject()
        .boolean("ok", true)
        .num("count", static_cast<std::int64_t>(n))
        .raw("series", series.build())
        .build();
  }
  const std::vector<obs::TimeSample> samples = obs::timeseries_query(
      request.metric, request.last_s,
      request.max_samples > 0 ? static_cast<std::size_t>(request.max_samples)
                              : 0);
  obs::JsonArray rows;
  for (const obs::TimeSample& s : samples) {
    obs::JsonArray pair;
    pair.push(std::to_string(s.unix_ms));
    pair.push(obs::json_number(s.value));
    rows.push(pair.build());
  }
  return obs::JsonObject()
      .boolean("ok", true)
      .str("metric", request.metric)
      .num("count", static_cast<std::int64_t>(samples.size()))
      .raw("samples", rows.build())
      .build();
}

std::string dump_line(std::uint64_t req) {
  std::size_t count = 0;
  const std::string events = obs::flight_dump_events(req, &count);
  return obs::JsonObject()
      .boolean("ok", true)
      .num("count", static_cast<std::int64_t>(count))
      .raw("events", events)
      .build();
}

std::string session_line(const std::string& session,
                         const SessionAnswer& a) {
  obs::JsonObject o;
  o.boolean("ok", true)
      .str("session", session)
      .str("status", a.status)
      .boolean("proven_optimal", a.proven_optimal)
      .boolean("cache_stored", a.cache_stored)
      .num("cost", a.cost)
      .num("lower_bound", a.lower_bound)
      .num("sat_calls", static_cast<std::int64_t>(a.sat_calls))
      .num("solve_ms", a.solve_seconds * 1000.0)
      .num("groups_added", static_cast<std::int64_t>(a.groups_added))
      .num("groups_retired", static_cast<std::int64_t>(a.groups_retired))
      .num("groups_unchanged",
           static_cast<std::int64_t>(a.groups_unchanged))
      .num("clauses_added", a.clauses_added);
  if (!a.error.empty()) o.str("error", a.error);
  if (a.has_allocation) {
    obs::JsonArray ecus;
    for (const int e : a.allocation.task_ecu) {
      ecus.push(std::to_string(e));
    }
    o.raw("task_ecu", ecus.build());
  }
  if (!a.core.empty()) {
    obs::JsonArray core;
    for (const std::string& name : a.core) {
      core.push("\"" + obs::json_escape(name) + "\"");
    }
    o.raw("unsat_core", core.build());
  }
  return o.build();
}

std::string session_close_line(const std::string& session) {
  return obs::JsonObject()
      .boolean("ok", true)
      .str("session", session)
      .boolean("closed", true)
      .build();
}

std::string shutdown_ack_line(bool drain) {
  return obs::JsonObject()
      .boolean("ok", true)
      .boolean("draining", drain)
      .build();
}

}  // namespace optalloc::svc
