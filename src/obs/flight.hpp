#pragma once
// Flight recorder: always-on, lock-free per-thread ring buffers holding
// the last kFlightCapacity telemetry records each thread produced — even
// when the JSONL trace sink is closed. The rings are the post-mortem
// story of a request: when a deadline expires, a job is cancelled, the
// daemon takes a fatal signal, or a client issues the `dump` verb, the
// rings are merged and rendered as schema-valid event objects (a JSON
// array, or JSONL from the signal-safe dump; same "type"/"ts"/"tid"/"req"
// vocabulary as the trace sink).
//
// Design constraints, in order:
//   1. Recording must be cheap enough to leave on in production: one
//      clock read plus a handful of relaxed atomic stores into a
//      thread-owned slot. No locks, no allocation, no branches on the
//      consumer side of the guard.
//   2. Dumping must be safe from a fatal-signal handler: the ring
//      registry is a fixed array published with atomic stores, records
//      are guarded by per-slot seqlocks (a torn read is detected and
//      skipped, never mis-rendered), and flight_dump_fd() formats
//      numbers with its own integer arithmetic — no malloc, no stdio,
//      no locale, only write(2).
//   3. Rings outlive their threads: a worker that exited (or crashed)
//      still has its last records available to the post-mortem.
//
// Records are numeric-only: a static-storage type string plus up to
// kFlightFields (key, value) pairs where every key must also be a string
// literal (the ring stores the pointers, not copies). This is what keeps
// recording allocation-free; it covers every solver/optimizer telemetry
// event (search_sample, interval, solve, restart), which are numbers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace optalloc::obs {

inline constexpr std::size_t kFlightCapacity = 256;  ///< records per thread
inline constexpr int kFlightFields = 8;              ///< numeric fields/record
inline constexpr std::size_t kFlightMaxRings = 256;  ///< recording threads

namespace detail {
extern std::atomic<bool> g_flight_on;
}

/// Recording guard (mirrors trace_enabled()): one relaxed load. On by
/// default; bench_obs_overhead turns it off to measure the delta.
inline bool flight_enabled() {
  return detail::g_flight_on.load(std::memory_order_relaxed);
}

/// Enable/disable recording. Disabling does not clear the rings — the
/// already-recorded tail stays dumpable.
void set_flight(bool on);

/// Test hook: invalidate every record in every ring (the rings and their
/// thread bindings survive). Not signal-safe.
void flight_reset();

/// One flight record under construction. Usage mirrors TraceEvent:
///
///   obs::FlightNote("search_sample").num("conflicts", c).num("trail", t);
///
/// The destructor commits the record to the calling thread's ring.
/// `type` and every `key` MUST be string literals (static storage): the
/// ring keeps the pointers. Fields beyond kFlightFields are dropped.
/// No-op when flight_enabled() is false at construction.
class FlightNote {
 public:
  explicit FlightNote(const char* type);
  ~FlightNote();
  FlightNote(const FlightNote&) = delete;
  FlightNote& operator=(const FlightNote&) = delete;

  FlightNote& num(const char* key, double value) {
    if (active_ && n_ < kFlightFields) {
      keys_[n_] = key;
      vals_[n_] = value;
      ++n_;
    }
    return *this;
  }
  FlightNote& num(const char* key, std::int64_t value) {
    return num(key, static_cast<double>(value));
  }
  FlightNote& num(const char* key, std::uint64_t value) {
    return num(key, static_cast<double>(value));
  }
  FlightNote& num(const char* key, int value) {
    return num(key, static_cast<double>(value));
  }

 private:
  const char* type_ = nullptr;
  const char* keys_[kFlightFields] = {};
  double vals_[kFlightFields] = {};
  int n_ = 0;
  bool active_ = false;
};

/// Render the merged rings as a JSON array "[{...},{...}]" of event
/// objects sorted by timestamp. `req` != 0 keeps only records carrying
/// that request id. `count` (optional) receives the number of events.
/// Each object is schema-compatible with the trace sink: "type", "ts"
/// (seconds since the first flight record), "tid", "req" when non-zero,
/// plus the numeric fields. Not signal-safe (allocates the string).
std::string flight_dump_events(std::uint64_t req = 0,
                               std::size_t* count = nullptr);

/// Async-signal-safe dump: writes the JSONL form of every ring to `fd`
/// using only write(2) and local integer formatting. Torn records
/// (a writer racing the handler) are skipped. Returns bytes written.
std::size_t flight_dump_fd(int fd);

/// Install fatal-signal handlers (SIGSEGV, SIGBUS, SIGFPE, SIGABRT, and
/// SIGILL) that flight_dump_fd() into `fd`, then restore the default
/// disposition and re-raise so the process still dies with the original
/// signal. `fd` must stay open for the process lifetime (open it before
/// installing). Pass -1 to uninstall.
void flight_install_crash_handler(int fd);

}  // namespace optalloc::obs
