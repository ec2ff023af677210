#pragma once
// In-memory span recorder for traced runs. The harness opens a span
// around every call it makes into a layer of the program (parse_problem,
// anneal, optimize, verify, a service round trip...), keeps the spans in
// memory and writes them out when the run ends. Self time of a layer is
// its span's duration minus the part of that interval its child spans
// cover.
//
// Spans are recorded from one thread (the harness's own), so the open
// span stack needs no lock.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace optbench {

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;          ///< index of the enclosing span, -1 = root
  std::int64_t req = -1;    ///< request id shared by a request's spans
};

class Tracer {
 public:
  /// Spans are only kept while enabled; a disabled tracer costs one branch.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(const std::string& name, std::int64_t req);
  void end(int index);
  /// Record an already-timed interval under the innermost open span (for
  /// round trips whose start and end the harness observes out of order).
  void interval(const std::string& name, std::int64_t req,
                std::uint64_t start_ns, std::uint64_t end_ns);

  /// Self time in ms per span name over the spans recorded from index
  /// `from` on (see size()).
  std::map<std::string, double> self_ms(std::size_t from = 0) const;

  /// One JSON object per span (name, start_ns, end_ns, parent, req).
  bool write_jsonl(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// The harness-wide tracer.
Tracer& tracer();

/// RAII span around one call into a layer.
class Span {
 public:
  Span(const char* name, std::int64_t req)
      : index_(tracer().enabled() ? tracer().begin(name, req) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

std::uint64_t mono_ns();

}  // namespace optbench
