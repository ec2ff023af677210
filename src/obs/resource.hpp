#pragma once
// Per-subsystem resource accounting: how much the process *weighs*, as
// opposed to how fast it runs (metrics.hpp). Every stateful component —
// clause arenas, incremental sessions, the proven-result cache, parallel
// clause pools, the scheduler queue — reports its live footprint here as
// a (bytes, items) pair per named resource.
//
// A resource is stored in the metrics registry as two signed `level`
// metrics, `res.<name>.bytes` and `res.<name>.items` (metrics.hpp): deltas
// go to the calling thread's shard like counter adds, snapshot() merges
// them, and they appear wherever the registry does (the `metrics` verb,
// Prometheus text, render_metrics, the time-series rings). The deltas are
// *signed* both ways (allocation and release), so the merged value is a
// level, not a monotone sum; each owner is responsible for subtracting
// what it added before it dies.
//
// Two instrumentation styles:
//   * Concurrent containers (cache shards, clause pools, the queue) call
//     res_add() with exact deltas at mutation time — correct under any
//     interleaving because addition commutes.
//   * Single-owner objects (a Solver's arena, a Session's guard table)
//     hold a ResourceTracker and periodically set() their absolute usage;
//     the tracker diffs against its previous value and retracts the
//     remainder on destruction.
//
// Watermarks: set_resource_watermark() arms a per-resource byte
// threshold; check_resource_watermarks() (called from the metrics
// sampler thread) emits a `resource_watermark` trace event on each
// upward crossing of `high` and again on recovery below `low`
// (hysteresis, so a resource oscillating around the threshold does not
// spam the trace).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace optalloc::obs {

/// Cheap copyable handle (the two level metrics); obtain via resource().
struct Resource {
  Metric bytes;
  Metric items;
};

/// Register (or look up) a resource by name. Names share the style of
/// metric names ("sat.arena", "svc.cache"); repeated registration returns
/// the same handle. This is the only way to make a level metric.
Resource resource(std::string_view name);

/// Accumulate signed deltas into the calling thread's shard (zero deltas
/// are skipped).
void res_add(Resource r, std::int64_t bytes_delta, std::int64_t items_delta);

struct ResourceValue {
  std::string name;
  std::int64_t bytes = 0;
  std::int64_t items = 0;
};

/// Every registered resource, read from snapshot() and sorted by name.
std::vector<ResourceValue> resource_snapshot();

/// Absolute-usage reporter for single-owner objects. set() publishes the
/// delta against the previous set(); the destructor retracts everything,
/// so a tracked object's contribution disappears with it.
class ResourceTracker {
 public:
  ResourceTracker() = default;
  explicit ResourceTracker(Resource r) : res_(r), bound_(true) {}
  ~ResourceTracker() { set(0, 0); }
  ResourceTracker(const ResourceTracker&) = delete;
  ResourceTracker& operator=(const ResourceTracker&) = delete;

  void bind(Resource r) {
    res_ = r;
    bound_ = true;
  }

  /// Report current absolute usage; emits only the delta.
  void set(std::int64_t bytes, std::int64_t items);

 private:
  Resource res_;
  bool bound_ = false;
  std::int64_t bytes_ = 0;
  std::int64_t items_ = 0;
};

/// Arm (or re-arm) a byte watermark for `name`. `low` defaults to
/// 3/4 of `high` when not given; pass high = 0 to disarm.
void set_resource_watermark(std::string_view name, std::int64_t high_bytes,
                            std::int64_t low_bytes = -1);

/// Compare every armed watermark against the current snapshot and emit
/// `resource_watermark` trace events (fields: resource, level
/// "high"/"normal", bytes, threshold) on crossings. Intended to be
/// driven by the daemon's metrics-interval sampler; cheap when nothing
/// is armed.
void check_resource_watermarks();

}  // namespace optalloc::obs
