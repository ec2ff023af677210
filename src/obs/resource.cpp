#include "obs/resource.hpp"

#include <atomic>
#include <map>

#include "obs/trace.hpp"
#include "util/mutex.hpp"

namespace optalloc::obs {
namespace {

struct Watermark {
  std::int64_t high = 0;
  std::int64_t low = 0;
  bool above = false;  ///< last reported side (hysteresis state)
};

struct Watermarks {
  util::Mutex mutex;
  std::map<std::string, Watermark, std::less<>> by_name
      OPTALLOC_GUARDED_BY(mutex);
  // Lock-free fast-out for check_resource_watermarks().
  std::atomic<int> count{0};
};

Watermarks& watermarks() {
  static Watermarks* w = new Watermarks();  // leaked: outlives all threads
  return *w;
}

}  // namespace

void res_add(Resource r, std::int64_t bytes_delta, std::int64_t items_delta) {
  if (bytes_delta != 0) add(r.bytes, bytes_delta);
  if (items_delta != 0) add(r.items, items_delta);
}

void ResourceTracker::set(std::int64_t bytes, std::int64_t items) {
  if (!bound_) return;
  res_add(res_, bytes - bytes_, items - items_);
  bytes_ = bytes;
  items_ = items;
}

void set_resource_watermark(std::string_view name, std::int64_t high_bytes,
                            std::int64_t low_bytes) {
  Watermarks& marks = watermarks();
  util::MutexLock lock(marks.mutex);
  if (high_bytes <= 0) {
    marks.by_name.erase(std::string(name));
  } else {
    Watermark& w = marks.by_name[std::string(name)];
    w.high = high_bytes;
    w.low = low_bytes >= 0 ? low_bytes : high_bytes / 4 * 3;
    if (w.low > w.high) w.low = w.high;
  }
  marks.count.store(static_cast<int>(marks.by_name.size()),
                    std::memory_order_relaxed);
}

void check_resource_watermarks() {
  Watermarks& marks = watermarks();
  if (marks.count.load(std::memory_order_relaxed) == 0) return;
  // Snapshot first (takes the registry mutex), then walk the watermark
  // table; crossings are emitted outside any per-shard hot path.
  std::map<std::string, std::int64_t, std::less<>> bytes;
  for (const ResourceValue& v : resource_snapshot()) {
    bytes.emplace(v.name, v.bytes);
  }
  struct Crossing {
    std::string name;
    bool above = false;
    std::int64_t bytes = 0;
    std::int64_t threshold = 0;
  };
  std::vector<Crossing> crossings;
  {
    util::MutexLock lock(marks.mutex);
    for (auto& [name, w] : marks.by_name) {
      const auto it = bytes.find(name);
      const std::int64_t b = it != bytes.end() ? it->second : 0;
      if (!w.above && b >= w.high) {
        w.above = true;
        crossings.push_back({name, true, b, w.high});
      } else if (w.above && b <= w.low) {
        w.above = false;
        crossings.push_back({name, false, b, w.low});
      }
    }
  }
  for (const Crossing& c : crossings) {
    TraceEvent("resource_watermark")
        .str("resource", c.name)
        .str("level", c.above ? "high" : "normal")
        .num("bytes", c.bytes)
        .num("threshold", c.threshold);
  }
}

}  // namespace optalloc::obs
