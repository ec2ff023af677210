// Tests for the allocation service: canonical instance fingerprinting
// (permutation invariance + allocation restoration), the sharded LRU
// result cache, the scheduler's solve/cache/deadline/cancel semantics,
// the NDJSON protocol, and the server's request handling end to end
// (driven through handle_line; one test goes over a Unix socket).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/cost.hpp"
#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rt/verify.hpp"
#include "inc/patch.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/scheduler.hpp"
#include "svc/server.hpp"
#include "workload/tindell.hpp"

namespace optalloc::svc {
namespace {

// A small 2-ECU ring system that optimizes in milliseconds...
constexpr const char* kSystem = R"(system 2
memory 0 100
medium ring0 token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
task sensor period=100 deadline=40 memory=10 wcet=8,10
task control period=100 deadline=80 wcet=25,30
task actuator period=100 deadline=100 jitter=2 wcet=5,-
message sensor -> control bytes=4 deadline=50
message control -> actuator bytes=2 deadline=60 jitter=1
separate control actuator
)";

// ...and the same system with every reorderable declaration reordered:
// tasks reversed, the ring's ECU list flipped, messages swapped, the
// memory line moved. Canonicalization must see through all of it.
constexpr const char* kSystemPermuted = R"(system 2
task actuator period=100 deadline=100 jitter=2 wcet=5,-
task control period=100 deadline=80 wcet=25,30
task sensor period=100 deadline=40 memory=10 wcet=8,10
medium ring0 token_ring ecus=1,0 slot_min=1 slot_max=16 byte_ticks=1
message control -> actuator bytes=2 deadline=60 jitter=1
message sensor -> control bytes=4 deadline=50
separate control actuator
memory 0 100
)";

alloc::Problem parse(const std::string& text) {
  std::istringstream in(text);
  return alloc::parse_problem(in);
}

/// Current registry value of `name` (0 before its first use).
std::int64_t metric(const std::string& name) {
  for (const obs::MetricValue& m : obs::snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// The registry is process-wide, so tests read changes around their own
/// calls: delta(name) is how far `name` moved since construction.
class RegistryDelta {
 public:
  RegistryDelta() {
    for (const obs::MetricValue& m : obs::snapshot()) base_[m.name] = m.value;
  }
  std::int64_t operator()(const std::string& name) const {
    const auto it = base_.find(name);
    return metric(name) - (it == base_.end() ? 0 : it->second);
  }

 private:
  std::map<std::string, std::int64_t> base_;
};

// --- Fingerprinting ----------------------------------------------------

TEST(Fingerprint, PermutationInvariant) {
  const Canonical a = canonicalize(parse(kSystem), alloc::Objective::sum_trt());
  const Canonical b =
      canonicalize(parse(kSystemPermuted), alloc::Objective::sum_trt());
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.key, b.key);
  EXPECT_FALSE(a.key.hex().empty());
}

TEST(Fingerprint, MediumIndexObjectiveIsRemapped) {
  // Same two-ring system declared with the media swapped: a medium-indexed
  // objective must land on the same canonical key when it names the same
  // physical ring.
  const char* kTwoRings = R"(system 3
medium ringA token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
medium ringB token_ring ecus=1,2 slot_min=1 slot_max=8 byte_ticks=1
task a period=100 deadline=90 wcet=5,6,7
task b period=100 deadline=80 wcet=8,9,10
message a -> b bytes=4 deadline=40
)";
  const char* kTwoRingsSwapped = R"(system 3
medium ringB token_ring ecus=2,1 slot_min=1 slot_max=8 byte_ticks=1
medium ringA token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
task a period=100 deadline=90 wcet=5,6,7
task b period=100 deadline=80 wcet=8,9,10
message a -> b bytes=4 deadline=40
)";
  const Canonical ring_b_first =
      canonicalize(parse(kTwoRings), alloc::Objective::ring_trt(1));
  const Canonical ring_b_second =
      canonicalize(parse(kTwoRingsSwapped), alloc::Objective::ring_trt(0));
  EXPECT_EQ(ring_b_first.key, ring_b_second.key);
  // ...but a different ring is a different instance.
  const Canonical ring_a =
      canonicalize(parse(kTwoRings), alloc::Objective::ring_trt(0));
  EXPECT_NE(ring_b_first.key, ring_a.key);
}

TEST(Fingerprint, DistinguishesInstancesAndObjectives) {
  const alloc::Problem p = parse(kSystem);
  const Canonical base = canonicalize(p, alloc::Objective::sum_trt());
  EXPECT_NE(base.key,
            canonicalize(p, alloc::Objective::feasibility()).key);

  alloc::Problem tweaked = p;
  tweaked.tasks.tasks[0].deadline += 1;
  EXPECT_NE(base.key, canonicalize(tweaked, alloc::Objective::sum_trt()).key);
}

TEST(Fingerprint, RestoreAllocationRoundTrips) {
  // Solve the *canonical* form of the permuted instance, translate the
  // allocation back, and check it against the permuted instance itself.
  const alloc::Problem original = parse(kSystemPermuted);
  const alloc::Objective objective = alloc::Objective::sum_trt();
  const Canonical canon = canonicalize(original, objective);

  const alloc::OptimizeResult res =
      alloc::optimize(canon.problem, canon.objective);
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kOptimal);
  ASSERT_TRUE(res.has_allocation);

  const rt::Allocation restored = restore_allocation(canon, res.allocation);
  EXPECT_TRUE(rt::verify(original.tasks, original.arch, restored).feasible);
  const auto cost = alloc::evaluate_allocation(original, objective, restored);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, res.cost);
}

// --- Result cache ------------------------------------------------------

TEST(Fingerprint, CanonicalAllocationInvertsRestore) {
  // The permuted declaration gives nontrivial task/media/slot perms.
  const alloc::Problem permuted = parse(kSystemPermuted);
  const Canonical canon = canonicalize(permuted, alloc::Objective::sum_trt());

  rt::Allocation original;
  original.task_ecu = {1, 0, 0};        // actuator, control, sensor
  original.task_prio = {2, 1, 0};
  original.msg_route = {{0}, {}};       // msg 0 crosses ring0, msg 1 local
  original.msg_local_deadline = {{60}, {}};
  original.slots = {{4, 7}};            // ring0 declared ecus=1,0

  const rt::Allocation canonical = canonical_allocation(canon, original);
  const rt::Allocation back = restore_allocation(canon, canonical);
  EXPECT_EQ(back.task_ecu, original.task_ecu);
  EXPECT_EQ(back.task_prio, original.task_prio);
  EXPECT_EQ(back.msg_route, original.msg_route);
  EXPECT_EQ(back.msg_local_deadline, original.msg_local_deadline);
  EXPECT_EQ(back.slots, original.slots);
}

TEST(ResultCache, HitMissAndLruEviction) {
  const RegistryDelta delta;
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  CachedAnswer a;
  a.cost = 1;
  cache.put({1, 1}, "one", a);
  a.cost = 2;
  cache.put({2, 2}, "two", a);

  const auto hit = cache.get({1, 1}, "one");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 1);

  // {2,2} is now the LRU tail; a third insert evicts it.
  a.cost = 3;
  cache.put({3, 3}, "three", a);
  EXPECT_FALSE(cache.get({2, 2}, "two").has_value());
  EXPECT_TRUE(cache.get({1, 1}, "one").has_value());
  EXPECT_TRUE(cache.get({3, 3}, "three").has_value());
  EXPECT_EQ(delta("res.svc.cache.items"), 2);

  EXPECT_EQ(delta("svc.cache.insertions"), 3);
  EXPECT_EQ(delta("svc.cache.evictions"), 1);
  EXPECT_EQ(delta("svc.cache.hits"), 3);
  EXPECT_EQ(delta("svc.cache.misses"), 1);
}

TEST(ResultCache, CollisionDegradesToMiss) {
  ResultCache cache(4, 1);
  CachedAnswer a;
  a.cost = 7;
  cache.put({42, 1}, "text-a", a);
  // Same 64-bit shard key, different second word / different text: miss.
  EXPECT_FALSE(cache.get({42, 2}, "text-a").has_value());
  EXPECT_FALSE(cache.get({42, 1}, "text-b").has_value());
  EXPECT_TRUE(cache.get({42, 1}, "text-a").has_value());
}

TEST(ResultCache, AccountsBytesAndShardOccupancy) {
  const RegistryDelta delta;
  {
    // One shard: its occupancy is the whole res.svc.cache level.
    ResultCache cache(/*capacity=*/2, /*shards=*/1);
    EXPECT_EQ(delta("res.svc.cache.bytes"), 0);
    CachedAnswer a;
    a.cost = 1;
    a.allocation.task_ecu = {0, 1, 0};
    cache.put({1, 1}, "one", a);
    cache.put({2, 2}, "twotwo", a);
    const std::int64_t two_entries = delta("res.svc.cache.bytes");
    EXPECT_GT(two_entries, 0);
    EXPECT_EQ(delta("res.svc.cache.items"), 2);

    // Eviction keeps bytes in step with entries: the byte count after
    // insert+evict is the two survivors' footprints.
    cache.put({3, 3}, "three", a);
    EXPECT_EQ(delta("res.svc.cache.items"), 2);
    EXPECT_GT(delta("res.svc.cache.bytes"), 0);
    EXPECT_LE(delta("res.svc.cache.bytes"), two_entries + 1024);
    // Refreshing an entry in place changes its bytes, not the count.
    cache.put({3, 3}, std::string(100, 't'), a);
    EXPECT_EQ(delta("res.svc.cache.items"), 2);
    EXPECT_GT(delta("res.svc.cache.bytes"), two_entries);
  }
  // Destruction retracts the cache's whole footprint from the registry.
  EXPECT_EQ(delta("res.svc.cache.bytes"), 0);
  EXPECT_EQ(delta("res.svc.cache.items"), 0);
}

// --- Scheduler ---------------------------------------------------------

SchedulerOptions quick_options(int workers = 2) {
  SchedulerOptions o;
  o.workers = workers;
  o.anneal_iterations = 500;
  return o;
}

TEST(Scheduler, SolvesAndServesPermutedResubmitFromCache) {
  const RegistryDelta delta;
  Scheduler scheduler(quick_options());

  JobRequest first;
  first.problem = parse(kSystem);
  first.objective = alloc::Objective::sum_trt();
  const auto id1 = scheduler.submit(first);
  ASSERT_TRUE(id1.has_value());
  const auto snap1 = scheduler.wait(*id1, 60.0);
  ASSERT_TRUE(snap1.has_value());
  EXPECT_EQ(snap1->state, JobState::kDone);
  EXPECT_EQ(snap1->answer.status, "optimal");
  EXPECT_TRUE(snap1->answer.proven_optimal);
  EXPECT_FALSE(snap1->answer.cached);
  ASSERT_TRUE(snap1->answer.has_allocation);

  // The permuted twin must be served from the cache, with the allocation
  // translated into *its* indexing.
  JobRequest second;
  second.problem = parse(kSystemPermuted);
  second.objective = alloc::Objective::sum_trt();
  const auto id2 = scheduler.submit(second);
  ASSERT_TRUE(id2.has_value());
  const auto snap2 = scheduler.wait(*id2, 60.0);
  ASSERT_TRUE(snap2.has_value());
  EXPECT_EQ(snap2->state, JobState::kDone);
  EXPECT_TRUE(snap2->answer.cached);
  EXPECT_EQ(snap2->answer.cost, snap1->answer.cost);
  ASSERT_TRUE(snap2->answer.has_allocation);
  const alloc::Problem permuted = parse(kSystemPermuted);
  EXPECT_TRUE(rt::verify(permuted.tasks, permuted.arch,
                         snap2->answer.allocation)
                  .feasible);
  const auto cost = alloc::evaluate_allocation(
      permuted, second.objective, snap2->answer.allocation);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, snap2->answer.cost);

  EXPECT_EQ(delta("svc.requests"), 2);
  EXPECT_EQ(delta("svc.completed"), 2);
  EXPECT_EQ(delta("svc.cache.hits"), 1);
  scheduler.shutdown(/*drain=*/true);
}

TEST(Scheduler, DeadlineExpiryReturnsIncumbentWithLowerBound) {
  SchedulerOptions options = quick_options(1);
  options.anneal_iterations = 20000;  // make sure there IS an incumbent
  const RegistryDelta delta;
  Scheduler scheduler(options);

  JobRequest request;
  request.problem = workload::tindell_prefix(30);  // seconds-scale solve
  request.objective = alloc::Objective::ring_trt(0);
  request.deadline_s = 0.25;
  const auto id = scheduler.submit(request);
  ASSERT_TRUE(id.has_value());
  const auto snap = scheduler.wait(*id, 60.0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kDone);
  EXPECT_FALSE(snap->answer.proven_optimal);
  EXPECT_TRUE(snap->answer.deadline_expired);
  ASSERT_TRUE(snap->answer.has_allocation);  // the anytime incumbent
  EXPECT_EQ(snap->answer.status, "feasible");
  EXPECT_LE(snap->answer.lower_bound, snap->answer.cost);
  // Feasible against the original instance, not just claimed.
  EXPECT_TRUE(rt::verify(request.problem.tasks, request.problem.arch,
                         snap->answer.allocation)
                  .feasible);
  EXPECT_EQ(delta("svc.deadline_expired"), 1);
  scheduler.shutdown(true);
}

TEST(Scheduler, CancelMidSolveFreesTheWorker) {
  Scheduler scheduler(quick_options(1));  // single worker: it must free up

  JobRequest slow;
  slow.problem = workload::tindell_prefix(30);
  slow.objective = alloc::Objective::ring_trt(0);
  const auto slow_id = scheduler.submit(slow);
  ASSERT_TRUE(slow_id.has_value());
  // Let it get picked up, then cancel mid-solve.
  for (int i = 0; i < 2000; ++i) {
    const auto s = scheduler.status(*slow_id);
    ASSERT_TRUE(s.has_value());
    if (s->state != JobState::kQueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.cancel(*slow_id));
  const auto cancelled = scheduler.wait(*slow_id, 60.0);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(*slow_id));  // already terminal

  // The (sole) worker must now pick up and finish new work.
  JobRequest quick;
  quick.problem = parse(kSystem);
  quick.objective = alloc::Objective::sum_trt();
  const auto quick_id = scheduler.submit(quick);
  ASSERT_TRUE(quick_id.has_value());
  const auto done = scheduler.wait(*quick_id, 60.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone);
  EXPECT_EQ(done->answer.status, "optimal");
  scheduler.shutdown(true);
}

TEST(Scheduler, BoundedQueueRejectsOverflow) {
  SchedulerOptions options = quick_options(1);
  options.queue_capacity = 1;
  const RegistryDelta delta;
  Scheduler scheduler(options);

  JobRequest busy;
  busy.problem = workload::tindell_prefix(30);
  busy.objective = alloc::Objective::ring_trt(0);
  const auto running = scheduler.submit(busy);
  ASSERT_TRUE(running.has_value());
  for (int i = 0; i < 2000; ++i) {
    if (scheduler.status(*running)->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  JobRequest queued;
  queued.problem = workload::tindell_prefix(29);
  queued.objective = alloc::Objective::ring_trt(0);
  const auto waiting = scheduler.submit(queued);
  ASSERT_TRUE(waiting.has_value());

  JobRequest bounced;
  bounced.problem = workload::tindell_prefix(28);
  bounced.objective = alloc::Objective::ring_trt(0);
  EXPECT_FALSE(scheduler.submit(bounced).has_value());
  EXPECT_EQ(delta("svc.rejected"), 1);
  EXPECT_EQ(delta("svc.requests"), 2);  // a bounced submit is no request

  scheduler.cancel(*running);
  scheduler.cancel(*waiting);
  scheduler.shutdown(/*drain=*/false);
}

// --- Protocol ----------------------------------------------------------

// --- Lock-discipline regressions ---------------------------------------
//
// Each test pins a race the thread-safety annotation sweep surfaced.
// They are functional here and data-race detectors in the TSan CI job
// (which runs this suite via -R SchedulerRace): with the fixes reverted,
// TSan reports the racing pair; without TSan the shutdown test still
// crashes on the double-join.

// submit() used to publish the job (jobs_.emplace / queue_.push_back)
// and only then assign ctx.req and queue_span — so a worker claiming the
// job immediately, or a concurrent status(), read those fields while
// submit() was still writing them. Both are now assigned before the job
// is reachable by anyone else. Distinct instances per submission keep
// the cache out of the way (a hit would complete the job inline and
// never touch a worker).
TEST(SchedulerRace, SubmitVsWorkerAndInspectAssignsBeforePublication) {
  Scheduler scheduler(quick_options(4));

  std::vector<std::string> ids;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> known{0};
  // Two readers hammer status() on every id the submitter has published
  // so far, racing the workers and finalize().
  std::vector<std::string> shared_ids(64);
  auto reader = [&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = known.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        const auto live = scheduler.status(shared_ids[i]);
        ASSERT_TRUE(live.has_value());
        EXPECT_NE(live->req, 0u);  // assigned before publication
      }
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);

  for (int i = 0; i < 24; ++i) {
    JobRequest request;
    // Vary the memory budget so every instance fingerprints differently.
    std::string text(kSystem);
    const auto pos = text.find("memory 0 100");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 12, "memory 0 " + std::to_string(100 + i));
    request.problem = parse(text);
    request.objective = alloc::Objective::sum_trt();
    const auto id = scheduler.submit(request);
    ASSERT_TRUE(id.has_value());
    shared_ids[static_cast<std::size_t>(i)] = *id;
    known.store(static_cast<std::size_t>(i) + 1, std::memory_order_release);
    ids.push_back(*id);
  }
  for (const auto& id : ids) {
    const auto snap = scheduler.wait(id, 120.0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, JobState::kDone);
    EXPECT_TRUE(snap->answer.proven_optimal);
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  scheduler.shutdown(/*drain=*/true);
}

// shutdown() used to let two concurrent callers both reach t.join() on
// the same std::thread (joined_ flipped only after the joins) — UB that
// typically terminates. It is now serialized by a dedicated shutdown
// mutex held across the drain + join, with mu_ free so workers progress.
TEST(SchedulerRace, ConcurrentShutdownJoinsWorkersExactlyOnce) {
  const RegistryDelta delta;
  Scheduler scheduler(quick_options(2));
  for (int i = 0; i < 4; ++i) {
    JobRequest request;
    request.problem = parse(kSystem);
    request.objective = alloc::Objective::sum_trt();
    scheduler.submit(request);
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&scheduler]() { scheduler.shutdown(true); });
  }
  for (auto& t : stoppers) t.join();
  scheduler.shutdown(true);  // still idempotent afterwards
  EXPECT_EQ(delta("svc.completed") + delta("svc.cancelled"),
            delta("svc.requests"));
  EXPECT_EQ(delta("res.svc.queue.items"), 0);
}

// --- Incremental sessions ----------------------------------------------

inc::InstancePatch ops_from_json(const std::string& json) {
  std::string error;
  auto patch = inc::parse_patch(*obs::json_parse(json), &error);
  EXPECT_TRUE(patch.has_value()) << error;
  return patch.value_or(inc::InstancePatch{});
}

TEST(SchedulerSession, OpenReviseCloseLifecycle) {
  const RegistryDelta delta;
  Scheduler scheduler(quick_options(1));

  JobRequest open;
  open.problem = parse(kSystem);
  open.objective = alloc::Objective::sum_trt();
  const auto opened = scheduler.session_open(std::move(open));
  ASSERT_TRUE(opened.has_value());
  const std::string sid = opened->first;
  EXPECT_EQ(opened->second.status, "optimal");
  EXPECT_TRUE(opened->second.proven_optimal);
  EXPECT_TRUE(opened->second.cache_stored);
  EXPECT_GT(opened->second.groups_added, 0);
  const std::int64_t base_cost = opened->second.cost;

  const auto revised = scheduler.session_revise(
      sid,
      ops_from_json(
          R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":35}])"),
      0.0, 0);
  ASSERT_TRUE(revised.has_value());
  EXPECT_EQ(revised->status, "optimal");
  EXPECT_GT(revised->groups_unchanged, 0u);
  EXPECT_GT(revised->groups_retired, 0);

  const auto back = scheduler.session_revise(
      sid,
      ops_from_json(
          R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":25}])"),
      0.0, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cost, base_cost);

  // A structurally invalid patch reports status "error", not nullopt.
  const auto bad = scheduler.session_revise(
      sid, ops_from_json(R"([{"op":"remove_task","task":"ghost"}])"), 0.0,
      0);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, "error");
  EXPECT_FALSE(bad->error.empty());

  EXPECT_EQ(delta("svc.sessions.opened"), 1);
  EXPECT_EQ(delta("res.svc.sessions.items"), 1);
  EXPECT_EQ(delta("svc.revises"), 3);

  EXPECT_TRUE(scheduler.session_close(sid));
  EXPECT_FALSE(scheduler.session_close(sid));
  EXPECT_FALSE(scheduler.session_revise(sid, inc::InstancePatch{}, 0.0, 0)
                   .has_value());
  EXPECT_EQ(delta("svc.sessions.closed"), 1);
  EXPECT_EQ(delta("res.svc.sessions.items"), 0);
  scheduler.shutdown(/*drain=*/true);
}

TEST(SchedulerSession, ReviseDoesNotPoisonBaseCacheEntry) {
  // The satellite regression: a session's post-edit answers must land
  // under the *edited* instance's fingerprint. Storing them under the
  // base fingerprint would make a later cold submit of the base instance
  // replay the edited verdict — here, a false "infeasible".
  Scheduler scheduler(quick_options(1));

  JobRequest open;
  open.problem = parse(kSystem);
  open.objective = alloc::Objective::sum_trt();
  const auto opened = scheduler.session_open(std::move(open));
  ASSERT_TRUE(opened.has_value());
  const std::int64_t base_cost = opened->second.cost;

  // Infeasible edit (control forced onto ECU 1 with a deadline-busting
  // WCET): the session proves it and caches the verdict.
  const std::string kill =
      R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":-1},)"
      R"({"op":"set_wcet","task":"control","ecu":1,"wcet":90}])";
  const auto revised =
      scheduler.session_revise(opened->first, ops_from_json(kill), 0.0, 0);
  ASSERT_TRUE(revised.has_value());
  EXPECT_EQ(revised->status, "infeasible");
  EXPECT_TRUE(revised->proven_optimal);
  EXPECT_TRUE(revised->cache_stored);
  EXPECT_FALSE(revised->core.empty());

  // Cold submit of the *base* instance: must be the base optimum, served
  // from the entry the opening solve stored.
  JobRequest cold_base;
  cold_base.problem = parse(kSystem);
  cold_base.objective = alloc::Objective::sum_trt();
  const auto id1 = scheduler.submit(std::move(cold_base));
  ASSERT_TRUE(id1.has_value());
  const auto snap1 = scheduler.wait(*id1, 60.0);
  ASSERT_TRUE(snap1.has_value());
  EXPECT_EQ(snap1->answer.status, "optimal");
  EXPECT_TRUE(snap1->answer.cached);
  EXPECT_EQ(snap1->answer.cost, base_cost);

  // Cold submit of the *edited* instance: served from the revise's entry.
  alloc::Problem edited = parse(kSystem);
  ASSERT_FALSE(inc::apply_patch(ops_from_json(kill), edited).has_value());
  JobRequest cold_edited;
  cold_edited.problem = std::move(edited);
  cold_edited.objective = alloc::Objective::sum_trt();
  const auto id2 = scheduler.submit(std::move(cold_edited));
  ASSERT_TRUE(id2.has_value());
  const auto snap2 = scheduler.wait(*id2, 60.0);
  ASSERT_TRUE(snap2.has_value());
  EXPECT_EQ(snap2->answer.status, "infeasible");
  EXPECT_TRUE(snap2->answer.cached);
  scheduler.shutdown(/*drain=*/true);
}

TEST(SchedulerSession, CachedSessionAnswerServesPermutedColdSubmit) {
  // A feasible revise's allocation is stored in canonical indexing
  // (canonical_allocation), so a cold submit of a *permuted* declaration
  // of the edited system gets a cache hit with a valid allocation in its
  // own indexing.
  Scheduler scheduler(quick_options(1));

  JobRequest open;
  open.problem = parse(kSystem);
  open.objective = alloc::Objective::sum_trt();
  const auto opened = scheduler.session_open(std::move(open));
  ASSERT_TRUE(opened.has_value());

  const std::string edit =
      R"([{"op":"set_deadline","task":"sensor","deadline":35}])";
  const auto revised =
      scheduler.session_revise(opened->first, ops_from_json(edit), 0.0, 0);
  ASSERT_TRUE(revised.has_value());
  ASSERT_EQ(revised->status, "optimal");
  ASSERT_TRUE(revised->cache_stored);

  alloc::Problem permuted = parse(kSystemPermuted);
  ASSERT_FALSE(inc::apply_patch(ops_from_json(edit), permuted).has_value());
  JobRequest cold;
  cold.problem = permuted;
  cold.objective = alloc::Objective::sum_trt();
  const auto id = scheduler.submit(std::move(cold));
  ASSERT_TRUE(id.has_value());
  const auto snap = scheduler.wait(*id, 60.0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->answer.status, "optimal");
  EXPECT_TRUE(snap->answer.cached);
  EXPECT_EQ(snap->answer.cost, revised->cost);
  ASSERT_TRUE(snap->answer.has_allocation);
  EXPECT_TRUE(
      rt::verify(permuted.tasks, permuted.arch, snap->answer.allocation)
          .feasible);
  const auto cost = alloc::evaluate_allocation(
      permuted, alloc::Objective::sum_trt(), snap->answer.allocation);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, snap->answer.cost);
  scheduler.shutdown(/*drain=*/true);
}

TEST(Protocol, ParsesRequestsAndRejectsGarbage) {
  std::string error;
  const auto submit = parse_request(
      R"({"verb":"submit","problem":"system 1","objective":"feasibility",)"
      R"("deadline_ms":250,"conflicts":5000,"threads":2,"wait":true})",
      &error);
  ASSERT_TRUE(submit.has_value()) << error;
  EXPECT_EQ(submit->verb, Request::Verb::kSubmit);
  EXPECT_EQ(submit->problem_text, "system 1");
  EXPECT_EQ(submit->objective, "feasibility");
  EXPECT_DOUBLE_EQ(submit->deadline_ms, 250.0);
  EXPECT_EQ(submit->conflicts, 5000);
  EXPECT_EQ(submit->threads, 2);
  EXPECT_TRUE(submit->wait);

  const auto cancel =
      parse_request(R"({"verb":"cancel","id":"r7"})", &error);
  ASSERT_TRUE(cancel.has_value());
  EXPECT_EQ(cancel->verb, Request::Verb::kCancel);
  EXPECT_EQ(cancel->id, "r7");

  const auto metrics = parse_request(R"({"verb":"metrics"})", &error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_EQ(metrics->verb, Request::Verb::kMetrics);

  EXPECT_FALSE(parse_request("not json", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"no":"verb"})", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"verb":"frobnicate"})", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"verb":"status"})", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"verb":"submit"})", &error).has_value());
}

TEST(Protocol, IntegerFieldsMustBeWholeNumbersInRange) {
  // Each would otherwise cast an untrusted double to an integer — undefined
  // behaviour when out of range — or ask for more worker threads than the
  // cap: all are refused at parse time with "bad_request".
  const std::string over_cap = std::to_string(kMaxRequestThreads + 1);
  for (const std::string& line : std::vector<std::string>{
           R"({"verb":"submit","problem":"system 1","threads":1e12})",
           R"({"verb":"submit","problem":"system 1","threads":1.5})",
           R"({"verb":"submit","problem":"system 1","threads":0})",
           R"({"verb":"submit","problem":"system 1","threads":)" + over_cap +
               "}",
           R"({"verb":"submit","problem":"system 1","conflicts":1e300})",
           R"({"verb":"submit","problem":"system 1","conflicts":2.5})",
           R"({"verb":"session_open","problem":"system 1","conflicts":-1e30})",
           R"({"verb":"revise","session":"s1","edits":[],"conflicts":0.5})",
           R"({"verb":"query","metric":"m","max_samples":1e25})",
           R"({"verb":"query","metric":"m","max_samples":-3})"}) {
    std::string error, code;
    EXPECT_FALSE(parse_request(line, &error, &code).has_value()) << line;
    EXPECT_EQ(code, "bad_request") << line;
    EXPECT_NE(error.find("integer"), std::string::npos) << error;
  }
  // A number in an edit is the patch's to refuse.
  std::string error, code;
  EXPECT_FALSE(parse_request(
                   R"({"verb":"revise","session":"s1","edits":[{"op":"set_wcet",)"
                   R"("task":"a","ecu":1e12,"wcet":5}]})",
                   &error, &code)
                   .has_value());
  EXPECT_EQ(code, "bad_patch");

  // The cap itself and large whole budgets still parse.
  const auto at_cap = parse_request(
      R"({"verb":"submit","problem":"system 1","conflicts":1e15,"threads":)" +
          std::to_string(kMaxRequestThreads) + "}",
      &error, &code);
  ASSERT_TRUE(at_cap.has_value()) << error;
  EXPECT_EQ(at_cap->threads, kMaxRequestThreads);
  EXPECT_EQ(at_cap->conflicts, std::int64_t{1000000000000000});

  // Through the server: refused before any job exists.
  const RegistryDelta delta;
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  const auto refused = obs::json_parse(server.handle_line(
      obs::JsonObject()
          .str("verb", "submit")
          .str("problem", kSystem)
          .raw("conflicts", "2.5")
          .build()));
  ASSERT_TRUE(refused.has_value());
  EXPECT_FALSE(refused->get("ok")->b);
  EXPECT_EQ(refused->get_string("code"), "bad_request");
  EXPECT_EQ(delta("svc.requests"), 0);
}

TEST(Protocol, ResponseLinesAreWellFormedJson) {
  JobSnapshot snap;
  snap.id = "r1";
  snap.state = JobState::kDone;
  snap.answer.status = "feasible";
  snap.answer.deadline_expired = true;
  snap.answer.cost = 42;
  snap.answer.lower_bound = 17;
  snap.answer.has_allocation = true;
  snap.answer.allocation.task_ecu = {0, 1, 0};
  const auto doc = obs::json_parse(snapshot_line(snap));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("state"), "done");
  EXPECT_EQ(doc->get_number("cost"), 42.0);
  EXPECT_EQ(doc->get_number("lower_bound"), 17.0);
  const obs::JsonValue* proven = doc->get("proven_optimal");
  ASSERT_NE(proven, nullptr);
  EXPECT_FALSE(proven->b);
  const obs::JsonValue* ecus = doc->get("task_ecu");
  ASSERT_NE(ecus, nullptr);
  EXPECT_EQ(ecus->array.size(), 3u);

  EXPECT_TRUE(obs::json_parse(error_line(R"(bad "quoted" input)")).has_value());

  // The metrics verb's response wraps the full typed registry snapshot.
  const auto metrics = obs::json_parse(metrics_line());
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->get("ok")->b);
  ASSERT_NE(metrics->get("metrics"), nullptr);
  EXPECT_TRUE(metrics->get("metrics")->is_object());
}

TEST(Protocol, ErrorCodesClassifyParseFailures) {
  // Every rejection carries a machine-readable code alongside the human
  // message: bad_json (unparseable line), bad_request (well-formed but
  // incomplete), unknown_verb (verb outside the vocabulary).
  std::string error, code;
  EXPECT_FALSE(parse_request("not json", &error, &code).has_value());
  EXPECT_EQ(code, "bad_json");
  EXPECT_FALSE(parse_request(R"({"no":"verb"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");
  EXPECT_FALSE(
      parse_request(R"({"verb":"frobnicate"})", &error, &code).has_value());
  EXPECT_EQ(code, "unknown_verb");
  EXPECT_FALSE(
      parse_request(R"({"verb":"status"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");  // id-verbs without an id
  EXPECT_FALSE(
      parse_request(R"({"verb":"submit"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");

  // There is no stats or inspect verb (metrics and status answer for
  // them); dump's id is optional (absent = all rings).
  EXPECT_FALSE(
      parse_request(R"({"verb":"stats"})", &error, &code).has_value());
  EXPECT_EQ(code, "unknown_verb");
  EXPECT_FALSE(parse_request(R"({"verb":"inspect","id":"r1"})", &error, &code)
                   .has_value());
  EXPECT_EQ(code, "unknown_verb");
  const auto dump = parse_request(R"({"verb":"dump"})", &error, &code);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(dump->verb, Request::Verb::kDump);
  EXPECT_TRUE(dump->id.empty());

  // The error reply line carries the code; callers that don't pick one
  // get the generic "error".
  const auto reply = obs::json_parse(error_line("nope", "unknown_id"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->get("ok")->b);
  EXPECT_EQ(reply->get_string("error"), "nope");
  EXPECT_EQ(reply->get_string("code"), "unknown_id");
  EXPECT_EQ(obs::json_parse(error_line("x"))->get_string("code"), "error");
}

// --- Server (protocol dispatch without sockets) ------------------------

std::string submit_line(const std::string& problem, const std::string& obj,
                        bool wait) {
  obs::JsonObject o;
  o.str("verb", "submit").str("problem", problem).str("objective", obj);
  if (wait) o.boolean("wait", true);
  return o.build();
}

TEST(Server, HandlesFullRequestLifecycle) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  // Submit + wait: terminal snapshot straight away.
  const auto first =
      obs::json_parse(server.handle_line(submit_line(kSystem, "sum-trt",
                                                     /*wait=*/true)));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->get_string("state"), "done");
  EXPECT_EQ(first->get_string("status"), "optimal");

  // Permuted twin: cache hit.
  const auto second = obs::json_parse(
      server.handle_line(submit_line(kSystemPermuted, "sum-trt", true)));
  ASSERT_TRUE(second.has_value());
  const obs::JsonValue* cached = second->get("cached");
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->b);
  EXPECT_EQ(second->get_number("cost"), first->get_number("cost"));

  // Async submit + status + result.
  const auto ack = obs::json_parse(
      server.handle_line(submit_line(kSystem, "feasibility", false)));
  ASSERT_TRUE(ack.has_value());
  const auto ack_id = ack->get_string("id");
  ASSERT_TRUE(ack_id.has_value());
  const auto result = obs::json_parse(server.handle_line(
      obs::JsonObject().str("verb", "result").str("id", *ack_id).build()));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->get_string("state"), "done");

  // Errors: malformed problem, unknown id, junk line.
  const auto bad_problem = obs::json_parse(
      server.handle_line(submit_line("system 1\nbogus line", "sum-trt", false)));
  ASSERT_TRUE(bad_problem.has_value());
  EXPECT_FALSE(bad_problem->get("ok")->b);
  EXPECT_NE(bad_problem->get_string("error")->find("line 2"),
            std::string::npos);
  const auto unknown = obs::json_parse(server.handle_line(
      R"({"verb":"status","id":"r999"})"));
  EXPECT_FALSE(unknown->get("ok")->b);
  EXPECT_FALSE(obs::json_parse(server.handle_line("][nonsense"))->get("ok")->b);

  // The metrics verb reflects the cache hit.
  const auto metrics = obs::json_parse(
      server.handle_line(R"({"verb":"metrics"})"));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_GE(*metrics->get("metrics")->get("svc.cache.hits")->get_number(
                "value"),
            1.0);

  // Shutdown verb acknowledges and flips the stop flag.
  EXPECT_FALSE(server.stop_requested());
  const auto bye = obs::json_parse(
      server.handle_line(R"({"verb":"shutdown","drain":true})"));
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(bye->get("ok")->b);
  EXPECT_TRUE(server.stop_requested());
}

TEST(Server, UnknownVerbRepliesWithStructuredCode) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  const auto bad =
      obs::json_parse(server.handle_line(R"({"verb":"frobnicate"})"));
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->get("ok")->b);
  EXPECT_EQ(bad->get_string("code"), "unknown_verb");
  EXPECT_TRUE(bad->get_string("error").has_value());

  const auto junk = obs::json_parse(server.handle_line("][nonsense"));
  EXPECT_EQ(junk->get_string("code"), "bad_json");
  const auto incomplete =
      obs::json_parse(server.handle_line(R"({"verb":"status"})"));
  EXPECT_EQ(incomplete->get_string("code"), "bad_request");
}

TEST(Server, OverlongRequestLineIsRefusedOverASocket) {
  char dir[] = "/tmp/optalloc_svc_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/alloc.sock";
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  ASSERT_TRUE(server.listen_unix(path));
  std::thread runner([&server] { server.run(); });
  struct StopOnExit {  // also on a failed ASSERT: never leave run() going
    Server& server;
    std::thread& runner;
    const char* dir;
    ~StopOnExit() {
      server.request_stop();
      runner.join();  // run() unlinks the socket before it returns
      ::rmdir(dir);
    }
  } stop_on_exit{server, runner, dir};

  // One byte over the cap: refused with its code, connection closed.
  const int big = connect_unix(path);
  ASSERT_GE(big, 0);
  const timeval limit{30, 0};  // a server that never answers fails the test
  ::setsockopt(big, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  (void)send_line(big, std::string(kMaxRequestBytes + 1, 'x'));
  std::string buffer;
  std::string line;
  ASSERT_TRUE(recv_line(big, buffer, line));
  const auto refused = obs::json_parse(line);
  ASSERT_TRUE(refused.has_value()) << line;
  EXPECT_FALSE(refused->get("ok")->b);
  EXPECT_EQ(refused->get_string("code"), "request_too_large");
  EXPECT_FALSE(recv_line(big, buffer, line));  // the server hung up
  ::close(big);

  // The server itself is still answering.
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_line(fd, R"({"verb":"metrics"})"));
  buffer.clear();
  ASSERT_TRUE(recv_line(fd, buffer, line));
  const auto reply = obs::json_parse(line);
  ASSERT_TRUE(reply.has_value()) << line;
  EXPECT_TRUE(reply->get("ok")->b);
  ::close(fd);
}

TEST(Server, ObjectiveOnAMissingMediumIsRefused) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  for (const char* objective : {"trt:99", "trt:-1", "can-load:0"}) {
    const auto submitted = obs::json_parse(
        server.handle_line(submit_line(kSystem, objective, true)));
    ASSERT_TRUE(submitted.has_value()) << objective;
    EXPECT_FALSE(submitted->get("ok")->b) << objective;
    EXPECT_EQ(submitted->get_string("code"), "bad_objective") << objective;
    const auto opened = obs::json_parse(server.handle_line(
        obs::JsonObject()
            .str("verb", "session_open")
            .str("problem", kSystem)
            .str("objective", objective)
            .build()));
    ASSERT_TRUE(opened.has_value()) << objective;
    EXPECT_FALSE(opened->get("ok")->b) << objective;
    EXPECT_EQ(opened->get_string("code"), "bad_objective") << objective;
  }
  // The service keeps answering valid requests.
  const auto good = obs::json_parse(
      server.handle_line(submit_line(kSystem, "trt:0", true)));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->get_string("status"), "optimal");
}

TEST(Server, SessionVerbsLifecycle) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  const auto opened = obs::json_parse(server.handle_line(
      obs::JsonObject()
          .str("verb", "session_open")
          .str("problem", kSystem)
          .str("objective", "sum-trt")
          .build()));
  ASSERT_TRUE(opened.has_value());
  ASSERT_TRUE(opened->get("ok")->b);
  const auto sid = opened->get_string("session");
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(opened->get_string("status"), "optimal");
  ASSERT_NE(opened->get("task_ecu"), nullptr);
  const double base_cost = *opened->get_number("cost");

  // Feasible edit, then the inverse edit: optimum must come back.
  const auto worse = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"set_wcet","task":"sensor","ecu":0,"wcet":30}]})"));
  ASSERT_TRUE(worse.has_value());
  ASSERT_TRUE(worse->get("ok")->b);
  EXPECT_EQ(worse->get_string("status"), "optimal");
  const auto back = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"set_wcet","task":"sensor","ecu":0,"wcet":8}]})"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back->get_number("cost"), base_cost);

  // Infeasible edit: unsat_core names the conflicting constraint groups.
  const auto dead = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"set_wcet","task":"control","ecu":0,"wcet":-1},)" +
      R"({"op":"set_wcet","task":"control","ecu":1,"wcet":90}]})"));
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->get_string("status"), "infeasible");
  const obs::JsonValue* core = dead->get("unsat_core");
  ASSERT_NE(core, nullptr);
  ASSERT_EQ(core->kind, obs::JsonValue::Kind::kArray);
  EXPECT_FALSE(core->array.empty());

  // Error codes: malformed edits, unknown session, missing fields.
  const auto bad_patch = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"transmogrify"}]})"));
  EXPECT_EQ(bad_patch->get_string("code"), "bad_patch");
  const auto unknown = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":"s999","edits":[]})"));
  EXPECT_EQ(unknown->get_string("code"), "unknown_session");
  const auto missing = obs::json_parse(
      server.handle_line(R"({"verb":"revise","session":"s1"})"));
  EXPECT_EQ(missing->get_string("code"), "bad_request");

  const auto closed = obs::json_parse(server.handle_line(
      R"({"verb":"session_close","session":")" + *sid + R"("})"));
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->get("ok")->b);
  const auto closed_again = obs::json_parse(server.handle_line(
      R"({"verb":"session_close","session":")" + *sid + R"("})"));
  EXPECT_EQ(closed_again->get_string("code"), "unknown_session");
}

TEST(Server, StatusAndDumpVerbs) {
  obs::flight_reset();
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  // Both verbs reject ids the scheduler has never seen.
  const auto missing = obs::json_parse(
      server.handle_line(R"({"verb":"status","id":"r999"})"));
  EXPECT_FALSE(missing->get("ok")->b);
  EXPECT_EQ(missing->get_string("code"), "unknown_id");
  const auto no_dump =
      obs::json_parse(server.handle_line(R"({"verb":"dump","id":"r999"})"));
  EXPECT_FALSE(no_dump->get("ok")->b);
  EXPECT_EQ(no_dump->get_string("code"), "unknown_id");

  const auto done = obs::json_parse(
      server.handle_line(submit_line(kSystem, "sum-trt", /*wait=*/true)));
  ASSERT_TRUE(done.has_value());
  const auto id = done->get_string("id");
  ASSERT_TRUE(id.has_value());

  // status on a finished job: terminal phase, the effort spent, and the
  // answer in place of the live interval.
  const auto view = obs::json_parse(server.handle_line(
      obs::JsonObject().str("verb", "status").str("id", *id).build()));
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->get("ok")->b);
  EXPECT_EQ(view->get_string("id"), *id);
  EXPECT_EQ(view->get_string("state"), "done");
  EXPECT_EQ(view->get_string("phase"), "finished");
  EXPECT_GE(*view->get_number("elapsed_ms"), 0.0);
  EXPECT_EQ(view->get_number("elapsed_ms"), view->get_number("total_ms"));
  EXPECT_GE(*view->get_number("sat_calls"), 1.0);
  EXPECT_EQ(view->get_string("status"), "optimal");
  EXPECT_TRUE(view->get("proven_optimal")->b);
  EXPECT_EQ(view->get("upper"), nullptr);
  const auto req_field = view->get_number("req");
  ASSERT_TRUE(req_field.has_value());
  EXPECT_GT(*req_field, 0.0);

  // dump filtered to that request: the flight ring replays the solve's
  // records (interval / solve notes at minimum), count matching.
  const auto dump = obs::json_parse(server.handle_line(
      obs::JsonObject().str("verb", "dump").str("id", *id).build()));
  ASSERT_TRUE(dump.has_value());
  EXPECT_TRUE(dump->get("ok")->b);
  const obs::JsonValue* events = dump->get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(dump->get_number("count"),
            static_cast<double>(events->array.size()));
  ASSERT_FALSE(events->array.empty());
  bool saw_solve = false;
  for (const auto& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_EQ(ev.get_number("req"), *req_field);  // filter honored
    if (ev.get_string("type") == "solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_solve);

  // Unfiltered dump (no id): a superset of the filtered one.
  const auto all = obs::json_parse(server.handle_line(R"({"verb":"dump"})"));
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->get("ok")->b);
  EXPECT_GE(*all->get_number("count"), *dump->get_number("count"));
}

TEST(Scheduler, InspectTracksLifecyclePhases) {
  Scheduler scheduler(quick_options(1));
  JobRequest request;
  request.problem = workload::tindell_prefix(30);  // long enough to observe
  request.objective = alloc::Objective::ring_trt(0);
  const auto id = scheduler.submit(request);
  ASSERT_TRUE(id.has_value());

  // Before the worker finishes, status must answer lock-free with a
  // non-terminal phase and a widening-at-worst interval.
  std::set<std::string> phases;
  for (int i = 0; i < 4000; ++i) {
    const auto ins = scheduler.status(*id);
    ASSERT_TRUE(ins.has_value());
    phases.insert(job_phase_name(ins->phase));
    if (ins->phase == JobPhase::kSolving && ins->sat_calls > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(phases.count("solving") > 0 || phases.count("finished") > 0)
      << "never saw the job leave the queue";

  EXPECT_TRUE(scheduler.cancel(*id));
  const auto final_snap = scheduler.wait(*id, 60.0);
  ASSERT_TRUE(final_snap.has_value());
  const auto ins = scheduler.status(*id);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(ins->phase, JobPhase::kFinished);
  EXPECT_EQ(ins->state, JobState::kCancelled);
  EXPECT_EQ(ins->req, final_snap->req);
  EXPECT_NE(ins->req, 0u);
  EXPECT_FALSE(scheduler.status("bogus").has_value());
  scheduler.shutdown(true);
}

TEST(Server, MetricsVerbExposesRequestHistograms) {
  obs::reset_metrics();
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  ASSERT_TRUE(
      obs::json_parse(server.handle_line(submit_line(kSystem, "sum-trt",
                                                     /*wait=*/true)))
          ->get("ok")
          ->b);

  const auto doc =
      obs::json_parse(server.handle_line(R"({"verb":"metrics"})"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->get("ok")->b);
  const obs::JsonValue* metrics = doc->get("metrics");
  ASSERT_NE(metrics, nullptr);

  // The wire document decodes into snapshot form; the request-latency
  // histogram must carry the completed request, with the p95 inside one
  // of its (non-empty) buckets.
  const auto decoded = obs::metrics_from_json(*metrics);
  bool found = false;
  for (const auto& m : decoded) {
    if (m.name != "svc.request_ms") continue;
    found = true;
    EXPECT_EQ(m.kind, obs::MetricKind::kHistogram);
    EXPECT_GE(m.value, 1);
    ASSERT_FALSE(m.buckets.empty());
    const double p95 = obs::histogram_quantile(m.buckets, 0.95);
    bool inside = false;
    for (const auto& b : m.buckets) {
      if (p95 >= b.lo && p95 < b.hi) inside = true;
    }
    EXPECT_TRUE(inside);
  }
  EXPECT_TRUE(found);

  // Resources travel in the same document as levels: the cache now holds
  // the proven answer.
  const auto cache =
      std::find_if(decoded.begin(), decoded.end(), [](const auto& m) {
        return m.name == "res.svc.cache.bytes";
      });
  ASSERT_NE(cache, decoded.end());
  EXPECT_EQ(cache->kind, obs::MetricKind::kLevel);
  EXPECT_GT(cache->value, 0);

  // The decoded snapshot renders to Prometheus text like a local one.
  const std::string prom = obs::prometheus_from_snapshot(decoded);
  EXPECT_NE(prom.find("# TYPE svc_request_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("svc_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// --- Trace events ------------------------------------------------------

TEST(Trace, ServiceLifecycleEventsAreEmitted) {
  std::ostringstream trace;
  obs::trace_to_stream(&trace);

  {
    Scheduler scheduler(quick_options(1));
    JobRequest request;
    request.problem = parse(kSystem);
    request.objective = alloc::Objective::sum_trt();
    const auto id = scheduler.submit(request);
    ASSERT_TRUE(id.has_value());
    ASSERT_TRUE(scheduler.wait(*id, 60.0).has_value());
    const auto rerun = scheduler.submit(request);  // identical: cache hit
    ASSERT_TRUE(rerun.has_value());
    ASSERT_TRUE(scheduler.wait(*rerun, 60.0).has_value());

    JobRequest hopeless;
    hopeless.problem = workload::tindell_prefix(30);
    hopeless.objective = alloc::Objective::ring_trt(0);
    hopeless.deadline_s = 0.15;
    const auto late = scheduler.submit(hopeless);
    ASSERT_TRUE(late.has_value());
    const auto snap = scheduler.wait(*late, 60.0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_TRUE(snap->answer.deadline_expired);
    scheduler.shutdown(true);
  }
  obs::trace_to_stream(nullptr);

  std::map<std::string, int> census;
  std::map<std::uint64_t, std::uint64_t> open_spans;  // span id -> req
  int solver_events = 0, solver_events_without_req = 0;
  std::set<std::uint64_t> reqs;
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const std::string type = *doc->get_string("type");
    ++census[type];
    const auto req = doc->get_number("req");
    if (req) reqs.insert(static_cast<std::uint64_t>(*req));
    if (type == "span_begin" || type == "span_end") {
      ASSERT_TRUE(req.has_value()) << line;  // all service spans belong
      const auto span = doc->get_number("span");
      ASSERT_TRUE(span.has_value()) << line;
      const auto id = static_cast<std::uint64_t>(*span);
      if (type == "span_begin") {
        EXPECT_EQ(open_spans.count(id), 0u) << "duplicate span " << line;
        open_spans[id] = static_cast<std::uint64_t>(*req);
      } else {
        // Every span_end matches an open span_begin of the same request.
        auto it = open_spans.find(id);
        ASSERT_NE(it, open_spans.end()) << "unmatched span_end " << line;
        EXPECT_EQ(it->second, static_cast<std::uint64_t>(*req));
        EXPECT_GE(*doc->get_number("seconds"), 0.0);
        open_spans.erase(it);
      }
    } else if (type == "solve" || type == "interval" || type == "optimum" ||
               type == "solver_restart") {
      ++solver_events;
      if (!req) ++solver_events_without_req;
    }
  }
  EXPECT_EQ(census["request_received"], 3);
  EXPECT_EQ(census["request_done"], 3);
  EXPECT_EQ(census["cache_hit"], 1);
  EXPECT_GE(census["deadline_expired"], 1);

  // Request correlation: spans balance, every solver-side event inherits
  // the request id from the worker's installed context, and the three
  // submissions got three distinct request ids.
  EXPECT_TRUE(open_spans.empty()) << open_spans.size() << " unclosed spans";
  EXPECT_EQ(census["span_begin"], census["span_end"]);
  EXPECT_GT(census["span_begin"], 0);
  EXPECT_GT(solver_events, 0);
  EXPECT_EQ(solver_events_without_req, 0);
  EXPECT_EQ(reqs.size(), 3u);
}

// --- Uptime + time-series query verb -----------------------------------

TEST(Scheduler, StatsReportUptimeAndStartTime) {
  const std::int64_t t0 = obs::wall_unix_ms();
  Scheduler scheduler(quick_options(3));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The registry carries the service's birth on the wall clock and its
  // worker count; uptime is any reader's own clock minus the start.
  const std::int64_t start = metric("svc.start_time_unix_ms");
  EXPECT_GE(start, t0 - 1000);
  EXPECT_LE(start, obs::wall_unix_ms() + 1000);
  EXPECT_EQ(metric("svc.workers"), 3);
  const double uptime = (obs::wall_unix_ms() - start) / 1000.0;
  EXPECT_GT(uptime, 0.0);
  EXPECT_LT(uptime, 60.0);

  // The same gauges travel on the wire through the metrics verb.
  const auto doc = obs::json_parse(metrics_line());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* gauges = doc->get("metrics");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->get("svc.start_time_unix_ms")->get_string("kind"),
            "gauge");
  EXPECT_EQ(gauges->get("svc.start_time_unix_ms")->get_number("value"),
            static_cast<double>(start));
  EXPECT_EQ(gauges->get("svc.workers")->get_number("value"), 3.0);

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT((obs::wall_unix_ms() - metric("svc.start_time_unix_ms")) / 1000.0,
            uptime);
  EXPECT_EQ(metric("svc.start_time_unix_ms"), start);
  scheduler.shutdown(/*drain=*/true);
}

TEST(Protocol, QueryVerbParsesAndSerializes) {
  std::string error, code;
  const auto catalogue =
      parse_request("{\"verb\":\"query\"}", &error, &code);
  ASSERT_TRUE(catalogue.has_value()) << error;
  EXPECT_EQ(catalogue->verb, Request::Verb::kQuery);
  EXPECT_TRUE(catalogue->metric.empty());

  const auto series = parse_request(
      "{\"verb\":\"query\",\"metric\":\"svc.request_ms.p99\","
      "\"last_s\":60,\"max_samples\":32}",
      &error, &code);
  ASSERT_TRUE(series.has_value()) << error;
  EXPECT_EQ(series->metric, "svc.request_ms.p99");
  EXPECT_EQ(series->last_s, 60.0);
  EXPECT_EQ(series->max_samples, 32);

  obs::reset_timeseries();
  obs::timeseries_record("test.proto.series", 1000, 1.5);
  obs::timeseries_record("test.proto.series", 2000, 2.5);

  // Catalogue mode: one row per series with count + latest sample.
  const auto list_doc = obs::json_parse(query_line(*catalogue));
  ASSERT_TRUE(list_doc.has_value());
  EXPECT_EQ(list_doc->get_number("count"), 1.0);
  const obs::JsonValue* rows = list_doc->get("series");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_EQ(rows->array[0].get_string("metric"), "test.proto.series");
  EXPECT_EQ(rows->array[0].get_number("count"), 2.0);
  EXPECT_EQ(rows->array[0].get_number("last"), 2.5);
  EXPECT_EQ(rows->array[0].get_number("last_unix_ms"), 2000.0);

  // Series mode: chronological [unix_ms, value] pairs.
  Request q;
  q.verb = Request::Verb::kQuery;
  q.metric = "test.proto.series";
  const auto doc = obs::json_parse(query_line(q));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("metric"), "test.proto.series");
  EXPECT_EQ(doc->get_number("count"), 2.0);
  const obs::JsonValue* samples = doc->get("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->array.size(), 2u);
  ASSERT_EQ(samples->array[1].array.size(), 2u);
  EXPECT_EQ(samples->array[0].array[0].number, 1000.0);
  EXPECT_EQ(samples->array[0].array[1].number, 1.5);
  EXPECT_EQ(samples->array[1].array[0].number, 2000.0);
  EXPECT_EQ(samples->array[1].array[1].number, 2.5);

  // Unknown series: ok with an empty sample list, not an error.
  q.metric = "no.such.series";
  const auto empty_doc = obs::json_parse(query_line(q));
  ASSERT_TRUE(empty_doc.has_value());
  EXPECT_EQ(empty_doc->get_number("count"), 0.0);
}

TEST(Server, QueryVerbServesSeriesEndToEnd) {
  obs::reset_timeseries();
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  JobRequest job;
  job.problem = parse(kSystem);
  job.objective = alloc::Objective::sum_trt();
  // Drive traffic through the scheduler, then sample twice so quantile
  // series exist with >= 2 points (what alloc_top draws).
  const auto id = server.scheduler().submit(job);
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(server.scheduler().wait(*id, 60.0).has_value());
  obs::timeseries_sample_now();
  obs::timeseries_sample_now();

  const auto catalogue = obs::json_parse(
      server.handle_line("{\"verb\":\"query\"}"));
  ASSERT_TRUE(catalogue.has_value());
  ASSERT_NE(catalogue->get("series"), nullptr);
  std::set<std::string> names;
  for (const auto& row : catalogue->get("series")->array) {
    names.insert(*row.get_string("metric"));
  }
  EXPECT_EQ(names.count("svc.request_ms.p99"), 1u);
  EXPECT_EQ(names.count("res.svc.cache.bytes"), 1u);
  EXPECT_EQ(names.count("res.sat.arena.bytes"), 1u);

  const auto doc = obs::json_parse(server.handle_line(
      "{\"verb\":\"query\",\"metric\":\"svc.request_ms.p99\","
      "\"last_s\":600}"));
  ASSERT_TRUE(doc.has_value());
  ASSERT_GE(*doc->get_number("count"), 2.0);
  const obs::JsonValue* samples = doc->get("samples");
  ASSERT_NE(samples, nullptr);
  std::int64_t prev = 0;
  for (const auto& pair : samples->array) {
    ASSERT_EQ(pair.array.size(), 2u);
    const auto ms = static_cast<std::int64_t>(pair.array[0].number);
    EXPECT_GE(ms, prev);  // correctly timestamped: chronological
    prev = ms;
  }
  // Timestamps are wall-clock: within ten minutes of "now".
  EXPECT_GT(prev, obs::wall_unix_ms() - 600 * 1000);
}

}  // namespace
}  // namespace optalloc::svc
