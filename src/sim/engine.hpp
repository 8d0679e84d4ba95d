#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace nectar::obs {
class Registration;
}

namespace nectar::sim {

class ParallelEngine;

/// Deterministic discrete-event engine.
///
/// Single-threaded: events fire in (time, insertion-order) order, so every
/// run of a given scenario is bit-for-bit reproducible. All hardware models
/// and the CAB/host CPU schedulers are driven from this queue. Under a
/// ParallelEngine each shard owns one Engine; an Engine is then confined to
/// its shard's worker thread and talks to other shards only through
/// send_cross().
///
/// Events live in a slab of pooled slots (free-list recycled) holding their
/// callables inline; an EventId is a generation-checked handle into the slab,
/// so cancel() is O(1) and stale handles (fired, cancelled, or recycled
/// events) are rejected without any map lookup. The queue is a 4-ary
/// min-heap of lightweight (time, seq, handle) entries: half the depth of a
/// binary heap, and the four children compared at each step are adjacent.
class Engine {
 public:
  using EventId = std::uint64_t;
  using Action = InplaceAction;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Action fn);

  /// Schedule `fn` `delay` nanoseconds from now.
  EventId schedule_in(SimTime delay, Action fn) { return schedule_at(now_ + delay, std::move(fn)); }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before (stale handles are detected by generation).
  bool cancel(EventId id);

  /// Process a single event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty.
  void run();

  /// Run until simulated time `t` (events at exactly `t` are processed).
  /// Returns true if the queue still has later events.
  bool run_until(SimTime t);

  /// Run until `pred()` becomes true or the queue drains.
  /// Returns true if the predicate was satisfied.
  bool run_while(const std::function<bool()>& pending);

  std::uint64_t events_processed() const { return processed_; }
  bool empty() const { return live_ == 0; }
  std::size_t pending_events() const { return live_; }

  // --- event-pool statistics (observability probes) -------------------------

  /// Slots ever allocated in the slab (high-water of concurrently live events).
  std::size_t pool_slots() const { return slots_.size(); }
  /// Slots currently on the free list.
  std::size_t pool_free() const { return free_.size(); }
  /// Events that reused a recycled slot instead of growing the slab.
  std::uint64_t pool_reuses() const { return pool_reuses_; }
  /// Scheduled actions whose captures spilled to the heap (SBO miss).
  std::uint64_t heap_actions() const { return heap_actions_; }

  /// Report queue/pool statistics as probes under (node, "sim.engine").
  /// The engine is network-wide, so callers conventionally pass node -1.
  void register_metrics(obs::Registration& reg, int node = -1) const;

  // --- shard membership (conservative parallel simulation) ------------------

  /// Attach this engine to `coordinator` as shard `shard_id`. Called once by
  /// ParallelEngine's constructor.
  void set_shard(ParallelEngine* coordinator, int shard_id) {
    coordinator_ = coordinator;
    shard_id_ = shard_id;
  }
  int shard_id() const { return shard_id_; }

  /// Earliest live event time, or -1 if the queue is empty. Prunes
  /// cancelled entries from the heap top while peeking.
  SimTime next_event_time();

  /// Schedule `fn` at time `t` on `dst`, which may live on another shard.
  /// Same-engine sends collapse to schedule_at (zero overhead, identical
  /// semantics at shards=1); cross-shard sends go through the coordinator's
  /// mailbox and land at the next window barrier. `key` names the sending
  /// element (stable across runs) and `seq` is its per-key counter; the pair
  /// makes the mailbox drain order — and therefore the simulation —
  /// deterministic. Must only be called from this shard's worker thread.
  void send_cross(Engine& dst, SimTime t, Action fn, std::uint64_t key, std::uint64_t seq);

  /// Events this shard posted to other shards via send_cross().
  std::uint64_t cross_posts() const { return cross_posts_; }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    bool armed = false;
    Action action;
  };

  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;  // global insertion order: ties on `time` fire FIFO
    EventId id;
    bool operator<(const QueueEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  // EventId layout: (slot index + 1) << 32 | generation. The +1 keeps 0 free
  // as a "no event" sentinel for callers.
  static EventId make_id(std::size_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot + 1) << 32) | gen;
  }
  /// The slot an id refers to iff the id is live; nullptr for stale handles.
  Slot* live_slot(EventId id);
  void release_slot(std::size_t slot_index);
  void heap_push(QueueEntry e);
  void heap_pop();  // removes heap_.front(), the earliest entry

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::vector<QueueEntry> heap_;  // 4-ary min-heap on (time, seq); children of i: 4i+1..4i+4
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;

  std::uint64_t pool_reuses_ = 0;
  std::uint64_t heap_actions_ = 0;

  ParallelEngine* coordinator_ = nullptr;
  int shard_id_ = 0;
  std::uint64_t cross_posts_ = 0;
};

}  // namespace nectar::sim
