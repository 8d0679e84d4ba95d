#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sim/parallel.hpp"

namespace nectar::sim {

// Inline so both fold into schedule_at() and step(): an out-of-line call per
// heap operation costs more than the 4-ary heap saves over a binary one.
inline void Engine::heap_push(QueueEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!(e < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

inline void Engine::heap_pop() {
  QueueEntry last = heap_.back();
  heap_.pop_back();
  std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

SimTime Engine::next_event_time() {
  while (!heap_.empty()) {
    const QueueEntry& e = heap_.front();
    if (live_slot(e.id) != nullptr) return e.time;
    heap_pop();  // stale entry for a cancelled/recycled slot
  }
  return -1;
}

void Engine::send_cross(Engine& dst, SimTime t, Action fn, std::uint64_t key, std::uint64_t seq) {
  if (&dst == this) {
    schedule_at(t, std::move(fn));
    return;
  }
  if (coordinator_ == nullptr || coordinator_ != dst.coordinator_)
    throw std::logic_error("Engine::send_cross: engines do not share a ParallelEngine");
  ++cross_posts_;
  coordinator_->post(shard_id_, dst.shard_id_, t, key, seq, std::move(fn));
}

Engine::Slot* Engine::live_slot(EventId id) {
  std::size_t index = static_cast<std::size_t>(id >> 32);
  if (index == 0 || index > slots_.size()) return nullptr;
  Slot& s = slots_[index - 1];
  if (!s.armed || s.gen != static_cast<std::uint32_t>(id)) return nullptr;
  return &s;
}

void Engine::release_slot(std::size_t slot_index) {
  Slot& s = slots_[slot_index];
  s.armed = false;
  ++s.gen;  // invalidates the fired/cancelled handle and any queue entry
  free_.push_back(static_cast<std::uint32_t>(slot_index));
  --live_;
}

Engine::EventId Engine::schedule_at(SimTime t, Action fn) {
  if (t < now_) throw std::logic_error("Engine::schedule_at: time in the past");
  if (fn.heap_allocated()) ++heap_actions_;
  std::size_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
    ++pool_reuses_;
  } else {
    index = slots_.size();
    slots_.emplace_back();
  }
  Slot& s = slots_[index];
  s.armed = true;
  s.action = std::move(fn);
  EventId id = make_id(index, s.gen);
  heap_push(QueueEntry{t, next_seq_++, id});
  ++live_;
  return id;
}

bool Engine::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  s->action.reset();
  release_slot(static_cast<std::size_t>(s - slots_.data()));
  return true;
}

bool Engine::step() {
  while (!heap_.empty()) {
    QueueEntry e = heap_.front();
    heap_pop();
    Slot* s = live_slot(e.id);
    if (s == nullptr) continue;  // cancelled
    // Move the action out before running it: the callback may schedule new
    // events, which can recycle this slot or grow the slab.
    Action fn = std::move(s->action);
    release_slot(static_cast<std::size_t>(s - slots_.data()));
    assert(e.time >= now_);
    now_ = e.time;
    ++processed_;
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

bool Engine::run_until(SimTime t) {
  while (!heap_.empty()) {
    // Skip over cancelled entries without advancing time.
    const QueueEntry& e = heap_.front();
    if (live_slot(e.id) == nullptr) {
      heap_pop();
      continue;
    }
    if (e.time > t) {
      now_ = t;
      return true;
    }
    step();
  }
  now_ = std::max(now_, t);
  return false;
}

bool Engine::run_while(const std::function<bool()>& pending) {
  while (pending()) {
    if (!step()) return false;
  }
  return true;
}

void Engine::register_metrics(obs::Registration& reg, int node) const {
  reg.probe(node, "sim.engine", "events_processed",
            [this] { return static_cast<std::int64_t>(events_processed()); });
  reg.probe(node, "sim.engine", "pending_events",
            [this] { return static_cast<std::int64_t>(pending_events()); });
  reg.probe(node, "sim.engine", "pool_slots",
            [this] { return static_cast<std::int64_t>(pool_slots()); });
  reg.probe(node, "sim.engine", "pool_free",
            [this] { return static_cast<std::int64_t>(pool_free()); });
  reg.probe(node, "sim.engine", "pool_reuses",
            [this] { return static_cast<std::int64_t>(pool_reuses()); });
  reg.probe(node, "sim.engine", "heap_actions",
            [this] { return static_cast<std::int64_t>(heap_actions()); });
}

}  // namespace nectar::sim
