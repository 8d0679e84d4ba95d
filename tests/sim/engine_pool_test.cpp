#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace nectar::sim {
namespace {

/// Deterministic LCG so churn patterns are identical run to run.
std::uint32_t next_rand(std::uint32_t& s) {
  s = s * 1664525u + 1013904223u;
  return s;
}

TEST(EnginePool, CancelChurnStressFiresExactlySurvivors) {
  Engine e;
  std::uint32_t seed = 12345;
  std::vector<int> fired;
  std::vector<int> expected;
  int label = 0;
  // Many rounds of: schedule a batch, cancel a pseudo-random half of it.
  // Everything that survives must fire, in (time, insertion) order, and
  // nothing that was cancelled may fire.
  for (int round = 0; round < 50; ++round) {
    std::vector<Engine::EventId> ids;
    std::vector<int> labels;
    for (int i = 0; i < 40; ++i) {
      SimTime t = e.now() + 1 + (next_rand(seed) % 100);
      int l = label++;
      ids.push_back(e.schedule_at(t, [&fired, l] { fired.push_back(l); }));
      labels.push_back(l);
    }
    std::vector<std::pair<SimTime, int>> survivors;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (next_rand(seed) % 2 == 0) {
        EXPECT_TRUE(e.cancel(ids[i]));
        EXPECT_FALSE(e.cancel(ids[i]));  // second cancel is a stale handle
      } else {
        expected.push_back(labels[i]);
      }
    }
    e.run();
  }
  // Survivors fire; order within a round follows (time, insertion). Sorting
  // per round is implicitly checked by comparing sets per round boundary:
  // every survivor fired exactly once.
  std::vector<int> fired_sorted = fired;
  std::sort(fired_sorted.begin(), fired_sorted.end());
  std::vector<int> expected_sorted = expected;
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(fired_sorted, expected_sorted);
  EXPECT_TRUE(e.empty());
}

TEST(EnginePool, PopOrderMatchesReferenceSortOnTimeThenSeq) {
  // Random schedules (a narrow time range, so many ties), cancels and single
  // steps; every pop must be the smallest (time, insertion order) key of a
  // sorted reference model.
  Engine e;
  Random rng(2024);
  using Key = std::pair<SimTime, std::uint64_t>;
  std::map<Key, int> reference;
  std::vector<std::pair<Engine::EventId, Key>> handles;  // may include fired ones
  std::uint64_t seq = 0;
  int label = 0;
  int fired = -1;
  auto step_and_check = [&] {
    auto first = reference.begin();
    ASSERT_TRUE(e.step());
    EXPECT_EQ(fired, first->second);
    EXPECT_EQ(e.now(), first->first.first);
    reference.erase(first);
  };
  for (int op = 0; op < 20000; ++op) {
    std::uint64_t r = rng.next_below(10);
    if (r < 5) {
      SimTime t = e.now() + static_cast<SimTime>(rng.next_below(64));
      int l = label++;
      Key key{t, seq++};
      handles.emplace_back(e.schedule_at(t, [&fired, l] { fired = l; }), key);
      reference.emplace(key, l);
    } else if (r < 7) {
      if (handles.empty()) continue;
      std::size_t i = static_cast<std::size_t>(rng.next_below(handles.size()));
      bool pending = reference.erase(handles[i].second) > 0;
      EXPECT_EQ(e.cancel(handles[i].first), pending);
      handles[i] = handles.back();
      handles.pop_back();
    } else if (reference.empty()) {
      EXPECT_FALSE(e.step());
    } else {
      step_and_check();
    }
  }
  while (!reference.empty()) step_and_check();
  EXPECT_FALSE(e.step());
  EXPECT_TRUE(e.empty());
}

TEST(EnginePool, SlabBoundedByPeakConcurrencyAndRecycled) {
  Engine e;
  // 10 waves of 100 concurrent events: the slab should grow to roughly the
  // peak concurrency (100), not the total event count (1000).
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 100; ++i) {
      e.schedule_at(e.now() + 1 + i, [] {});
    }
    e.run();
  }
  EXPECT_LE(e.pool_slots(), 128u);
  EXPECT_GE(e.pool_reuses(), 800u);  // later waves ran entirely on recycled slots
  EXPECT_EQ(e.pool_free(), e.pool_slots());  // all slots back on the free list
}

TEST(EnginePool, RecycledSlotRejectsStaleHandle) {
  Engine e;
  int fired = 0;
  Engine::EventId a = e.schedule_at(10, [&] { ++fired; });
  ASSERT_TRUE(e.cancel(a));
  // B reuses A's slot (single free slot); A's handle must not cancel B.
  Engine::EventId b = e.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 1);
  // After firing, B's handle is stale too.
  EXPECT_FALSE(e.cancel(b));
}

TEST(EnginePool, ChurnIsInvisibleToSurvivingEvents) {
  // The same payload scenario, with and without heavy interleaved
  // schedule+cancel churn, must fire the same events at the same times.
  auto run_scenario = [](bool churn) {
    Engine e;
    std::vector<std::pair<SimTime, int>> fired;
    for (int i = 0; i < 20; ++i) {
      e.schedule_at(10 * (i + 1), [&fired, i, &e] { fired.emplace_back(e.now(), i); });
      if (churn) {
        std::vector<Engine::EventId> junk;
        for (int j = 0; j < 7; ++j) junk.push_back(e.schedule_at(1000000 + j, [] {}));
        for (Engine::EventId id : junk) e.cancel(id);
      }
    }
    e.run();
    return std::make_pair(fired, e.now());
  };
  auto plain = run_scenario(false);
  auto churned = run_scenario(true);
  EXPECT_EQ(plain.first, churned.first);
  EXPECT_EQ(plain.second, churned.second);
}

TEST(EnginePool, StatsDistinguishInlineFromHeapActions) {
  Engine e;
  std::uint64_t before = e.heap_actions();
  int sink = 0;
  e.schedule_at(1, [&sink] { ++sink; });  // one pointer capture: stays inline
  EXPECT_EQ(e.heap_actions(), before);
  std::array<char, 128> big{};  // exceeds the inline capture budget
  e.schedule_at(2, [big, &sink] { sink += big[0]; });
  EXPECT_EQ(e.heap_actions(), before + 1);
  e.run();
  EXPECT_EQ(sink, 1);
}

}  // namespace
}  // namespace nectar::sim
