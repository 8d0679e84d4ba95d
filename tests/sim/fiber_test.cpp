#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cfenv>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace nectar::sim {
namespace {

/// Both rounding-mode registers hold `mode`: fesetround() sets the x87
/// control word and MXCSR, but fegetround() reads only the x87 one, so on
/// x86-64 MXCSR (which SSE arithmetic uses) is checked directly too.
::testing::AssertionResult RoundingIs(int mode) {
  if (std::fegetround() != mode) {
    return ::testing::AssertionFailure() << "fegetround() " << std::fegetround() << " != " << mode;
  }
#if defined(__x86_64__)
  // The two-bit rounding field sits at bits 10-11 of the x87 control word
  // (the FE_* values) and at bits 13-14 of MXCSR.
  unsigned sse = _mm_getcsr() & _MM_ROUND_MASK;
  if (sse != static_cast<unsigned>(mode) << 3) {
    return ::testing::AssertionFailure() << "MXCSR rounding " << sse << " for mode " << mode;
  }
#endif
  return ::testing::AssertionSuccess();
}

void suspend_then_throw(int i) {
  Fiber::suspend();
  throw std::runtime_error("boom" + std::to_string(i));
}

/// Recurse `depth` frames, suspending every `yield_every` levels; returns
/// 1 + 2 + ... + depth, computed from locals that must survive each suspend.
int recurse_and_yield(int depth, int yield_every) {
  volatile unsigned char frame[128];  // a real stack footprint per level
  for (auto& byte : frame) byte = static_cast<unsigned char>(depth);
  if (depth == 0) return 0;
  if (depth % yield_every == 0) Fiber::suspend();
  int below = recurse_and_yield(depth - 1, yield_every);
  return below + frame[depth % 128];
}

/// Recurse `depth` levels with a written 1 KB frame at each; returns 0.
int recurse_kb_frames(int depth) {
  volatile unsigned char frame[1024];
  for (auto& byte : frame) byte = 0;
  if (depth == 0) return frame[0];
  return recurse_kb_frames(depth - 1) + frame[depth % 1024];  // not a tail call
}

/// Resident set of this process in bytes, from /proc/self/statm.
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(Fiber, RunsBodyOnResume) {
  bool ran = false;
  Fiber f([&] { ran = true; });
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, SuspendReturnsControlToResumer) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::suspend();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* inside = nullptr;
  Fiber f([&] { inside = Fiber::current(); });
  f.resume();
  EXPECT_EQ(inside, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManySuspendResumeCycles) {
  int counter = 0;
  Fiber f([&] {
    for (int i = 0; i < 1000; ++i) {
      ++counter;
      Fiber::suspend();
    }
  });
  for (int i = 1; i <= 1000; ++i) {
    f.resume();
    EXPECT_EQ(counter, i);
  }
  f.resume();  // let the loop exit
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, TwoFibersInterleave) {
  std::vector<std::string> log;
  Fiber a([&] {
    log.push_back("a1");
    Fiber::suspend();
    log.push_back("a2");
  });
  Fiber b([&] {
    log.push_back("b1");
    Fiber::suspend();
    log.push_back("b2");
  });
  a.resume();
  b.resume();
  a.resume();
  b.resume();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(Fiber, LocalStateSurvivesSuspension) {
  int out = 0;
  Fiber f([&] {
    int local = 10;
    Fiber::suspend();
    local += 32;
    out = local;
  });
  f.resume();
  f.resume();
  EXPECT_EQ(out, 42);
}

TEST(Fiber, NameIsPreserved) {
  Fiber f([] {}, "protocol-input");
  EXPECT_EQ(f.name(), "protocol-input");
}

TEST(Fiber, ExceptionsThrowAndCatchInsideABodyAcrossSuspends) {
  std::vector<std::string> caught;
  Fiber f([&] {
    for (int i = 0; i < 3; ++i) {
      try {
        Fiber::suspend();
        suspend_then_throw(i);
      } catch (const std::runtime_error& e) {
        caught.push_back(e.what());
      }
    }
  });
  int resumes = 0;
  while (!f.finished()) {
    f.resume();
    ++resumes;
    // The main context throws and catches between resumes too.
    try {
      throw std::logic_error("main");
    } catch (const std::logic_error&) {
    }
  }
  EXPECT_EQ(caught, (std::vector<std::string>{"boom0", "boom1", "boom2"}));
  EXPECT_EQ(resumes, 7);
}

TEST(Fiber, RoundingModeStaysWithItsContext) {
  ASSERT_TRUE(RoundingIs(FE_TONEAREST));
  ::testing::AssertionResult at_start = ::testing::AssertionFailure();
  ::testing::AssertionResult after_suspend = ::testing::AssertionFailure();
  Fiber f([&] {
    at_start = RoundingIs(FE_TONEAREST);  // a new fiber starts with its resumer's mode
    std::fesetround(FE_UPWARD);
    Fiber::suspend();
    after_suspend = RoundingIs(FE_UPWARD);  // the main context's change did not leak in
    std::fesetround(FE_TOWARDZERO);
  });
  f.resume();
  EXPECT_TRUE(at_start);
  EXPECT_TRUE(RoundingIs(FE_TONEAREST));  // the fiber's mode did not leak out
  std::fesetround(FE_DOWNWARD);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_TRUE(after_suspend);
  EXPECT_TRUE(RoundingIs(FE_DOWNWARD));  // nor on finishing
  std::fesetround(FE_TONEAREST);
}

TEST(Fiber, ThousandInterleavedFibersWithDeepRecursion) {
  constexpr int kFibers = 1000;
  constexpr int kDepth = 100;
  std::vector<int> results(kFibers, -1);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&results, i] { results[static_cast<std::size_t>(i)] = recurse_and_yield(kDepth, 1 + i % 7); },
        "deep", 64 * 1024));
  }
  // Round-robin until all finish, so every stack is suspended mid-recursion
  // while the others run.
  for (bool any = true; any;) {
    any = false;
    for (auto& f : fibers) {
      if (f->finished()) continue;
      f->resume();
      any = true;
    }
  }
  for (int r : results) EXPECT_EQ(r, kDepth * (kDepth + 1) / 2);
}

TEST(Fiber, FinishingReturnsControlToTheResumer) {
  // Values live across resume() sit in callee-saved registers, which the
  // final switch out of a finished fiber must restore like any suspend.
  volatile std::uint64_t seed = 7;
  std::uint64_t a = seed * 3, b = seed * 5, c = seed * 7, d = seed * 11, e = seed * 13;
  std::vector<int> order;
  Fiber quick([&] { order.push_back(1); });
  Fiber slow([&] {
    order.push_back(2);
    Fiber::suspend();
    order.push_back(4);
  });
  quick.resume();
  slow.resume();
  order.push_back(3);
  slow.resume();
  order.push_back(5);
  EXPECT_TRUE(quick.finished());
  EXPECT_TRUE(slow.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(a + 2 * b + 3 * c + 4 * d + 5 * e, 7u * (3 + 10 + 21 + 44 + 65));
}

TEST(Fiber, DestroyUnstartedAndUnfinishedFibersIsSafe) {
  {
    Fiber f([] {});
  }  // never started
  {
    Fiber f([] { Fiber::suspend(); });
    f.resume();
  }  // suspended, destroyed without finishing
  SUCCEED();
}

TEST(Fiber, StackOverflowHitsGuardPage) {
  // 128 KB of frames on a 64 KB stack: the first write below the stack
  // lands on the guard page and faults at once, instead of silently
  // overwriting whatever is mapped beneath.
  auto overflow = [] {
    Fiber f([] { recurse_kb_frames(128); }, "overflow", 64 * 1024);
    f.resume();
  };
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_DEATH(overflow(), "stack-overflow");  // the sanitizer's SEGV report
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(Fiber, StacksCommitOnlyTouchedPages) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer commits shadow and state of its own per fiber "
                  "(about 800 KB each), which this bound on stack pages does not model";
#endif
  constexpr int kFibers = 2000;
  constexpr std::size_t kStack = 256 * 1024;  // 500 MB reserved in all
  int ran = 0;
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  const long before = resident_bytes();
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&ran] {
          ++ran;
          Fiber::suspend();
        },
        "idle", kStack));
  }
  for (auto& f : fibers) f->resume();  // every stack now holds a parked frame
  const long grown_mb = (resident_bytes() - before) >> 20;
  EXPECT_EQ(ran, kFibers);
  EXPECT_LT(grown_mb, 64) << "resident growth for " << kFibers << " parked fibers";
}

}  // namespace
}  // namespace nectar::sim
