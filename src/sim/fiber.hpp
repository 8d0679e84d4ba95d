#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace nectar::sim {

/// Cooperative green thread with its own stack.
///
/// Fibers are the execution substrate for simulated CAB threads, interrupt
/// contexts, and host processes. Each fiber belongs to exactly one OS
/// thread — under a sharded simulation that is its shard's worker thread,
/// which owns all of the shard's fibers via thread-local bookkeeping: a
/// fiber runs until it calls `suspend()` (directly or via a blocking
/// runtime primitive), at which point control returns to whoever called
/// `resume()` — always the event engine's main context on the same thread.
///
/// On x86-64 a switch is a hand-written stack swap (sim/fiber.cpp) that
/// saves only the SysV callee-saved registers, MXCSR and the x87 control
/// word, and makes no system call. Other hosts fall back to ucontext.
///
/// Under ThreadSanitizer and AddressSanitizer the stack switches are
/// annotated with the sanitizers' fiber APIs, so race detection and stack
/// poisoning follow each fiber instead of false-alarming on every switch.
class Fiber {
 public:
  /// Create a fiber that will run `body` when first resumed.
  explicit Fiber(std::function<void()> body, std::string name = "fiber",
                 std::size_t stack_size = 256 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the main context into this fiber. Must not be called from
  /// inside another fiber. Returns when the fiber suspends or finishes.
  void resume();

  /// Called from inside a fiber: switch back to the main context.
  static void suspend();

  /// The fiber currently executing, or nullptr when on the main context.
  static Fiber* current();

  bool finished() const { return finished_; }
  bool started() const { return started_; }
  const std::string& name() const { return name_; }

 private:
#if defined(__x86_64__)
  using Context = void*;  // saved stack pointer; the registers sit on that stack
#else
  using Context = ucontext_t;
#endif

  static void trampoline();
  /// Prepare `context_` so that the first switch into it enters trampoline().
  void make_context();
  /// Save the running context into `from`, then continue `to`.
  static void switch_context(Context& from, Context& to);

  std::function<void()> body_;
  std::string name_;
  std::vector<unsigned char> stack_;
  Context context_{};         // this fiber, while it is switched out
  Context return_context_{};  // the resumer, while this fiber runs
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;       // TSan fiber handle (TSan builds only)
  void* asan_fake_stack_ = nullptr;  // ASan fake-stack save slot (ASan builds only)
};

}  // namespace nectar::sim
