#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

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
/// Each stack is an anonymous mapping reserved at construction and
/// committed by the kernel one page at a time as the fiber first touches
/// it, so a fiber costs resident memory for the depth it actually reached,
/// not for `stack_size`. A PROT_NONE guard page sits below the stack: an
/// overflow faults instead of overwriting a neighbour.
///
/// Under ThreadSanitizer and AddressSanitizer the stack switches are
/// annotated with the sanitizers' fiber APIs, so race detection and stack
/// poisoning follow each fiber instead of false-alarming on every switch.
class Fiber {
 public:
  /// Create a fiber that will run `body` when first resumed. `stack_size`
  /// is rounded up to whole pages. Throws std::system_error naming the
  /// fiber if its stack cannot be mapped.
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

  /// Owner of one stack mapping: a guard page, then `size()` usable bytes.
  class Stack {
   public:
    Stack(std::size_t size, const std::string& owner);
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    unsigned char* base() const { return base_; }  // lowest usable byte
    std::size_t size() const { return size_; }

   private:
    std::size_t size_;
    unsigned char* base_ = nullptr;  // the guard page is the one just below
  };

  static void trampoline();
  /// Prepare `context_` so that the first switch into it enters trampoline().
  void make_context();
  /// Save the running context into `from`, then continue `to`.
  static void switch_context(Context& from, Context& to);

  std::function<void()> body_;
  std::string name_;
  Stack stack_;
  Context context_{};         // this fiber, while it is switched out
  Context return_context_{};  // the resumer, while this fiber runs
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;       // TSan fiber handle (TSan builds only)
  void* asan_fake_stack_ = nullptr;  // ASan fake-stack save slot (ASan builds only)
};

}  // namespace nectar::sim
