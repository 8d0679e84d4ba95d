#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <system_error>

// The sanitizers cannot follow a stack switch on their own: without
// annotations every fiber switch looks like one thread magically jumping
// stacks. TSan's fiber API (__tsan_create_fiber / __tsan_switch_to_fiber)
// tells it each Fiber is a separate logical execution context, so shadow
// state from one fiber's frames does not bleed into the next. ASan's
// (__sanitizer_start/finish_switch_fiber) tells it which stack is live, so
// stack poisoning, fake stacks and no-return unwinding use the right bounds.
#if defined(__SANITIZE_THREAD__)
#define NECTAR_TSAN_FIBERS 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define NECTAR_ASAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NECTAR_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer)
#define NECTAR_ASAN_FIBERS 1
#endif
#endif

#ifdef NECTAR_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#ifdef NECTAR_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
// nectar_fiber_switch(void** save_sp, void* load_sp): push the SysV
// callee-saved registers (rbp, rbx, r12-r15) and the two floating-point
// control registers that are callee-saved too (MXCSR, x87 control word) on
// the running stack, store its stack pointer to *save_sp, load load_sp and
// pop the same frame off it. Caller-saved state is already dead at the call,
// and the signal mask is never touched, so there is no system call — that
// is the whole gain over swapcontext.
extern "C" void nectar_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .text
  .p2align 4
  .globl nectar_fiber_switch
  .hidden nectar_fiber_switch
  .type nectar_fiber_switch, @function
nectar_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  fnstcw (%rsp)
  stmxcsr 8(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size nectar_fiber_switch, .-nectar_fiber_switch
)");
#endif

namespace nectar::sim {

namespace {
/// The fiber currently executing on this OS thread (nullptr = main context).
thread_local Fiber* g_current = nullptr;
/// Handshake slot: the fiber whose trampoline is about to start.
thread_local Fiber* g_starting = nullptr;
#ifdef NECTAR_TSAN_FIBERS
/// TSan handle of the main context that last resumed a fiber on this
/// thread; suspend/finish switch TSan back to it before switching stacks.
thread_local void* g_tsan_return = nullptr;
#endif
#ifdef NECTAR_ASAN_FIBERS
/// Bounds of the main context's stack on this thread, learned when a fiber
/// is entered and handed back to ASan when it switches out again.
thread_local const void* g_asan_main_bottom = nullptr;
thread_local std::size_t g_asan_main_size = 0;
#endif

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

Fiber::Stack::Stack(std::size_t size, const std::string& owner)
    : size_((size + page_size() - 1) / page_size() * page_size()) {
  // MAP_NORESERVE: reserve address space only; the kernel commits (and
  // zero-fills) a page when the fiber first touches it.
  void* map = mmap(nullptr, page_size() + size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED || mprotect(map, page_size(), PROT_NONE) != 0) {
    int err = errno;
    if (map != MAP_FAILED) munmap(map, page_size() + size_);
    throw std::system_error(err, std::generic_category(),
                            "fiber '" + owner + "': cannot map a " + std::to_string(size_) +
                                "-byte stack");
  }
  base_ = static_cast<unsigned char*>(map) + page_size();
}

Fiber::Stack::~Stack() {
#ifdef NECTAR_ASAN_FIBERS
  // Frames abandoned on a parked stack leave poisoned shadow behind; clear
  // it so the next mapping at this address starts clean.
  ASAN_UNPOISON_MEMORY_REGION(base_, size_);
#endif
  munmap(base_ - page_size(), page_size() + size_);
}

Fiber::Fiber(std::function<void()> body, std::string name, std::size_t stack_size)
    : body_(std::move(body)), name_(std::move(name)), stack_(stack_size, name_) {}

Fiber::~Fiber() {
  // Destroying a suspended-but-unfinished fiber abandons its stack frame;
  // that is fine for simulation teardown (no RAII cleanup runs on it), and
  // runtime code only destroys fibers it knows are finished or parked.
#ifdef NECTAR_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

#if defined(__x86_64__)

void Fiber::make_context() {
  // A frame shaped like the one nectar_fiber_switch pushes, so the first
  // switch in pops it and `ret`s into trampoline() with the stack aligned
  // as at any call. The fiber starts with the resumer's floating-point
  // control state; the zero above the entry address is trampoline()'s own
  // return address, which it never uses.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  auto top = reinterpret_cast<std::uintptr_t>(stack_.base() + stack_.size()) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 10;
  frame[0] = fpu_cw;
  frame[1] = mxcsr;
  for (int i = 2; i < 8; ++i) frame[i] = 0;  // r15 r14 r13 r12 rbx rbp
  frame[8] = reinterpret_cast<std::uint64_t>(&Fiber::trampoline);
  frame[9] = 0;
  context_ = frame;
}

void Fiber::switch_context(Context& from, Context& to) { nectar_fiber_switch(&from, to); }

#else

void Fiber::make_context() {
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_.base();
  context_.uc_stack.ss_size = stack_.size();
  context_.uc_link = nullptr;  // trampoline() never returns
  makecontext(&context_, &Fiber::trampoline, 0);
}

void Fiber::switch_context(Context& from, Context& to) { swapcontext(&from, &to); }

#endif

void Fiber::trampoline() {
  Fiber* self = g_starting;
  g_starting = nullptr;
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &g_asan_main_bottom, &g_asan_main_size);
#endif
  try {
    self->body_();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: uncaught exception in fiber '%s': %s\n",
                 self->name_.c_str(), e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr, "fatal: uncaught exception in fiber '%s'\n", self->name_.c_str());
    std::abort();
  }
  self->finished_ = true;
#ifdef NECTAR_TSAN_FIBERS
  __tsan_switch_to_fiber(g_tsan_return, 0);
#endif
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, g_asan_main_bottom, g_asan_main_size);  // stack dies
#endif
  // Back to the resumer for good: nothing ever switches into this stack again.
  switch_context(self->context_, self->return_context_);
  std::abort();
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from the main context");
  assert(!finished_ && "cannot resume a finished fiber");
  g_current = this;
  if (!started_) {
    started_ = true;
    g_starting = this;
    make_context();
  }
#ifdef NECTAR_TSAN_FIBERS
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  g_tsan_return = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef NECTAR_ASAN_FIBERS
  void* main_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&main_fake_stack, stack_.base(), stack_.size());
#endif
  switch_context(return_context_, context_);
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(main_fake_stack, nullptr, nullptr);
#endif
  g_current = nullptr;
}

void Fiber::suspend() {
  Fiber* self = g_current;
  assert(self != nullptr && "suspend() called outside any fiber");
  g_current = nullptr;
#ifdef NECTAR_TSAN_FIBERS
  __tsan_switch_to_fiber(g_tsan_return, 0);
#endif
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_, g_asan_main_bottom, g_asan_main_size);
#endif
  switch_context(self->context_, self->return_context_);
  // Resumed again.
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_, &g_asan_main_bottom, &g_asan_main_size);
#endif
  g_current = self;
}

Fiber* Fiber::current() { return g_current; }

}  // namespace nectar::sim
