#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/heap.hpp"
#include "host/node.hpp"
#include "hw/crc.hpp"
#include "hw/memory.hpp"
#include "net/system.hpp"
#include "proto/checksum.hpp"
#include "proto/headers.hpp"
#include "session/wire.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace perfbench {
namespace {

using namespace nectar;
using Clock = std::chrono::steady_clock;

// Each probe times kBatches batches of `ops` operations and reports the
// median batch, so one descheduled batch does not move the figure.
constexpr int kBatches = 5;

// Results feed this sink so the compiler cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

template <typename Body>
double median_ns_per_op(std::size_t ops, Body body) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    auto t0 = Clock::now();
    body(ops);
    std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    per_op.push_back(dt.count() / static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return v;
}

// Hold model state: every event fired schedules one successor a
// pseudo-random 1..1024 ns later until the budget is spent.
struct Hold {
  sim::Engine* engine = nullptr;
  std::uint64_t rng = 88172645463325252ull;
  std::size_t budget = 0;

  sim::SimTime next_delay() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<sim::SimTime>(rng % 1024) + 1;
  }
  void fire() {
    if (budget == 0) return;
    --budget;
    engine->schedule_in(next_delay(), [this] { fire(); });
  }
};

}  // namespace

double engine_ns_per_event(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  const std::size_t ops = 400'000;
  return median_ns_per_op(ops, [depth](std::size_t n) {
    sim::Engine engine;
    Hold hold;
    hold.engine = &engine;
    hold.budget = n > depth ? n - depth : 0;
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule_at(hold.next_delay(), [&hold] { hold.fire(); });
    }
    engine.run();
    g_sink = g_sink + engine.events_processed();
  });
}

double fiber_ns_per_switch() {
  bool stop = false;
  sim::Fiber fiber(
      [&stop] {
        while (!stop) sim::Fiber::suspend();
      },
      "perfbench-probe", 64 * 1024);
  double ns = median_ns_per_op(200'000, [&fiber](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) fiber.resume();
  });
  stop = true;
  fiber.resume();
  return ns;
}

double crc_ns_per_frame(std::size_t bytes) {
  std::vector<std::uint8_t> buf = pattern(std::max<std::size_t>(bytes, 1));
  const std::size_t ops = std::max<std::size_t>(2'000'000 / buf.size(), 64);
  return median_ns_per_op(ops, [&buf](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      buf[0] = static_cast<std::uint8_t>(i);
      acc += hw::Crc32::compute(buf);
    }
    g_sink = g_sink + acc;
  });
}

double cksum_ns_per_segment(std::size_t bytes) {
  std::vector<std::uint8_t> buf = pattern(std::max<std::size_t>(bytes, 1));
  const std::size_t ops = std::max<std::size_t>(8'000'000 / buf.size(), 64);
  return median_ns_per_op(ops, [&buf](std::size_t n) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      buf[0] = static_cast<std::uint8_t>(i);
      acc += proto::InternetChecksum::compute(buf);
    }
    g_sink = g_sink + acc;
  });
}

double heap_ns_per_alloc(std::size_t bytes) {
  hw::CabMemory memory;
  core::BufferHeap heap(memory);
  constexpr std::size_t kLive = 32;
  std::vector<hw::CabAddr> live(kLive, 0);
  const std::size_t len = std::max<std::size_t>(bytes, 8);
  double ns = median_ns_per_op(200'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hw::CabAddr& slot = live[i % kLive];
      if (slot != 0) heap.free(slot);
      // Vary the size a little so the free list sees splits and merges.
      slot = heap.alloc(len + 8 * (i % 7));
    }
  });
  for (hw::CabAddr a : live) {
    if (a != 0) heap.free(a);
  }
  return ns;
}

double wire_ns_per_frame() {
  std::uint8_t buf[session::FrameHeader::kSize];
  return median_ns_per_op(2'000'000, [&buf](std::size_t n) {
    std::uint64_t acc = 0;
    session::FrameHeader h;
    for (std::size_t i = 0; i < n; ++i) {
      h.channel = static_cast<std::uint16_t>(i);
      h.seq = static_cast<std::uint16_t>(i >> 3);
      h.length = 64;
      h.serialize(buf);
      acc += session::FrameHeader::parse(buf).seq;
    }
    g_sink = g_sink + acc;
  });
}

// --- Table 1 anchors -----------------------------------------------------------
// The same set-up as bench/bench_table1_latency: 64 B messages, 15 rounds,
// median round trip on the simulated clock.

namespace {

constexpr int kRounds = 15;
constexpr std::size_t kMsgSize = 64;

double median_us(std::vector<sim::SimTime> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return sim::to_usec(v[v.size() / 2]);
}

double cab_datagram_rtt() {
  net::NectarSystem sys(2);
  core::Mailbox& svc = sys.runtime(1).create_mailbox("echo");
  core::Mailbox& reply = sys.runtime(0).create_mailbox("reply");
  sys.runtime(1).fork_system("echo", [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::Message m = svc.begin_get();
      auto info = sys.stack(1).datagram.last_sender(svc);
      sys.stack(1).datagram.send({info.src_node, info.src_mailbox}, m);
    }
  });
  std::vector<sim::SimTime> rtts;
  sys.runtime(0).fork_system("client", [&] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    std::vector<std::uint8_t> data = pattern(kMsgSize);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      core::Message m = scratch.begin_put(static_cast<std::uint32_t>(data.size()));
      sys.runtime(0).board().memory().write(m.data, data);
      sys.stack(0).datagram.send(svc.address(), m, true, reply.address().index);
      core::Message r = reply.begin_get();
      rtts.push_back(sys.engine().now() - t0);
      reply.end_get(r);
    }
  });
  sys.engine().run();
  return median_us(rtts);
}

double host_datagram_rtt() {
  net::NectarSystem sys(2, /*with_vme=*/true);
  host::HostNode h0(sys, 0);
  host::HostNode h1(sys, 1);
  core::MailboxAddr svc_addr{};
  bool ready = false;
  h1.host.run_process("echo", [&] {
    host::HostNectarPort port(h1.nin, h1.sockets, "echo");
    svc_addr = port.address();
    ready = true;
    std::vector<std::uint8_t> buf(kMsgSize + 16);
    for (int i = 0; i < kRounds; ++i) {
      std::size_t n = port.recv(buf);
      core::MailboxAddr back{static_cast<std::int32_t>(proto::get32n(buf, 0)),
                             proto::get32n(buf, 4)};
      port.send_datagram(back, std::span<const std::uint8_t>(buf).first(n));
    }
  });
  sys.net().run_until(sim::msec(1));
  if (!ready) return 0;
  std::vector<sim::SimTime> rtts;
  h0.host.run_process("client", [&] {
    host::HostNectarPort port(h0.nin, h0.sockets, "client");
    std::vector<std::uint8_t> msg = pattern(kMsgSize);
    proto::put32n(msg, 0, static_cast<std::uint32_t>(port.address().node));
    proto::put32n(msg, 4, port.address().index);
    std::vector<std::uint8_t> buf(kMsgSize + 16);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      port.send_datagram(svc_addr, msg);
      port.recv(buf);
      rtts.push_back(sys.engine().now() - t0);
    }
  });
  sys.net().run_until(sim::sec(5));
  return median_us(rtts);
}

}  // namespace

Table1 table1_datagram_rtt() {
  Table1 t;
  t.host_host_us = host_datagram_rtt();
  t.cab_cab_us = cab_datagram_rtt();
  return t;
}

}  // namespace perfbench
