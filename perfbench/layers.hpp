#pragma once

// Pieces of the benchmark binary that do not run a scenario: the timed
// unit-cost probes into single modules, and the model-accuracy check against
// the paper's Table 1.

#include <cstddef>

namespace perfbench {

/// Host ns per event of sim::Engine::schedule_at + run, with `depth` events
/// pending (a hold model: every fired event schedules one successor).
double engine_ns_per_event(std::size_t depth);
/// Host ns per sim::Fiber::resume into a fiber that immediately suspends.
double fiber_ns_per_switch();
/// Host ns per hw::Crc32::compute over `bytes` bytes.
double crc_ns_per_frame(std::size_t bytes);
/// Host ns per proto::InternetChecksum::compute over `bytes` bytes.
double cksum_ns_per_segment(std::size_t bytes);
/// Host ns per core::BufferHeap alloc + free of `bytes` bytes, 32 blocks live.
double heap_ns_per_alloc(std::size_t bytes);
/// Host ns per session::FrameHeader serialize + parse.
double wire_ns_per_frame();

/// Simulated datagram round trips (us) of the paper's Table 1 set-up: 64 B,
/// median of 15 rounds, between two host processes and between two CAB
/// threads. The paper reports 325 us and 179 us.
struct Table1 {
  double host_host_us = 0;
  double cab_cab_us = 0;
};
Table1 table1_datagram_rtt();

}  // namespace perfbench
