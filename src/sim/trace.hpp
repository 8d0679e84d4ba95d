#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace nectar::obs {
class Tracer;
}

namespace nectar::sim {

class Engine;

/// Lightweight span/event recorder used to reproduce the paper's Figure 6
/// latency breakdown: components mark named points and spans on the simulated
/// clock; the benchmark harness turns them into a per-stage budget.
///
/// Edge-case contract (explicit, covered by tests/sim/trace_test.cpp):
///  - end() on a label with no open span is an error and throws
///    std::logic_error — a silent no-op would corrupt Figure-6 attributions.
///  - Spans with the same label MAY nest: begin/end pair LIFO (an end()
///    closes the most recently begun open span with that label), so
///    re-entrant stages account their full duration at every depth.
///
/// The recorder can additionally forward everything it sees into an
/// obs::Tracer (the structured per-Engine event sink), so legacy mark()
/// call sites show up as instants on a Chrome/Perfetto timeline without
/// being re-instrumented.
class TraceRecorder {
 public:
  explicit TraceRecorder(Engine& engine) : engine_(engine) {}

  struct Mark {
    std::string label;
    SimTime time;
  };
  struct Span {
    std::string label;
    SimTime start;
    SimTime end;
    SimTime duration() const { return end - start; }
  };

  /// Record an instantaneous named event. A disabled recorder returns
  /// before copying the label.
  void mark(std::string_view label);

  /// Open a named span. Same-label spans nest (LIFO).
  void begin(std::string_view label);
  /// Close the most recently begun open span with this label. Throws
  /// std::logic_error if no span with this label is open.
  void end(const std::string& label);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Forward marks/spans into `sink` on `track` (see obs::Tracer::track).
  /// Pass nullptr to detach. The recorder keeps recording locally either way.
  void set_sink(obs::Tracer* sink, int track) {
    sink_ = sink;
    sink_track_ = track;
  }

  const std::vector<Mark>& marks() const { return marks_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t open_spans() const { return open_.size(); }

  /// Time of the first mark with this label, or -1 if absent.
  SimTime mark_time(const std::string& label) const;

  /// Total duration of all spans with this label (0 if absent).
  SimTime span_total(const std::string& label) const;

  void clear();

 private:
  Engine& engine_;
  bool enabled_ = true;
  obs::Tracer* sink_ = nullptr;
  int sink_track_ = -1;
  std::vector<Mark> marks_;
  std::vector<Span> spans_;
  std::vector<Span> open_;  // spans begun but not yet ended
};

}  // namespace nectar::sim
