#include "sim/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/tracer.hpp"
#include "sim/engine.hpp"

namespace nectar::sim {

void TraceRecorder::mark(std::string_view label) {
  if (!enabled_) return;
  if (obs::tracing(sink_)) sink_->instant(sink_track_, std::string(label));
  marks_.push_back({std::string(label), engine_.now()});
}

void TraceRecorder::begin(std::string_view label) {
  if (!enabled_) return;
  if (obs::tracing(sink_)) sink_->begin(sink_track_, std::string(label));
  open_.push_back({std::string(label), engine_.now(), 0});
}

void TraceRecorder::end(const std::string& label) {
  if (!enabled_) return;
  auto it = std::find_if(open_.rbegin(), open_.rend(),
                         [&](const Span& s) { return s.label == label; });
  if (it == open_.rend()) throw std::logic_error("TraceRecorder::end: no open span " + label);
  Span s = *it;
  open_.erase(std::next(it).base());
  s.end = engine_.now();
  if (obs::tracing(sink_)) sink_->end(sink_track_, label);
  spans_.push_back(std::move(s));
}

SimTime TraceRecorder::mark_time(const std::string& label) const {
  for (const Mark& m : marks_) {
    if (m.label == label) return m.time;
  }
  return -1;
}

SimTime TraceRecorder::span_total(const std::string& label) const {
  SimTime total = 0;
  for (const Span& s : spans_) {
    if (s.label == label) total += s.duration();
  }
  return total;
}

void TraceRecorder::clear() {
  marks_.clear();
  spans_.clear();
  open_.clear();
}

}  // namespace nectar::sim
