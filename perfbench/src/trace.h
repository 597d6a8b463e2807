// Span recorder for the traced run.
//
// Every call the traced run makes into a layer's public function is
// wrapped in a Span: name, start, end, parent span and the id of the
// operation (field, request or frame) it belongs to. Counts are recorded
// at the same boundaries. Spans stay in memory and are written out as
// JSON lines when the run ends; a span's self time is its duration minus
// the part of that interval its child spans cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  Tracer();

  /// Open a span; `parent` defaults to the innermost span open on the
  /// calling thread. Returns the span id.
  std::uint32_t begin(const char* name, std::uint64_t op,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t id);
  /// Record an already finished interval, e.g. a task's queue wait from
  /// its dispatch on one thread to its start on another.
  void record(const char* name, std::uint64_t op, std::uint32_t parent,
              Clock::time_point start, Clock::time_point end);

  /// Add `value` to the named counter.
  void count(const std::string& name, double value);
  /// Raise the named counter to `value` if it is below it.
  void maximize(const std::string& name, double value);
  double counter(const std::string& name) const;

  /// Summed duration (ms) of the spans called `name`.
  double total_ms(const std::string& name) const;
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Per-name total and self time (ms) and call count, sorted by self time.
  void print_self_times() const;
  /// Write every span as one JSON object per line; returns the span count.
  std::size_t write_jsonl(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name;
    std::uint64_t op;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<double> self_ns() const;
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards spans_ and counters_
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span. With a null tracer it records nothing, so instrumented code
/// paths run unchanged when tracing is off.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t op,
       std::uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, op, parent) : Tracer::kNoParent) {}
  ~Span() {
    if (tracer_) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
