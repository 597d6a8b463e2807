#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {
/// Spans open on this thread, innermost last: the default parent.
thread_local std::vector<std::uint32_t> open_spans;
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint32_t Tracer::begin(const char* name, std::uint64_t op,
                            std::uint32_t parent) {
  if (parent == kNoParent && !open_spans.empty()) parent = open_spans.back();
  const std::int64_t now = ns(Clock::now());
  std::uint32_t id;
  {
    std::lock_guard lock(mutex_);
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, op, parent, now, -1});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t now = ns(Clock::now());
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard lock(mutex_);
  spans_[id].end_ns = now;
}

void Tracer::record(const char* name, std::uint64_t op, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end) {
  std::lock_guard lock(mutex_);
  spans_.push_back({name, op, parent, ns(start), ns(end)});
}

void Tracer::maximize(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  double& slot = counters_[name];
  slot = std::max(slot, value);
}

void Tracer::count(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  counters_[name] += value;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.end_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations_ms(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::self_ns() const {
  // Children grouped by parent, then each span's self time is its duration
  // minus the union of its children's intervals clipped to it.
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::uint32_t c : children[i]) {
      const SpanRecord& k = spans_[c];
      if (k.end_ns < 0) continue;
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

void Tracer::print_self_times() const {
  std::lock_guard lock(mutex_);
  const std::vector<double> self = self_ns();
  struct Row {
    double total = 0.0, self = 0.0;
    std::size_t calls = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    Row& r = rows[spans_[i].name];
    r.total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    r.self += self[i] / 1e6;
    ++r.calls;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.self > b.second.self; });
  std::printf("spans by self time:\n  %-28s %10s %12s %12s\n", "span", "calls",
              "total_ms", "self_ms");
  for (const auto& [name, r] : sorted)
    std::printf("  %-28s %10zu %12.3f %12.3f\n", name.c_str(), r.calls, r.total,
                r.self);
}

std::size_t Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  const std::vector<double> self = self_ns();
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"op\": " << s.op << ", \"parent\": ";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << static_cast<std::int64_t>(self[i]) << "}\n";
  }
  return spans_.size();
}

}  // namespace perfbench
