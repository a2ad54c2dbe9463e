// The benchmark's own tracing: spans recorded around the calls it makes into
// the library, kept in memory and written out as a chrome://tracing file
// when the run ends. Only traced runs (--trace 1) record; an untraced run
// never reads the clock through this recorder.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One call into a layer: name, start, end and the enclosing span.
struct Span {
  const char* name;  ///< static string, e.g. "core.step.standard"
  int32_t parent;    ///< index of the enclosing span, -1 at top level
  int64_t start_ns;  ///< since the recorder's origin
  int64_t end_ns;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, NowNs(), 0});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  /// Durations in microseconds of every closed span called `name`, in
  /// recording order.
  std::vector<double> DurationsUs(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.end_ns > 0 && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Writes the first `cap` spans as chrome://tracing "X" events. Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t cap) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const size_t n = std::min(cap, spans_.size());
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
    std::fprintf(f, "],\"spans_recorded\":%zu}\n", spans_.size());
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; free when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec->Begin(name)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

}  // namespace perfbench
