#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer: its name, start and end on the
// steady clock, the span that caused it, and the id of the request it
// served.  Spans stay in memory while the workload runs and are written
// out once, when it ends, so the recorder adds no I/O to the timed
// work.  A layer's self time is its span minus the part of that interval
// its child spans cover.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pvbench {

inline constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

/// Milliseconds on the steady clock, from an arbitrary fixed origin.
inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap bytes in use right now (allocator arenas plus mmapped blocks), in
/// MB.  Unlike the resident set, this moves when a stage allocates memory
/// the allocator already holds, so a span's delta is what it left live.
inline double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Peak resident set size of this process in MB (a monotone high-water
/// mark, which is why every workload runs in a process of its own).
inline double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::size_t parent = kNoParent;
  std::string request;      ///< request id; shared by one request's spans
  double heap_delta_mb = 0.0;  ///< heap in use after minus before

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

/// Thread-safe: the service workload records from its generator and its
/// completion thread at once.
class SpanRecorder {
 public:
  std::size_t begin(std::string name, std::size_t parent = kNoParent,
                    std::string request = {}) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.request = std::move(request);
    s.heap_delta_mb = -heap_in_use_mb();
    s.start_ms = now_ms();
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
  }

  void end(std::size_t id) {
    const double t = now_ms();
    const double heap = heap_in_use_mb();
    std::lock_guard lock(mu_);
    spans_[id].end_ms = t;
    spans_[id].heap_delta_mb += heap;
  }

  /// Records an interval measured elsewhere (the per-stage wall clock a
  /// collection result carries), laid out back to back from `start_ms`.
  std::size_t add(std::string name, double start_ms, double duration_ms,
                  std::size_t parent, std::string request) {
    Span s;
    s.name = std::move(name);
    s.start_ms = start_ms;
    s.end_ms = start_ms + duration_ms;
    s.parent = parent;
    s.request = std::move(request);
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
  }

  [[nodiscard]] std::vector<Span> snapshot() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (clipped to the parent).
  [[nodiscard]] static std::vector<double> self_times(
      const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span& s : spans) {
      if (s.parent != kNoParent) {
        const Span& p = spans[s.parent];
        kids[s.parent].emplace_back(std::max(s.start_ms, p.start_ms),
                                    std::min(s.end_ms, p.end_ms));
      }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double reach = -std::numeric_limits<double>::infinity();
      for (const auto& [lo, hi] : iv) {
        const double from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      self[i] = spans[i].duration_ms() - covered;
    }
    return self;
  }

  /// Writes every span, with its self time, as one JSON document.
  [[nodiscard]] bool write_json(const std::string& path) const {
    const std::vector<Span> spans = snapshot();
    const std::vector<double> self = self_times(spans);
    std::ofstream out(path);
    if (!out) return false;
    out.precision(17);
    out << "{\"schema\":\"pvbench-spans-v1\",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ms\":" << s.start_ms
          << ",\"end_ms\":" << s.end_ms << ",\"self_ms\":" << self[i]
          << ",\"parent\":";
      if (s.parent == kNoParent) {
        out << "null";
      } else {
        out << s.parent;
      }
      out << ",\"request\":\"" << s.request << "\"}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span for the lifetime of the object; a null recorder
/// makes it a no-op, so traced and untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name,
             std::size_t parent = kNoParent, std::string request = {})
      : rec_(rec),
        id_(rec != nullptr
                ? rec->begin(std::move(name), parent, std::move(request))
                : kNoParent) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

}  // namespace pvbench
