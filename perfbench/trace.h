// The benchmark's own span recorder. Spans are recorded in the benchmark's
// files, around calls into each module's public functions; the program's
// own trace.* histograms are not read (their names vary with thread count).
//
// A disabled Tracer records nothing and every Scoped span is a no-op, so the
// untraced run pays one branch per call site. Spans are kept in memory and
// written out as JSON when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One completed span: its layer-qualified name ("hin.collapse"), its
/// interval relative to the tracer's epoch, the span that caused it (-1 for
/// a root) and the id of the request or pipeline run it belongs to.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  long long request = -1;
  double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent, long long request);
  /// Closes span `id` (ignored when -1).
  void End(int id);
  /// Records an already-timed interval as a completed span.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int parent, long long request);

  /// Durations (ms) of every completed span named `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as a JSON array. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

  /// RAII span; a no-op on a disabled tracer.
  class Scoped {
   public:
    Scoped(Tracer* tracer, const std::string& name, int parent = -1,
           long long request = -1)
        : tracer_(tracer),
          id_(tracer->enabled() ? tracer->Begin(name, parent, request) : -1) {}
    ~Scoped() { tracer_->End(id_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_;
  };

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
double Median(std::vector<double> v);
/// Nearest-rank percentile `p` in [0, 100] of `v` (0 when empty).
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
