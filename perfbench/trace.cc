#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int Tracer::Begin(const std::string& name, int parent, long long request) {
  if (!enabled_) return -1;
  const double now = MsBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, now, -1.0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = MsBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id].end_ms = now;
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent, long long request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, MsBetween(epoch_, start), MsBetween(epoch_, end),
                        parent, request});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ms >= 0.0) out.push_back(s.duration_ms());
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.4f,"
                 "\"end_ms\":%.4f,\"parent\":%d,\"request\":%lld}%s\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms, s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

}  // namespace perfbench
