#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

Rusage Usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

}  // namespace

Rusage SelfUsage() { return Usage(RUSAGE_SELF); }
Rusage ChildrenUsage() { return Usage(RUSAGE_CHILDREN); }

double PeakRssMb() {
  return std::max(SelfUsage().max_rss_mb, ChildrenUsage().max_rss_mb);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double FastQuartile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

std::string Spread(const std::vector<double>& v, double scale) {
  if (v.empty()) return "no samples";
  const auto mm = std::minmax_element(v.begin(), v.end());
  char buf[160];
  std::snprintf(buf, sizeof buf, "min %.4g / median %.4g / max %.4g over %zu",
                scale * *mm.first, scale * Median(v), scale * *mm.second,
                v.size());
  return buf;
}

double HistQuantileNs(const webwave::LatencyHistogram& h, double q) {
  using webwave::LatencyHistogram;
  if (h.count() == 0) return 0;
  const double rank = q * static_cast<double>(h.count());
  double cum = 0;
  for (int b = 0; b < LatencyHistogram::kBucketCount; ++b) {
    const double c = static_cast<double>(h.bucket(b));
    if (c == 0) continue;
    if (cum + c >= rank) {
      const double lo = static_cast<double>(LatencyHistogram::BucketLo(b));
      const double hi = static_cast<double>(LatencyHistogram::BucketHi(b));
      return lo + (hi - lo) * std::max(0.0, rank - cum) / c;
    }
    cum += c;
  }
  return static_cast<double>(h.MaxValueBound());
}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  TraceSpan s;
  s.name = name;
  s.start_s = NowSeconds();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = NowSeconds();
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

int SpanRecorder::Add(const std::string& name, double start_s, double end_s,
                      int parent) {
  if (!enabled_) return -1;
  TraceSpan s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  s.parent = parent;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::Total(const std::string& name) const {
  double t = 0;
  for (const TraceSpan& s : spans_)
    if (s.name == name) t += s.end_s - s.start_s;
  return t;
}

int SpanRecorder::Count(const std::string& name) const {
  int n = 0;
  for (const TraceSpan& s : spans_)
    if (s.name == name) ++n;
  return n;
}

double SpanRecorder::Self(const std::string& name) const {
  double t = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    if (s.name != name) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> kids;
    for (const TraceSpan& c : spans_)
      if (c.parent == static_cast<int>(i))
        kids.emplace_back(std::max(c.start_s, s.start_s),
                          std::min(c.end_s, s.end_s));
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = s.start_s;
    for (const auto& k : kids) {
      const double lo = std::max(k.first, reach);
      if (k.second > lo) {
        covered += k.second - lo;
        reach = k.second;
      }
    }
    t += (s.end_s - s.start_s) - covered;
  }
  return t;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  i, s.parent, s.name.c_str(), 1e6 * (s.start_s - t0),
                  1e6 * (s.end_s - t0));
    f << buf;
  }
  return static_cast<bool>(f);
}

std::uint64_t PhaseClock::NowNanos() {
  const double wall = NowSeconds();
  marks_.push_back(Mark{wall, ProcessCpuSeconds()});
  return static_cast<std::uint64_t>(wall * 1e9);
}

std::vector<PhaseClock::Mark> PhaseClock::Take() {
  std::vector<Mark> out;
  out.swap(marks_);
  return out;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace perfbench
