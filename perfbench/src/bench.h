// Shared pieces of the benchmark driver: the run context every workload
// gets (seed, run length, trace switch, span recorder, outcome), the
// in-memory span recorder, process CPU/RSS probes and small statistics.
//
// Everything here lives outside the library under test: the workloads
// time calls into the library's public functions and never reach into
// its internals.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/latency_histogram.h"

namespace perfbench {

// Thread count of every parallel layer the benchmark drives.  Fixed, not
// read from the machine, so two machines with different core counts run
// the same program; the reference box has four cores.
constexpr int kThreads = 4;

double NowSeconds();

// Process CPU time (all threads), in seconds.
double ProcessCpuSeconds();

// getrusage snapshot of this process or of its reaped children.
struct Rusage {
  double user_s = 0;
  double sys_s = 0;
  double max_rss_mb = 0;
  double cpu_s() const { return user_s + sys_s; }
};
Rusage SelfUsage();
Rusage ChildrenUsage();

// Largest resident set of this process and of every reaped child, MiB.
double PeakRssMb();

double Median(std::vector<double> v);
// The 25th percentile (linear interpolation between order statistics).
// Where a run repeats one identical operation (a fleet run of the same
// stream, a Serve call on the same chunk), its time is the fast quartile
// of them: on a shared machine interference only ever slows an
// operation, and this estimate holds still while up to three quarters of
// them are disturbed, where the median moves once half are.
double FastQuartile(std::vector<double> v);
// "min / median / max over n" of a sample, for the run's notes.
std::string Spread(const std::vector<double>& v, double scale);
// Linear-interpolated quantile of a LatencyHistogram: the bucket holding
// the rank, with the rank's position inside it spread evenly over the
// bucket's value range.  Returns nanoseconds.  LatencyHistogram::
// ValueAtQuantile returns the bucket's lower bound instead, a 1/16-octave
// step (about 4 % at 3.5 ms): a steady median then reads the same value
// in most runs, and a shift smaller than a step does not show.
double HistQuantileNs(const webwave::LatencyHistogram& h, double q);

// One span: a named interval with the span that caused it.
struct TraceSpan {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
};

// In-memory span tree, written out when the run ends.  Disabled
// recorders keep nothing and cost one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int Begin(const std::string& name);
  void End(int id);
  // A closed span with explicit bounds under `parent` (for intervals
  // measured by someone else, such as EpochDriver's phase marks).
  int Add(const std::string& name, double start_s, double end_s, int parent);

  // Sum of durations, and of self times (duration minus the part of it
  // covered by child spans), over every span called `name`.
  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
  int Count(const std::string& name) const;

  // JSON, one span per line.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), id_(rec.Begin(name)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// A MonotonicClock for EpochDriver::SetClock that also samples process
// CPU time at every mark, so each ApplyEpoch phase gets a wall interval
// and a CPU interval.  Marks accumulate until Take().
class PhaseClock final : public webwave::MonotonicClock {
 public:
  struct Mark {
    double wall_s;
    double cpu_s;
  };
  std::uint64_t NowNanos() override;
  std::vector<Mark> Take();

 private:
  std::vector<Mark> marks_;
};

// What one run reports.  Checks that fail print a reason to stderr and
// clear `correct`; the driver then exits nonzero.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Informational lines printed before the result (not part of it).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(const std::string& line) { notes.push_back(line); }
};

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  SpanRecorder spans{false};
  Outcome out;
};

// Seed of every workload's fixed scenario: its tree, fault schedule and
// document sizes are part of the workload's definition, like its node and
// document counts.  --seed drives the request streams that run over it
// (and, through them, the demand the closed loops learn), so the spread
// between seeds measures the program rather than the luck of one draw.
constexpr std::uint64_t kTopologySeed = 17;

// Set-up is repeated at least this many times, and until this much time
// has gone into it, so a small set-up still gets a steady median.
constexpr int kSetupMinRepeats = 3;
constexpr double kSetupMinSeconds = 2.0;

// Runs `setup` kSetupMinRepeats or more times (see above) and returns the
// median wall seconds; the callable rebuilds the workload's whole state
// each time.
template <typename F>
double TimeSetup(F&& setup) {
  std::vector<double> t;
  double spent = 0;
  while (static_cast<int>(t.size()) < kSetupMinRepeats ||
         spent < kSetupMinSeconds) {
    const double t0 = NowSeconds();
    setup();
    t.push_back(NowSeconds() - t0);
    spent += t.back();
  }
  return Median(t);
}

void RunFleetLoopback(RunContext& ctx);
void RunFleetResync(RunContext& ctx);
void RunServeHotCatalog(RunContext& ctx);
void RunHotspotLoop(RunContext& ctx);

}  // namespace perfbench
