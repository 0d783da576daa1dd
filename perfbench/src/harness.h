#ifndef AWMOE_PERFBENCH_HARNESS_H_
#define AWMOE_PERFBENCH_HARNESS_H_

// Shared pieces of the repository benchmark binary: the run
// configuration, latency summaries, process resource readings, the
// machine fingerprint, the in-memory span recorder of traced runs, and
// the result that main.cc prints. Nothing here reaches into the
// library's internals; workloads time public calls from outside.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace awmoe {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One invocation: `--workload --seed --seconds --trace [--size]`.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: tiny corpora and short phases, same code paths.
  bool tiny = false;
  /// Where a traced run writes its spans (empty = do not write).
  std::string trace_out;
};

/// Minimal JSON object builder for the report lines (flat values plus
/// nested raw objects); numbers keep all their digits.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const std::string& key, const JsonObject& value);
  JsonObject& AddRaw(const std::string& key, const std::string& raw);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);
std::string JsonArray(const std::vector<double>& values);

/// Latency distribution of one phase, from the harness's own
/// per-operation records (never from a library reservoir).
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Highest percentile with at least ten samples beyond it (0 when
  /// fewer than eleven samples), and its value.
  double top_percentile = 0.0;
  double top_value = 0.0;

  JsonObject ToJson() const;
};

/// Nearest-rank percentile (q in [0, 1]) of an ascending vector.
double PercentileSorted(const std::vector<double>& sorted, double q);
LatencySummary Summarize(std::vector<double> samples);
double Median(std::vector<double> values);
/// hits / (hits + misses), 0 when both are 0.
double HitRatio(int64_t hits, int64_t misses);

/// The p99 of `values` in each consecutive `window_s` window (by
/// `start_s`, ascending), in time order. A window with fewer than
/// `min_count` samples merges into the next one; a short trailing
/// window is dropped unless it is the only one.
std::vector<double> WindowP99s(const std::vector<double>& start_s,
                               const std::vector<double>& values,
                               double window_s, size_t min_count);

/// The lower quartile of a statistic taken per window of a run (a
/// window's p99, median, or CPU per request): the figure the system
/// holds in its quieter windows. On a shared virtual machine, host
/// stalls of several milliseconds land in a varying share of windows
/// (from none to most of them, run to run), so a whole-run figure
/// measures the host's neighbours more than the program. A program
/// regression shows in every window and moves this figure; a
/// disturbance confined to under a quarter of the windows does not.
/// The whole-run figures and the highest percentile the sample supports
/// are reported beside it.
double LowerQuartile(std::vector<double> per_window);

/// The mean of a per-window statistic of a closed loop without its
/// highest and lowest tenth. A busy thread runs at one of two speeds on
/// a shared host, switching every second or so (about 1.5x apart, as
/// the host keeps that virtual CPU's sibling busy or idle). A quantile
/// of the windows then jumps between the two speeds as the share of
/// time at each drifts from run to run; the mean of the mixture moves
/// with the share smoothly, and the trim drops stalls. A single-thread
/// loop pairs it with CpuRotation and windows short enough that a run
/// has a few hundred.
double TrimmedMean(std::vector<double> per_window);

/// Per-window figures of a closed loop, for the summaries above: each
/// window's median operation latency, CPU per operation and work units
/// (calls, training rows) per second. A window closes at the first
/// operation that ends past `window_s`; a trailing short window is
/// dropped unless it is the only one.
class ClosedLoopWindows {
 public:
  ClosedLoopWindows(double window_s, Clock::time_point start);

  void Record(double latency_ms, Clock::time_point end, double units);
  /// Closes the trailing window when no full one closed.
  void Finish(Clock::time_point end);

  const std::vector<double>& p50_ms() const { return p50_ms_; }
  const std::vector<double>& cpu_ms_per_op() const { return cpu_ms_per_op_; }
  const std::vector<double>& units_per_s() const { return units_per_s_; }

 private:
  void Close(Clock::time_point end);

  double window_s_;
  Clock::time_point window_start_;
  double cpu_start_;
  std::vector<double> latencies_;
  double units_ = 0.0;
  std::vector<double> p50_ms_;
  std::vector<double> cpu_ms_per_op_;
  std::vector<double> units_per_s_;
};

/// Moves the calling thread to the next CPU it may run on at each
/// Next(), round robin, and gives it back all of them at Stop() or when
/// destroyed.
/// The host slows each virtual CPU on its own (see TrimmedMean); a thread
/// the scheduler leaves on one CPU for a whole run reads that CPU's
/// state, a rotating one samples every CPU's. A no-op when the affinity
/// cannot be read or set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  void Stop();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Process CPU seconds (user + system) and peak resident set, read
/// with getrusage.
double ProcessCpuSeconds();
double PeakRssMb();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();

/// Hardware and build fingerprint recorded with every result.
JsonObject Fingerprint(int threads_used);

/// Runs `teardown` (untimed) then `setup` (timed) five times and
/// returns the median wall seconds of `setup`; each call must rebuild
/// the system from scratch (the last one is the instance the run keeps).
double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<void()>& setup);

/// In-memory span recorder of traced runs: name, start, end, parent and
/// request id per span, written out once at the end.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t request = 0;
    int parent = -1;  // Index of the parent span, -1 for a root.
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name, int64_t request, int parent);
  void End(int span);

  /// Per span name: total self time (duration minus the part covered
  /// by direct children), microseconds.
  std::map<std::string, double> SelfTimesUs() const;
  /// Per span name: number of spans.
  std::map<std::string, int64_t> Counts() const;

  /// Writes every span as one JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the recorder is disabled or null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t request,
             int parent = -1)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Everything one workload run produces. `end_to_end` holds every
/// end-to-end metric, `per_layer` (traced runs only) the per-layer ones
/// the workload reaches, both by name; `report` carries the supporting
/// detail (sample counts, ladder, ...).
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Threads the workload runs (generator, flush lanes, publisher or
  /// trainer workers), recorded in the fingerprint.
  int threads = 1;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  JsonObject report;
};

/// Metric names and units in BENCHMARK.json order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& PerLayerSpecs();

/// Sets an end-to-end / per-layer metric (CHECK-fails on a name the
/// spec table does not list).
void SetEndToEnd(RunResult* result, const std::string& name, double value);
void SetPerLayer(RunResult* result, const std::string& name, double value);

}  // namespace perfbench
}  // namespace awmoe

#endif  // AWMOE_PERFBENCH_HARNESS_H_
