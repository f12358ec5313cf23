// Shared plumbing of the perfbench workloads: the run configuration, the
// result every workload returns, correctness bookkeeping, and small
// measurement helpers (percentiles, process CPU time, peak RSS).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "index/ppr_index.h"
#include "inputs.h"
#include "server/ppr_service.h"
#include "storage/durable_store.h"

namespace perfbench {

// Serving parameters every workload shares.
inline constexpr double kAlpha = 0.15;
inline constexpr double kEps = 1e-5;  ///< forward index: |p - pi| <= eps
inline constexpr int kTopK = 10;
/// Each workload sets its stack up this many times and reports the median
/// setup_s; the last stack is the one measured.
inline constexpr int kSetups = 3;

/// Feed length per second of --seconds, per workload. Constants, so a
/// run's work is a function of its seed and --seconds alone; they are set
/// so a run's timed part lasts about --seconds on the reference box.
inline constexpr double kIngestBatchesPerSecond = 50;
/// ingest slides 8 edges per batch (16 updates) where the other workloads
/// slide 2: the per-commit fsync and wake-ups then weigh less against the
/// push work, which repeats closely from run to run.
inline constexpr int kIngestSlideEdges = 8;
inline constexpr double kReadsBatchesPerSecond = 50;
inline constexpr double kMixedBatchesPerSecond = 200;

/// Seed of the estimator's walk index: fixed, so the walk index is a
/// function of the generated inputs alone.
inline constexpr uint64_t kWalkSeed = 42;

dppr::IndexOptions MakeIndexOptions();
/// `workers` 0 keeps the program's default worker count. The estimator
/// (reverse push + walk index) is on when `estimator_seed` is nonzero.
dppr::ServiceOptions MakeServiceOptions(int workers, uint64_t estimator_seed);
/// The program's default durability (fsync on every commit) with a
/// checkpoint after every third of a `batches`-long feed.
dppr::storage::DurableStoreOptions MakeDurability(int batches);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What the command line asked for.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time a run accumulates
  bool trace = false;
  std::string scratch_dir;  ///< data directories and trace files go here
};

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Correctness bookkeeping: the number of operations attempted and
/// failed, and every violated check (the first few are printed).
class Checks {
 public:
  /// Records a check; returns `ok` so call sites can branch on it.
  bool Expect(bool ok, const std::string& what);
  void Attempted(int64_t n) { attempted_ += n; }
  void Failed(const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t violations() const { return violations_; }
  int64_t checks_run() const { return checks_run_; }
  bool correct() const { return violations_ == 0; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t violations_ = 0;
  int64_t checks_run_ = 0;
};

/// What a workload hands back to main.
struct WorkloadResult {
  std::map<std::string, Metric> metrics;  ///< end-to-end
  /// Per-layer metrics only the workload itself can observe (the rest
  /// come from the layer probes in layers.cc).
  std::map<std::string, Metric> layer_metrics;
  /// Batches of Inputs::batches the workload fed (the write-path probe
  /// replays the same prefix).
  int feed_batches = 0;
  /// Informational lines printed before the result (sample counts,
  /// feeder lateness, tracing breakdowns).
  std::vector<std::string> notes;
};

/// A closed loop with `depth` requests in flight from the calling thread:
/// it sends requests 0, 1, ... while fewer than `depth` are outstanding and
/// more(id) allows, then waits for the oldest. The servers' queue never
/// runs dry, so reads measure the read path's work rather than how fast an
/// idle thread wakes up. issue(id) sends request id and returns its future;
/// done(id, response, completed, latency_us) sees the answers in the order
/// they were sent, with their latency at the client. Returns the number of
/// requests sent.
template <typename More, typename Issue, typename Done>
int64_t RunPipelined(int depth, More more, Issue issue, Done done) {
  struct Outstanding {
    int64_t id;
    Clock::time_point sent;
    std::future<dppr::QueryResponse> answer;
  };
  std::deque<Outstanding> window;
  int64_t next = 0;
  for (;;) {
    while (static_cast<int>(window.size()) < depth && more(next)) {
      const Clock::time_point sent = Clock::now();
      window.push_back({next, sent, issue(next)});
      ++next;
    }
    if (window.empty()) return next;
    Outstanding oldest = std::move(window.front());
    window.pop_front();
    const dppr::QueryResponse response = oldest.answer.get();
    const Clock::time_point completed = Clock::now();
    done(oldest.id, response, completed,
         std::chrono::duration<double, std::micro>(completed - oldest.sent)
             .count());
  }
}

/// Timed reads of several reader threads: each reader fills its own, and
/// MergeByCompletion puts them in one completion-ordered sequence.
struct ReadSamples {
  std::vector<double> done_s;      ///< completion time since the readers began
  std::vector<double> latency_us;  ///< at the client
};
ReadSamples MergeByCompletion(const std::vector<const ReadSamples*>& readers);

double Median(std::vector<double> samples);

// A run's samples are split, in the order they were taken, into up to
// kMaxWindows consecutive windows of at least kMinWindowSamples each, and a
// statistic is the median of its per-window values: a passing slowdown of
// the machine then moves at most a minority of the windows.
inline constexpr int kMaxWindows = 5;
inline constexpr size_t kMinWindowSamples = 1000;

/// Median over windows of the pct-th percentile of time-ordered samples.
double WindowedPercentile(const std::vector<double>& samples, double pct);

/// Median over windows of the rate ops / seconds, given each operation's
/// completion time in seconds (any origin; sorted here).
double WindowedRate(std::vector<double> done_s);

/// Median over windows of work / time, given each closed-loop operation's
/// work and latency in time order (pauses between operations do not
/// count).
double WindowedThroughput(const std::vector<double>& work,
                          const std::vector<double>& seconds);

/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();
/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Removes a directory tree (best effort) and creates it afresh.
void ResetDir(const std::string& path);
void RemoveDir(const std::string& path);

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// The traced run's layer probes: replays the first `feed_batches` batches
/// (at most 1,000) through the write-path layers one call at a time, and sends
/// one read sequence through each depth of the read path. Adds every
/// per-layer metric they measure to `out`.
void MeasureLayers(const RunConfig& config, const Inputs& inputs,
                   int feed_batches, Checks* checks, WorkloadResult* out);

WorkloadResult RunIngest(const RunConfig& config, const Inputs& inputs,
                         Checks* checks);
WorkloadResult RunReads(const RunConfig& config, const Inputs& inputs,
                        Checks* checks);
WorkloadResult RunMixed(const RunConfig& config, const Inputs& inputs,
                        Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
