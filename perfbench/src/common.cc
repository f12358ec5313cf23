#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace perfbench {

bool Checks::Expect(bool ok, const std::string& what) {
  ++checks_run_;
  if (!ok) {
    ++violations_;
    if (violations_ <= 10) std::printf("check VIOLATED: %s\n", what.c_str());
  }
  return ok;
}

void Checks::Failed(const std::string& what) {
  ++failed_;
  if (failed_ <= 10) std::printf("op FAILED: %s\n", what.c_str());
}

dppr::IndexOptions MakeIndexOptions() {
  dppr::IndexOptions options;
  options.ppr.alpha = kAlpha;
  options.ppr.eps = kEps;
  return options;
}

dppr::ServiceOptions MakeServiceOptions(int workers, uint64_t estimator_seed) {
  dppr::ServiceOptions options;
  if (workers > 0) options.num_workers = workers;
  options.estimator.enabled = estimator_seed != 0;
  options.estimator.seed = estimator_seed;
  return options;
}

dppr::storage::DurableStoreOptions MakeDurability(int batches) {
  dppr::storage::DurableStoreOptions durability;
  durability.checkpoint_every = static_cast<uint64_t>(std::max(1, batches / 3));
  return durability;
}

ReadSamples MergeByCompletion(const std::vector<const ReadSamples*>& readers) {
  std::vector<std::pair<double, double>> timeline;
  for (const ReadSamples* reader : readers) {
    for (size_t i = 0; i < reader->done_s.size(); ++i) {
      timeline.emplace_back(reader->done_s[i], reader->latency_us[i]);
    }
  }
  std::sort(timeline.begin(), timeline.end());
  ReadSamples merged;
  for (const auto& [done, latency] : timeline) {
    merged.done_s.push_back(done);
    merged.latency_us.push_back(latency);
  }
  return merged;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// Exact percentile (nearest rank) of `samples`; sorts a copy.
double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least pct% at or below it.
  const double rank = pct / 100.0 * static_cast<double>(samples.size());
  size_t index = static_cast<size_t>(rank + 0.999999999);
  index = std::clamp<size_t>(index, 1, samples.size());
  return samples[index - 1];
}

/// Window boundaries [bounds[i], bounds[i+1]) over n time-ordered samples.
std::vector<size_t> Windows(size_t n) {
  const size_t windows = std::clamp<size_t>(n / kMinWindowSamples, 1,
                                            static_cast<size_t>(kMaxWindows));
  std::vector<size_t> bounds;
  for (size_t w = 0; w <= windows; ++w) bounds.push_back(n * w / windows);
  return bounds;
}

}  // namespace

double WindowedPercentile(const std::vector<double>& samples, double pct) {
  const std::vector<size_t> bounds = Windows(samples.size());
  std::vector<double> per_window;
  for (size_t w = 0; w + 1 < bounds.size(); ++w) {
    per_window.push_back(Percentile(
        {samples.begin() + static_cast<long>(bounds[w]),
         samples.begin() + static_cast<long>(bounds[w + 1])},
        pct));
  }
  return Median(per_window);
}

double WindowedRate(std::vector<double> done_s) {
  if (done_s.size() < 2) return 0.0;
  std::sort(done_s.begin(), done_s.end());
  // The first completion opens the first window, so it is not counted.
  const std::vector<size_t> bounds = Windows(done_s.size() - 1);
  std::vector<double> per_window;
  for (size_t w = 0; w + 1 < bounds.size(); ++w) {
    const double span = done_s[bounds[w + 1]] - done_s[bounds[w]];
    if (span > 0) {
      per_window.push_back(static_cast<double>(bounds[w + 1] - bounds[w]) /
                           span);
    }
  }
  return Median(per_window);
}

double WindowedThroughput(const std::vector<double>& work,
                          const std::vector<double>& seconds) {
  const std::vector<size_t> bounds = Windows(seconds.size());
  std::vector<double> per_window;
  for (size_t w = 0; w + 1 < bounds.size(); ++w) {
    double done = 0, busy = 0;
    for (size_t i = bounds[w]; i < bounds[w + 1]; ++i) {
      done += work[i];
      busy += seconds[i];
    }
    if (busy > 0) per_window.push_back(done / busy);
  }
  return Median(per_window);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RemoveDir(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

void ResetDir(const std::string& path) {
  RemoveDir(path);
  std::filesystem::create_directories(path);
}

std::string Fmt(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

}  // namespace perfbench
