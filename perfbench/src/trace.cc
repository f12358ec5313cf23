#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

double SpanTotals::MeanMs() const {
  return count == 0 ? 0.0 : static_cast<double>(total_ns) / count / 1e6;
}

namespace trace {
namespace {

struct Buffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  ///< stack of open span indices
  int64_t dropped = 0;        ///< spans not recorded past the cap
};

// Bounds the memory and the trace file of a long traced run; the probes
// stay far below it, only the closed-loop readers can reach it.
constexpr size_t kMaxSpansPerThread = 100000;

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer* LocalBuffer() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    local = g_buffers.back().get();
    local->thread = static_cast<int>(g_buffers.size()) - 1;
    local->spans.reserve(1 << 16);
  }
  return local;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Enable() { g_enabled.store(true, std::memory_order_release); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t Begin(const char* name, uint64_t request_id) {
  if (!Enabled()) return -1;
  Buffer* buffer = LocalBuffer();
  if (buffer->spans.size() >= kMaxSpansPerThread) {
    ++buffer->dropped;
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  span.request_id = request_id;
  span.thread = buffer->thread;
  span.start_ns = NowNs();
  buffer->spans.push_back(span);
  const auto handle = static_cast<int64_t>(buffer->spans.size()) - 1;
  buffer->open.push_back(handle);
  return handle;
}

void End(int64_t handle) {
  if (handle < 0) return;
  const int64_t now = NowNs();
  Buffer* buffer = LocalBuffer();
  buffer->spans[static_cast<size_t>(handle)].end_ns = now;
  if (!buffer->open.empty() && buffer->open.back() == handle) {
    buffer->open.pop_back();
  }
}

std::map<std::string, SpanTotals> Totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SpanTotals> totals;
  for (const auto& buffer : g_buffers) {
    std::vector<int64_t> child_ns(buffer->spans.size(), 0);
    for (const Span& span : buffer->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      SpanTotals& t = totals[span.name];
      const int64_t duration = span.end_ns - span.start_ns;
      ++t.count;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
    }
  }
  return totals;
}

int64_t Dropped() {
  std::lock_guard<std::mutex> lock(g_mu);
  int64_t dropped = 0;
  for (const auto& buffer : g_buffers) dropped += buffer->dropped;
  return dropped;
}

bool WriteJsonLines(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buffer : g_buffers) {
    for (const Span& span : buffer->spans) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %lld, \"request_id\": %llu, \"thread\": %d}\n",
                   span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request_id),
                   span.thread);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace trace
}  // namespace perfbench
