// mixed — reads during maintenance, in process, through a local backend.
//
// A feeder applies the seed's arrivals in 2-edge slides one batch at a
// time, each submitted when the previous one is acknowledged. Meanwhile
// one reader keeps kReadDepth requests in flight until the feed ends:
// forward Query and TopK plus a share of ReverseTopK, QueryPair and
// HybridPair against the estimator. run.py sets a push team of one thread
// and pins the run to one core, which maintenance, the query worker and
// the reader share; the wait policy stays at the program's default.
// The backend is set up kSetups times (setup_s is the median); the last
// one takes the feed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "router/shard_backend.h"
#include "trace.h"

namespace perfbench {
namespace {

using dppr::LocalShardBackend;
using dppr::QueryResponse;
using dppr::RequestStatus;
using dppr::VertexId;

/// One query worker, so maintenance, the worker and the reader are the
/// threads that share the run's one core.
constexpr int kWorkers = 1;
/// The reader's requests in flight: a few milliseconds of work, so a
/// thread that loses the core for a moment neither drains the queue nor
/// stalls the reader.
constexpr int kReadDepth = 64;
constexpr double kEstimatorEps = dppr::EstimatorOptions{}.eps;
constexpr int kPairSamples = 32;  ///< sources checked per target at the end

enum class Op { kQuery, kTopK, kReverseTopK, kPair, kHybrid };

/// Op mix: 6/10 Query, 2/10 TopK, 2/10 estimator (the three in turn).
Op DrawOp(Rng* rng, uint64_t* estimator_turn) {
  const uint64_t draw = rng->Below(10);
  if (draw < 6) return Op::kQuery;
  if (draw < 8) return Op::kTopK;
  switch ((*estimator_turn)++ % 3) {
    case 0:
      return Op::kReverseTopK;
    case 1:
      return Op::kPair;
    default:
      return Op::kHybrid;
  }
}

struct ReaderLog {
  ReadSamples samples;
  int64_t failed = 0;
  int64_t during_maintenance = 0;
  int64_t epoch_regressions = 0;
  int64_t outside_interval = 0;
  std::string first_problem;
};

/// One pipelined reader (kReadDepth requests in flight) until `stop`.
/// Requests in flight together may be answered in any order, so an answer
/// must not go back behind the newest epoch of its hub that the reader had
/// already received when it sent the request.
void Reader(LocalShardBackend* backend, const Inputs& inputs, uint64_t seed,
            Clock::time_point origin, const std::atomic<bool>* stop,
            ReaderLog* log) {
  struct Request {
    Op op;
    VertexId hub;
    uint64_t floor;  ///< newest epoch of hub received before sending
  };
  Rng rng(seed);
  uint64_t estimator_turn = 0;
  // Newest epoch received per source (forward) and per target (estimator).
  std::map<VertexId, uint64_t> forward_epoch, estimator_epoch;
  const auto newest = [&](Op op, VertexId hub) -> uint64_t& {
    const bool forward = op == Op::kQuery || op == Op::kTopK;
    return (forward ? forward_epoch : estimator_epoch)[hub];
  };
  std::vector<Request> sent(kReadDepth);  // request id % kReadDepth
  RunPipelined(
      kReadDepth,
      [&](int64_t) { return !stop->load(std::memory_order_acquire); },
      [&](int64_t id) {
        const Op op = DrawOp(&rng, &estimator_turn);
        const VertexId hub = inputs.hubs[rng.Below(inputs.hubs.size())];
        const auto v = static_cast<VertexId>(
            rng.Below(static_cast<uint64_t>(inputs.num_vertices)));
        sent[static_cast<size_t>(id % kReadDepth)] = {op, hub, newest(op, hub)};
        switch (op) {
          case Op::kQuery:
            return backend->QueryVertexAsync(hub, v, 0);
          case Op::kTopK:
            return backend->TopKAsync(hub, kTopK, 0);
          case Op::kReverseTopK:
            return backend->ReverseTopKAsync(hub, kTopK, 0);
          case Op::kPair:
            return backend->QueryPairAsync(v, hub, 0);
          case Op::kHybrid:
            break;
        }
        return backend->HybridPairAsync(v, hub, 0);
      },
      [&](int64_t id, const QueryResponse& r, Clock::time_point done,
          double latency_us) {
        const Request& request = sent[static_cast<size_t>(id % kReadDepth)];
        log->samples.latency_us.push_back(latency_us);
        log->samples.done_s.push_back(
            std::chrono::duration<double>(done - origin).count());
        if (r.status != RequestStatus::kOk) {
          ++log->failed;
          if (log->first_problem.empty()) {
            log->first_problem = dppr::RequestStatusName(r.status);
          }
          return;
        }
        if (r.during_maintenance) ++log->during_maintenance;
        if (r.epoch < request.floor) ++log->epoch_regressions;
        uint64_t& seen = newest(request.op, request.hub);
        seen = std::max(seen, r.epoch);
        if (request.op == Op::kHybrid) {
          const dppr::PointEstimate& e = r.estimate;
          if (!(e.lower <= e.value && e.value <= e.upper &&
                e.upper - e.lower <= 2 * kEstimatorEps * (1 + 1e-9))) {
            ++log->outside_interval;
          }
        }
      });
}

/// Final state: every hub's served vector, epochs and estimator answers
/// against the oracle.
void CheckFinalState(LocalShardBackend* backend, const Inputs& inputs,
                     const Oracle& oracle, uint64_t seed, Checks* checks) {
  const auto want_epoch = static_cast<uint64_t>(1 + inputs.batches.size());
  Rng rng(seed ^ 0xF17A1ULL);
  for (VertexId hub : inputs.hubs) {
    const OracleColumns& column = oracle.Of(hub);
    const auto snapshot = backend->service()->index()->SnapshotForSource(hub);
    const double err = snapshot
                           ? MaxAbsError(snapshot->estimates, column.forward)
                           : INFINITY;
    checks->Expect(err <= kEps + 1e-12,
                   Fmt("hub %d: served vector off the oracle by %.3g", hub, err));
    const QueryResponse top = backend->TopKAsync(hub, kTopK, 0).get();
    checks->Expect(top.status == RequestStatus::kOk && top.epoch == want_epoch,
                   Fmt("hub %d final epoch %llu, want %llu", hub,
                       static_cast<unsigned long long>(top.epoch),
                       static_cast<unsigned long long>(want_epoch)));
    const QueryResponse rev = backend->ReverseTopKAsync(hub, kTopK, 0).get();
    std::vector<VertexId> ids;
    std::vector<double> scores;
    for (const auto& e : rev.topk.entries) {
      ids.push_back(e.id);
      scores.push_back(e.score);
    }
    checks->Expect(rev.status == RequestStatus::kOk &&
                       ValidTopK(ids, scores, column.reverse,
                                 column.forward_order, kTopK, kEstimatorEps),
                   Fmt("target %d: reverse top-%d not valid under +-eps", hub,
                       kTopK));
    for (int i = 0; i < kPairSamples; ++i) {
      const VertexId s =
          i == 0 ? hub
                 : static_cast<VertexId>(
                       rng.Below(static_cast<uint64_t>(inputs.num_vertices)));
      const double exact = column.reverse[static_cast<size_t>(s)];
      const QueryResponse pair = backend->QueryPairAsync(s, hub, 0).get();
      const QueryResponse hybrid = backend->HybridPairAsync(s, hub, 0).get();
      checks->Expect(
          pair.status == RequestStatus::kOk &&
              std::abs(pair.estimate.value - exact) <= kEstimatorEps + 1e-12,
          Fmt("pi_%d(%d): pair %.9g, oracle %.9g", s, hub, pair.estimate.value,
              exact));
      // The hybrid point moves inside the push interval, which must hold
      // the truth.
      const dppr::PointEstimate& h = hybrid.estimate;
      checks->Expect(hybrid.status == RequestStatus::kOk &&
                         h.lower <= exact + 1e-12 && exact <= h.upper + 1e-12 &&
                         h.lower <= h.value && h.value <= h.upper,
                     Fmt("pi_%d(%d): hybrid %.9g in [%.9g, %.9g], oracle %.9g",
                         s, hub, h.value, h.lower, h.upper, exact));
    }
  }
}

/// Builds the backend and serves its first request.
std::unique_ptr<LocalShardBackend> SetUp(const Inputs& inputs, Checks* checks) {
  ScopedSpan span("mixed.setup");
  auto backend = std::make_unique<LocalShardBackend>(
      inputs.initial, inputs.num_vertices, inputs.hubs, MakeIndexOptions(),
      MakeServiceOptions(kWorkers, kWalkSeed));
  backend->Start();
  for (VertexId hub : inputs.hubs) {
    checks->Expect(
        backend->AddTargetAsync(hub).get().status == RequestStatus::kOk,
        Fmt("AddTarget(%d)", hub));
  }
  const QueryResponse first =
      backend->QueryVertexAsync(inputs.hubs[0], inputs.hubs[0], 0).get();
  checks->Expect(first.status == RequestStatus::kOk && first.epoch == 1,
                 "first read after setup");
  return backend;
}

}  // namespace

WorkloadResult RunMixed(const RunConfig& config, const Inputs& inputs,
                        Checks* checks) {
  const int batches = static_cast<int>(inputs.batches.size());
  const Oracle oracle = BuildOracle(inputs, batches, kAlpha);
  WorkloadResult result;
  result.feed_batches = batches;

  // Set up kSetups times for a steady setup_s; the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<LocalShardBackend> backend;
  for (int i = 0; i < kSetups; ++i) {
    if (backend) backend->Stop();
    backend.reset();
    const Clock::time_point t0 = Clock::now();
    backend = SetUp(inputs, checks);
    setup_s.push_back(SecondsSince(t0));
  }

  // The feed, one batch at a time, while the reader runs.
  std::vector<double> batch_ms, batch_work, batch_s;
  batch_ms.reserve(static_cast<size_t>(batches));
  std::atomic<bool> stop_reader{false};
  ReaderLog log;
  const double cpu0 = ProcessCpuSeconds();
  Clock::time_point t0 = Clock::now();
  std::thread reader(Reader, backend.get(), std::cref(inputs),
                     config.seed * 7777, t0, &stop_reader, &log);
  for (int b = 0; b < batches; ++b) {
    ScopedSpan span("mixed.batch", static_cast<uint64_t>(b));
    const Clock::time_point submit = Clock::now();
    const dppr::MaintResponse ack =
        backend->ApplyUpdatesAsync(inputs.batches[b]).get();
    const double seconds = SecondsSince(submit);
    batch_ms.push_back(seconds * 1e3);
    batch_s.push_back(seconds);
    batch_work.push_back(static_cast<double>(inputs.batches[b].size()));
    if (ack.status != RequestStatus::kOk) {
      checks->Failed(
          Fmt("batch %d: %s", b, dppr::RequestStatusName(ack.status)));
    }
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  const double feed_s = SecondsSince(t0);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  checks->Attempted(batches);

  const int64_t during_maintenance = log.during_maintenance;
  const std::vector<double>& read_us = log.samples.latency_us;
  const std::vector<double>& done_s = log.samples.done_s;
  for (int64_t i = 0; i < log.failed; ++i) {
    checks->Failed("read: " + log.first_problem);
  }
  checks->Expect(log.epoch_regressions == 0,
                 Fmt("%lld reads saw an epoch go backwards",
                     static_cast<long long>(log.epoch_regressions)));
  checks->Expect(log.outside_interval == 0,
                 Fmt("%lld hybrid answers outside their +-eps interval",
                     static_cast<long long>(log.outside_interval)));
  const auto reads = static_cast<int64_t>(read_us.size());
  checks->Attempted(reads);
  const dppr::MetricsReport report = backend->Metrics();
  checks->Expect(report.updates_applied == inputs.EdgeUpdates(batches),
                 "every edge update applied");
  CheckFinalState(backend.get(), inputs, oracle, config.seed, checks);
  backend->Stop();
  backend.reset();

  const double edge_updates = static_cast<double>(inputs.EdgeUpdates(batches));
  result.metrics["setup_s"] = {Median(setup_s), "s"};
  result.metrics["edges_per_s"] = {WindowedThroughput(batch_work, batch_s),
                                   "1/s"};
  result.metrics["batch_p50_ms"] = {WindowedPercentile(batch_ms, 50), "ms"};
  result.metrics["reads_per_s"] = {WindowedRate(done_s), "1/s"};
  result.metrics["read_p50_us"] = {WindowedPercentile(read_us, 50), "us"};
  result.metrics["cpu_us_per_op"] = {
      cpu_s * 1e6 / (static_cast<double>(reads) + edge_updates), "us"};
  result.notes.push_back(Fmt("tails (printed, not reported): batch_p99_ms=%.4f "
                             "read_p99_us=%.2f",
                             WindowedPercentile(batch_ms, 99),
                             WindowedPercentile(read_us, 99)));
  result.notes.push_back(Fmt(
      "mixed: %d batches (%.0f edge updates) and %lld reads in %.2f s; "
      "samples: batch=%zu read=%zu setup=%zu",
      batches, edge_updates, static_cast<long long>(reads), feed_s,
      batch_ms.size(), read_us.size(), setup_s.size()));
  result.layer_metrics["server.reads_during_maintenance_pct"] = {
      reads > 0 ? 100.0 * static_cast<double>(during_maintenance) /
                      static_cast<double>(reads)
                : 0.0,
      "%"};
  // No router on this path: the backend is driven directly.
  result.layer_metrics["router.update_retries"] = {0.0, "count"};
  result.layer_metrics["router.reroutes"] = {0.0, "count"};
  return result;
}

}  // namespace perfbench
