// ingest — the write path alone.
//
// One feeder thread drives a closed loop: it applies the seeded batch
// sequence through an in-process ShardedPprService with one local shard,
// a DurableStore attached (fsync on every commit, the program's default;
// a checkpoint after every third of the feed) and the estimator on, every hub
// a forward source and a reverse target. No reads run during the feed.
// The stack is set up kSetups times (setup_s is the median); the last one
// takes the feed.
//
// After each fifth of the feed, every hub is read back through the router
// at rest, in the reads workload's mix of Query and TopK, by one client
// that keeps kReadbackDepth requests in flight: that read-back is what the
// read metrics of this workload measure, and the last pass is checked
// against the oracle.
// Finally the data directory is reopened, and recovery must land on the
// same feed sequence, epochs and graph.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "router/sharded_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using dppr::LocalShardBackend;
using dppr::QueryResponse;
using dppr::RequestStatus;
using dppr::ShardedPprService;
using dppr::VertexId;

/// One query worker: during a read-back the client and the worker share
/// the run's one core (run.py pins it).
constexpr int kWorkers = 1;
constexpr int kReadbackPasses = 5;
/// Timed reads per hub and pass, per second of --seconds: 3/4 Query(s, v),
/// 1/4 TopK(s, k), the reads workload's mix.
constexpr double kReadbackPerHubPerSecond = 48;
/// Requests in flight during a read-back: a few milliseconds of work, so a
/// thread that loses the core for a moment neither drains the queue nor
/// stalls the client.
constexpr int kReadbackDepth = 64;
constexpr int kReadbackWarmup = 256;  ///< untimed point reads per pass

/// Checks one read-back answer: status and epoch, and with `oracle` (the
/// final window's) its value.
void CheckRead(const QueryResponse& r, VertexId hub, VertexId v, bool topk,
               uint64_t want_epoch, const Oracle* oracle, Checks* checks) {
  if (r.status != RequestStatus::kOk) {
    checks->Failed(Fmt("read-back of hub %d: %s", hub,
                       dppr::RequestStatusName(r.status)));
    return;
  }
  checks->Expect(r.epoch == want_epoch,
                 Fmt("hub %d epoch %llu, want 1 + acknowledged batches = %llu",
                     hub, static_cast<unsigned long long>(r.epoch),
                     static_cast<unsigned long long>(want_epoch)));
  if (oracle == nullptr) return;
  const OracleColumns& column = oracle->Of(hub);
  if (topk) {
    std::vector<VertexId> ids;
    std::vector<double> scores;
    for (const auto& e : r.topk.entries) {
      ids.push_back(e.id);
      scores.push_back(e.score);
    }
    checks->Expect(ValidTopK(ids, scores, column.forward, column.forward_order,
                             kTopK, kEps),
                   Fmt("hub %d: top-%d is not valid under +-eps", hub, kTopK));
  } else {
    const double exact = column.forward[static_cast<size_t>(v)];
    checks->Expect(std::abs(r.estimate.value - exact) <= kEps + 1e-12,
                   Fmt("hub %d vertex %d: served %.12g, oracle %.12g", hub, v,
                       r.estimate.value, exact));
  }
}

std::string JoinRates(const std::vector<double>& rates) {
  std::string out;
  for (double rate : rates) out += Fmt("%s%.0f", out.empty() ? "" : " ", rate);
  return out;
}

/// Builds the one-shard stack over `dir` and serves its first request.
std::unique_ptr<ShardedPprService> SetUp(const Inputs& inputs,
                                         const std::string& dir,
                                         Checks* checks) {
  ScopedSpan span("ingest.setup");
  dppr::ShardedServiceOptions options;
  options.num_shards = 1;
  options.index = MakeIndexOptions();
  options.service = MakeServiceOptions(kWorkers, kWalkSeed);
  options.data_dir = dir;
  options.durability = MakeDurability(static_cast<int>(inputs.batches.size()));
  auto service = std::make_unique<ShardedPprService>(
      inputs.initial, inputs.num_vertices, inputs.hubs, options);
  service->Start();
  for (VertexId hub : inputs.hubs) {
    checks->Expect(service->AddTarget(hub).status == RequestStatus::kOk,
                   Fmt("AddTarget(%d) refused", hub));
  }
  const QueryResponse first = service->Query(inputs.hubs[0], inputs.hubs[0]);
  checks->Expect(first.status == RequestStatus::kOk && first.epoch == 1,
                 "first read after setup");
  return service;
}

}  // namespace

WorkloadResult RunIngest(const RunConfig& config, const Inputs& inputs,
                         Checks* checks) {
  const int batches = static_cast<int>(inputs.batches.size());
  const Oracle oracle = BuildOracle(inputs, batches, kAlpha);
  WorkloadResult result;
  result.feed_batches = batches;

  // Set up kSetups times for a steady setup_s; the last stack is measured.
  std::vector<double> setup_s;
  std::unique_ptr<ShardedPprService> service;
  std::string dir;
  for (int i = 0; i < kSetups; ++i) {
    if (service) {
      service->Stop();
      service.reset();
      RemoveDir(dir);
    }
    dir = config.scratch_dir + "/ingest-" + std::to_string(i);
    ResetDir(dir);
    const Clock::time_point t0 = Clock::now();
    service = SetUp(inputs, dir, checks);
    setup_s.push_back(SecondsSince(t0));
  }

  // The feed, paused after each fifth for a read-back pass at rest, every
  // answer at the epoch the acknowledged batches promise (the last pass is
  // also checked against the oracle).
  const int reads_per_hub = std::max(
      4, static_cast<int>(std::lround(config.seconds * kReadbackPerHubPerSecond)));
  const int64_t reads_per_pass =
      static_cast<int64_t>(reads_per_hub) * static_cast<int64_t>(inputs.hubs.size());
  std::vector<double> batch_ms, batch_work, batch_s, read_us, pass_rate;
  double read_s = 0;  // timed read-back time over all passes
  batch_ms.reserve(static_cast<size_t>(batches));
  read_us.reserve(static_cast<size_t>(reads_per_pass * kReadbackPasses));
  Rng rng(config.seed ^ 0x5EADBACCULL);
  double feed_s = 0, feed_cpu_s = 0;
  int fed = 0;
  for (int pass = 1; pass <= kReadbackPasses; ++pass) {
    const int until = batches * pass / kReadbackPasses;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    for (; fed < until; ++fed) {
      ScopedSpan span("ingest.batch", static_cast<uint64_t>(fed));
      const Clock::time_point submit = Clock::now();
      const dppr::MaintResponse ack = service->ApplyUpdates(inputs.batches[fed]);
      const double seconds = SecondsSince(submit);
      batch_ms.push_back(seconds * 1e3);
      batch_s.push_back(seconds);
      batch_work.push_back(static_cast<double>(inputs.batches[fed].size()));
      if (ack.status != RequestStatus::kOk) {
        checks->Failed(
            Fmt("batch %d: %s", fed, dppr::RequestStatusName(ack.status)));
      }
    }
    feed_s += SecondsSince(t0);
    feed_cpu_s += ProcessCpuSeconds() - cpu0;

    const auto want_epoch = static_cast<uint64_t>(1 + fed);
    const bool last = pass == kReadbackPasses;
    // Untimed: a warm-up of the idle workers.
    for (int i = 0; i < kReadbackWarmup; ++i) {
      const VertexId hub = inputs.hubs[static_cast<size_t>(i) % inputs.hubs.size()];
      CheckRead(service->Query(hub, hub), hub, hub, false, want_epoch, nullptr,
                checks);
    }
    // Request i reads hub i % |hubs|; every fourth round of hubs is TopK.
    std::vector<VertexId> targets(static_cast<size_t>(reads_per_pass));
    for (VertexId& v : targets) {
      v = static_cast<VertexId>(
          rng.Below(static_cast<uint64_t>(inputs.num_vertices)));
    }
    const auto hub_of = [&](int64_t id) {
      return inputs.hubs[static_cast<size_t>(id) % inputs.hubs.size()];
    };
    const auto is_topk = [&](int64_t id) {
      return (id / static_cast<int64_t>(inputs.hubs.size())) % 4 == 0;
    };
    std::vector<QueryResponse> answers(static_cast<size_t>(reads_per_pass));
    const Clock::time_point r0 = Clock::now();
    RunPipelined(
        kReadbackDepth, [&](int64_t id) { return id < reads_per_pass; },
        [&](int64_t id) {
          const VertexId hub = hub_of(id);
          return is_topk(id) ? service->TopKAsync(hub, kTopK)
                             : service->QueryVertexAsync(
                                   hub, targets[static_cast<size_t>(id)]);
        },
        [&](int64_t id, const QueryResponse& r, Clock::time_point,
            double latency_us) {
          read_us.push_back(latency_us);
          answers[static_cast<size_t>(id)] = r;
        });
    const double pass_s = SecondsSince(r0);
    read_s += pass_s;
    pass_rate.push_back(static_cast<double>(reads_per_pass) / pass_s);
    for (int64_t id = 0; id < reads_per_pass; ++id) {
      CheckRead(answers[static_cast<size_t>(id)], hub_of(id),
                targets[static_cast<size_t>(id)], is_topk(id), want_epoch,
                last ? &oracle : nullptr, checks);
    }
  }
  checks->Attempted(batches + static_cast<int64_t>(read_us.size()) +
                    kReadbackPasses * kReadbackWarmup);

  // Every hub's full served vector against the oracle.
  auto* local = dynamic_cast<LocalShardBackend*>(
      service->ReplicaBackendForTesting(service->ShardIds()[0], 0));
  if (checks->Expect(local != nullptr, "the shard is a local backend")) {
    for (VertexId hub : inputs.hubs) {
      const auto snapshot = local->service()->index()->SnapshotForSource(hub);
      const double err =
          snapshot ? MaxAbsError(snapshot->estimates, oracle.Of(hub).forward)
                   : INFINITY;
      checks->Expect(err <= kEps + 1e-12,
                     Fmt("hub %d: served vector off the oracle by %.3g", hub,
                         err));
    }
  }
  const dppr::RouterReport report = service->Report();
  const dppr::ShardedServiceOptions options = service->options();
  service->Stop();
  service.reset();

  {
    // Recovery: a fresh backend over the same directory replays the log.
    const auto want_epoch = static_cast<uint64_t>(1 + batches);
    LocalShardBackend recovered(inputs.initial, inputs.num_vertices,
                                inputs.hubs, options.index,
                                MakeServiceOptions(kWorkers, 0),
                                dir + "/backend-0", options.durability);
    checks->Expect(recovered.recovered(), "the data directory recovers");
    recovered.Start();
    checks->Expect(recovered.store()->feed_seq() ==
                       static_cast<uint64_t>(batches),
                   Fmt("recovered feed sequence %llu, want %d",
                       static_cast<unsigned long long>(
                           recovered.store()->feed_seq()),
                       batches));
    checks->Expect(recovered.GraphChecksum() == oracle.graph_checksum,
                   "recovered graph equals the rebuilt final window");
    for (VertexId hub : inputs.hubs) {
      const QueryResponse r = recovered.TopKAsync(hub, kTopK, 0).get();
      checks->Expect(r.status == RequestStatus::kOk && r.epoch == want_epoch,
                     Fmt("hub %d recovered at epoch %llu, want %llu", hub,
                         static_cast<unsigned long long>(r.epoch),
                         static_cast<unsigned long long>(want_epoch)));
    }
    recovered.Stop();
  }
  RemoveDir(dir);

  const double edge_updates = static_cast<double>(inputs.EdgeUpdates(batches));
  result.metrics["setup_s"] = {Median(setup_s), "s"};
  result.metrics["edges_per_s"] = {WindowedThroughput(batch_work, batch_s),
                                   "1/s"};
  result.metrics["batch_p50_ms"] = {WindowedPercentile(batch_ms, 50), "ms"};
  result.metrics["reads_per_s"] = {
      static_cast<double>(read_us.size()) / read_s, "1/s"};
  result.metrics["read_p50_us"] = {WindowedPercentile(read_us, 50), "us"};
  result.metrics["cpu_us_per_op"] = {feed_cpu_s * 1e6 / edge_updates, "us"};
  result.notes.push_back(Fmt("tails (printed, not reported): batch_p99_ms=%.4f "
                             "read_p99_us=%.2f",
                             WindowedPercentile(batch_ms, 99),
                             WindowedPercentile(read_us, 99)));
  result.notes.push_back(Fmt(
      "ingest: %d batches (%.0f edge updates) in %.2f s of feed; samples: "
      "batch=%zu read=%zu setup=%zu; read-back passes at %s reads/s",
      batches, edge_updates, feed_s, batch_ms.size(), read_us.size(),
      setup_s.size(), JoinRates(pass_rate).c_str()));
  // No reads run during this feed.
  result.layer_metrics["server.reads_during_maintenance_pct"] = {0.0, "%"};
  result.layer_metrics["router.update_retries"] = {
      static_cast<double>(report.update_retries), "count"};
  result.layer_metrics["router.reroutes"] = {
      static_cast<double>(report.reroutes), "count"};
  return result;
}

}  // namespace perfbench
