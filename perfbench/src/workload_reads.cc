// reads — the loopback read path alone.
//
// A routing-only ShardedPprService fronts two in-process PprServers that
// form one slot: a primary joined with AddRemoteShard and a standby joined
// with AddRemoteReplica, both over TCP on loopback. The slot serves reads
// round-robin under a max_epoch_lag bound. The fleet is set up kSetups
// times (setup_s is the median) and the last one is brought to the end of
// the seeded feed through the router — the replicated write fan-out over
// the wire, which the write metrics of this workload measure. Then, the
// feed idle, reader threads each issue a fixed sequence of requests in a
// closed loop, 3/4 Query(s, v) and 1/4 TopK(s, k) over the hubs, after an
// untimed warm-up. Every answer is checked against the oracle.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/dynamic_graph.h"
#include "net/ppr_server.h"
#include "oracle.h"
#include "router/sharded_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using dppr::QueryResponse;
using dppr::RequestStatus;
using dppr::ShardedPprService;
using dppr::VertexId;

constexpr int kWorkers = 2;   ///< query workers per replica
constexpr int kHandlers = 2;  ///< PprServer handler threads per replica
constexpr int kReaders = 2;   ///< closed-loop reader threads (<= nproc)
/// Timed reads per reader per second of --seconds (a constant, so the
/// request count depends on --seconds alone).
constexpr double kReadsPerReaderPerSecond = 3500;
constexpr int kWarmupReads = 500;  ///< untimed, per reader
constexpr int64_t kMaxEpochLag = 4;

/// One replica: a full serving stack skinned by a PprServer. Members are
/// destroyed in reverse order, so the server stops before its service.
struct Replica {
  explicit Replica(const Inputs& inputs)
      : graph(dppr::DynamicGraph::FromEdges(inputs.initial,
                                            inputs.num_vertices)),
        index(&graph, {}, MakeIndexOptions()) {
    index.Initialize();
    service = std::make_unique<dppr::PprService>(&index,
                                                 MakeServiceOptions(kWorkers, 0));
    service->Start();
    dppr::net::PprServerOptions options;
    options.num_handlers = kHandlers;
    server = std::make_unique<dppr::net::PprServer>(service.get(), options);
  }

  dppr::DynamicGraph graph;
  dppr::PprIndex index;
  std::unique_ptr<dppr::PprService> service;
  std::unique_ptr<dppr::net::PprServer> server;
};

/// The fleet: two replicas and the router in front.
struct Fleet {
  std::unique_ptr<Replica> primary;
  std::unique_ptr<Replica> standby;
  std::unique_ptr<ShardedPprService> router;

  ~Fleet() {
    if (router) router->Stop();
  }
};

/// Builds the fleet and serves its first request; false on a refused join.
bool BuildFleet(const Inputs& inputs, Fleet* fleet, Checks* checks) {
  ScopedSpan span("reads.setup");
  fleet->primary = std::make_unique<Replica>(inputs);
  fleet->standby = std::make_unique<Replica>(inputs);
  for (Replica* r : {fleet->primary.get(), fleet->standby.get()}) {
    const dppr::Status st = r->server->Start();
    if (!checks->Expect(st.ok(), "PprServer listens: " + st.ToString())) {
      return false;
    }
  }
  dppr::ShardedServiceOptions options;
  options.num_shards = 0;
  options.index = MakeIndexOptions();
  options.read_policy = dppr::ReadPolicy::kRoundRobinLive;
  options.max_epoch_lag = kMaxEpochLag;
  fleet->router =
      std::make_unique<ShardedPprService>(std::vector<dppr::Edge>{},
                                          inputs.num_vertices,
                                          std::vector<VertexId>{}, options);
  fleet->router->Start();
  const int slot =
      fleet->router->AddRemoteShard("127.0.0.1", fleet->primary->server->port());
  if (!checks->Expect(slot >= 0, "AddRemoteShard(primary)")) return false;
  for (VertexId hub : inputs.hubs) {
    checks->Expect(fleet->router->AddSource(hub).status == RequestStatus::kOk,
                   Fmt("AddSource(%d)", hub));
  }
  const int replica = fleet->router->AddRemoteReplica(
      slot, "127.0.0.1", fleet->standby->server->port());
  if (!checks->Expect(replica >= 0, "AddRemoteReplica(standby)")) return false;
  const QueryResponse first =
      fleet->router->Query(inputs.hubs[0], inputs.hubs[0]);
  return checks->Expect(first.status == RequestStatus::kOk && first.epoch == 1,
                        "first read after setup");
}

/// One reader's request sequence, drawn from the seed.
struct Request {
  VertexId hub;
  VertexId vertex;  ///< kInvalidVertex for a TopK
};

std::vector<Request> ReaderSequence(const Inputs& inputs, uint64_t seed,
                                    int reader, int count) {
  Rng rng(seed * 1000003 + static_cast<uint64_t>(reader));
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    Request r;
    r.hub = inputs.hubs[rng.Below(inputs.hubs.size())];
    r.vertex = rng.Below(4) == 0
                   ? dppr::kInvalidVertex
                   : static_cast<VertexId>(rng.Below(
                         static_cast<uint64_t>(inputs.num_vertices)));
    requests.push_back(r);
  }
  return requests;
}

/// What one reader saw.
struct ReaderLog {
  ReadSamples samples;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::string first_problem;
};

/// Sends one request and checks its answer; a timed read (`origin` set)
/// also records its latency and completion time.
void Read(ShardedPprService* router, const Request& request,
          uint64_t want_epoch, const Oracle& oracle, ReaderLog* log,
          const Clock::time_point* origin) {
  const Clock::time_point sent = Clock::now();
  const QueryResponse r =
      request.vertex == dppr::kInvalidVertex
          ? router->TopK(request.hub, kTopK)
          : router->Query(request.hub, request.vertex);
  if (origin != nullptr) {
    const Clock::time_point done = Clock::now();
    log->samples.latency_us.push_back(
        std::chrono::duration<double, std::micro>(done - sent).count());
    log->samples.done_s.push_back(
        std::chrono::duration<double>(done - *origin).count());
  }
  if (r.status != RequestStatus::kOk) {
    ++log->failed;
    if (log->first_problem.empty()) {
      log->first_problem = dppr::RequestStatusName(r.status);
    }
    return;
  }
  const OracleColumns& column = oracle.Of(request.hub);
  bool ok = r.epoch == want_epoch;
  if (request.vertex == dppr::kInvalidVertex) {
    std::vector<VertexId> ids;
    std::vector<double> scores;
    for (const auto& e : r.topk.entries) {
      ids.push_back(e.id);
      scores.push_back(e.score);
    }
    ok = ok && ValidTopK(ids, scores, column.forward, column.forward_order,
                         kTopK, kEps);
  } else {
    ok = ok && std::abs(r.estimate.value -
                        column.forward[static_cast<size_t>(request.vertex)]) <=
                   kEps + 1e-12;
  }
  if (!ok) {
    ++log->wrong;
    if (log->first_problem.empty()) {
      log->first_problem = Fmt("hub %d vertex %d epoch %llu", request.hub,
                               request.vertex,
                               static_cast<unsigned long long>(r.epoch));
    }
  }
}

}  // namespace

WorkloadResult RunReads(const RunConfig& config, const Inputs& inputs,
                        Checks* checks) {
  const int batches = static_cast<int>(inputs.batches.size());
  const Oracle oracle = BuildOracle(inputs, batches, kAlpha);
  WorkloadResult result;
  result.feed_batches = batches;

  // Set up kSetups times for a steady setup_s; the last fleet is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    fleet = std::make_unique<Fleet>();
    const Clock::time_point t0 = Clock::now();
    if (!BuildFleet(inputs, fleet.get(), checks)) return result;
    setup_s.push_back(SecondsSince(t0));
  }
  ShardedPprService* router = fleet->router.get();

  // The replicated feed: the router fans each batch out to both replicas
  // over the wire and acknowledges once both applied it.
  std::vector<double> batch_ms, batch_work, batch_s;
  Clock::time_point t0 = Clock::now();
  for (int b = 0; b < batches; ++b) {
    ScopedSpan span("reads.batch", static_cast<uint64_t>(b));
    const Clock::time_point submit = Clock::now();
    const dppr::MaintResponse ack = router->ApplyUpdates(inputs.batches[b]);
    const double seconds = SecondsSince(submit);
    batch_ms.push_back(seconds * 1e3);
    batch_s.push_back(seconds);
    batch_work.push_back(static_cast<double>(inputs.batches[b].size()));
    if (ack.status != RequestStatus::kOk) {
      checks->Failed(Fmt("batch %d: %s", b, dppr::RequestStatusName(ack.status)));
    }
  }
  const double feed_s = SecondsSince(t0);
  checks->Attempted(batches);

  const auto want_epoch = static_cast<uint64_t>(1 + batches);
  const int per_reader = std::max(
      1, static_cast<int>(std::lround(config.seconds * kReadsPerReaderPerSecond)));
  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::vector<Request>> warmup(kReaders), timed(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    warmup[static_cast<size_t>(r)] =
        ReaderSequence(inputs, config.seed + 7919, r, kWarmupReads);
    timed[static_cast<size_t>(r)] =
        ReaderSequence(inputs, config.seed, r, per_reader);
    logs[static_cast<size_t>(r)].samples.latency_us.reserve(
        static_cast<size_t>(per_reader));
    logs[static_cast<size_t>(r)].samples.done_s.reserve(
        static_cast<size_t>(per_reader));
  }
  for (int r = 0; r < kReaders; ++r) {
    for (const Request& request : warmup[static_cast<size_t>(r)]) {
      Read(router, request, want_epoch, oracle, &logs[static_cast<size_t>(r)],
           nullptr);
    }
  }
  const double cpu0 = ProcessCpuSeconds();
  t0 = Clock::now();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLog* log = &logs[static_cast<size_t>(r)];
      for (const Request& request : timed[static_cast<size_t>(r)]) {
        ScopedSpan span("reads.read");
        Read(router, request, want_epoch, oracle, log, &t0);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  const double reads_s = SecondsSince(t0);
  const double reads_cpu_s = ProcessCpuSeconds() - cpu0;

  std::vector<const ReadSamples*> samples;
  for (const ReaderLog& log : logs) samples.push_back(&log.samples);
  const ReadSamples merged = MergeByCompletion(samples);
  const std::vector<double>& read_us = merged.latency_us;
  const std::vector<double>& done_s = merged.done_s;
  for (const ReaderLog& log : logs) {
    for (int64_t i = 0; i < log.failed; ++i) {
      checks->Failed("read: " + log.first_problem);
    }
    checks->Expect(log.wrong == 0,
                   Fmt("%lld read answers off the oracle (first: %s)",
                       static_cast<long long>(log.wrong),
                       log.first_problem.c_str()));
  }
  checks->Attempted(static_cast<int64_t>(kReaders) * per_reader);
  const dppr::RouterReport report = router->Report();
  checks->Expect(report.standby_reads > 0 && report.primary_reads > 0,
                 "round-robin reads reach both replicas");
  fleet.reset();

  const auto reads = static_cast<double>(read_us.size());
  result.metrics["setup_s"] = {Median(setup_s), "s"};
  result.metrics["edges_per_s"] = {WindowedThroughput(batch_work, batch_s),
                                   "1/s"};
  result.metrics["batch_p50_ms"] = {WindowedPercentile(batch_ms, 50), "ms"};
  result.metrics["reads_per_s"] = {WindowedRate(done_s), "1/s"};
  result.metrics["read_p50_us"] = {WindowedPercentile(read_us, 50), "us"};
  result.metrics["cpu_us_per_op"] = {reads_cpu_s * 1e6 / reads, "us"};
  result.notes.push_back(Fmt("tails (printed, not reported): batch_p99_ms=%.4f "
                             "read_p99_us=%.2f",
                             WindowedPercentile(batch_ms, 99),
                             WindowedPercentile(read_us, 99)));
  result.notes.push_back(Fmt(
      "reads: %d batches fed in %.2f s, then %d readers x %d reads in %.2f s; "
      "samples: read=%zu batch=%zu setup=%zu",
      batches, feed_s, kReaders, per_reader, reads_s, read_us.size(),
      batch_ms.size(), setup_s.size()));
  // The feed is idle while the readers run.
  result.layer_metrics["server.reads_during_maintenance_pct"] = {0.0, "%"};
  result.layer_metrics["router.update_retries"] = {
      static_cast<double>(report.update_retries), "count"};
  result.layer_metrics["router.reroutes"] = {
      static_cast<double>(report.reroutes), "count"};
  return result;
}

}  // namespace perfbench
