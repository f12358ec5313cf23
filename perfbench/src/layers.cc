// The traced run's layer probes.
//
// Write path: each batch of the feed a workload used (its first
// kProbeBatches) is sent through a PprService with the durable store and
// the estimator attached (the service path, timed submit -> ack), and then
// replayed through a second stack's layers one public call at a time, in
// the order the maintenance thread uses:
// DurableStore::LogBatch -> PprIndex::ApplyBatch ->
// EstimatorIndex::ApplyBatch -> DurableStore::WriteCheckpoint when due.
// The graph layer alone is timed by applying the same updates to a
// separate DynamicGraph. The counters the calls already return
// (last_batch_stats(), log_end_offset()) give the work counts.
//
// Read path: one request sequence goes through each depth of the stack,
// request by request: the index snapshot, the PprService in front of it,
// a router with a local backend, and a router over loopback TCP to a
// PprServer. A layer's self time is the median over requests of the
// difference between a request's latencies at adjacent depths.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common.h"
#include "estimator/estimator_index.h"
#include "graph/dynamic_graph.h"
#include "net/ppr_server.h"
#include "net/wire.h"
#include "oracle.h"
#include "router/sharded_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using dppr::QueryResponse;
using dppr::RequestStatus;
using dppr::VertexId;

constexpr int kWorkers = 2;
/// The write probe replays at most this many batches of the feed: enough
/// for per-batch means, and it bounds the traced run's length.
constexpr int kProbeBatches = 1000;
constexpr int kProbeReads = 4000;   ///< requests sent through every depth
constexpr int kProbeWarmup = 400;   ///< untimed, through every depth
constexpr int kEstimatorReads = 3000;

void Put(WorkloadResult* out, const char* name, double value,
         const char* unit) {
  out->layer_metrics[name] = {value, unit};
}

void MeasureWritePath(const RunConfig& config, const Inputs& inputs,
                      int batches, Checks* checks, WorkloadResult* out) {
  const std::vector<dppr::UpdateBatch> feed(inputs.batches.begin(),
                                            inputs.batches.begin() + batches);
  const double edge_updates = static_cast<double>(inputs.EdgeUpdates(batches));

  // Service path: the same stack the ingest workload's shard runs.
  const std::string service_dir = config.scratch_dir + "/probe-service";
  ResetDir(service_dir);
  dppr::DynamicGraph service_graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::PprIndex service_index(&service_graph, inputs.hubs, MakeIndexOptions());
  service_index.Initialize();
  dppr::storage::DurableStore service_store(service_dir,
                                            MakeDurability(batches));
  checks->Expect(service_store.Open().ok() &&
                     service_store.WriteCheckpoint(service_index).ok(),
                 "probe store opens and takes its baseline checkpoint");
  dppr::PprService service(&service_index,
                           MakeServiceOptions(kWorkers, kWalkSeed));
  service.AttachDurableStore(&service_store);
  service.Start();
  for (VertexId hub : inputs.hubs) {
    checks->Expect(
        service.AddTargetAsync(hub).get().status == RequestStatus::kOk,
        Fmt("probe AddTarget(%d)", hub));
  }

  // Layer by layer, over a stack of its own.
  const std::string dir = config.scratch_dir + "/probe-replay";
  ResetDir(dir);
  dppr::DynamicGraph graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::DynamicGraph graph_alone =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::PprIndex index(&graph, inputs.hubs, MakeIndexOptions());
  index.Initialize();
  dppr::EstimatorOptions estimator_options =
      MakeServiceOptions(kWorkers, kWalkSeed).estimator;
  estimator_options.alpha = kAlpha;
  dppr::EstimatorIndex estimator(graph, estimator_options);
  for (VertexId hub : inputs.hubs) estimator.AddTarget(hub);
  dppr::storage::DurableStore store(dir, MakeDurability(batches));
  checks->Expect(store.Open().ok() && store.WriteCheckpoint(index).ok(),
                 "replay store opens and takes its baseline checkpoint");

  dppr::PushCounters counters;
  double restore_s = 0, push_s = 0;
  const uint64_t log_start = store.log_end_offset();
  for (int b = 0; b < batches; ++b) {
    const dppr::UpdateBatch& batch = feed[static_cast<size_t>(b)];
    // Each batch goes through the service, then through the layers, so
    // both passes see the machine in the same state.
    {
      ScopedSpan span("service.batch", static_cast<uint64_t>(b));
      checks->Expect(
          service.ApplyUpdatesAsync(batch).get().status == RequestStatus::kOk,
          "probe service batch");
    }
    {
      ScopedSpan span("write.batch", static_cast<uint64_t>(b));
      {
        ScopedSpan log_span("storage.LogBatch", static_cast<uint64_t>(b));
        checks->Expect(store.LogBatch(batch, 1).ok(), "LogBatch");
      }
      {
        ScopedSpan apply_span("index.ApplyBatch", static_cast<uint64_t>(b));
        index.ApplyBatch(batch, 1);
      }
      {
        ScopedSpan est_span("estimator.ApplyBatch", static_cast<uint64_t>(b));
        estimator.ApplyBatch(batch, 1);
      }
      if (store.ShouldCheckpoint()) {
        ScopedSpan ckpt_span("storage.WriteCheckpoint",
                             static_cast<uint64_t>(b));
        checks->Expect(store.WriteCheckpoint(index).ok(), "WriteCheckpoint");
      }
    }
    const dppr::IndexBatchStats& stats = index.last_batch_stats();
    counters.Add(stats.sources_total.counters);
    restore_s += stats.restore_wall_seconds;
    push_s += stats.push_wall_seconds;
    ScopedSpan graph_span("graph.Apply", static_cast<uint64_t>(b));
    for (const dppr::EdgeUpdate& update : batch) graph_alone.Apply(update);
  }
  const double log_bytes = static_cast<double>(store.log_end_offset() - log_start);
  service.Stop();
  RemoveDir(service_dir);

  // The replayed state answers like the served one: check it, then time
  // the estimator's reads on it.
  const Oracle oracle = BuildOracle(inputs, batches, kAlpha);
  checks->Expect(graph.Checksum() == oracle.graph_checksum &&
                     graph_alone.Checksum() == oracle.graph_checksum,
                 "replayed graphs equal the rebuilt window");
  for (VertexId hub : inputs.hubs) {
    const auto snapshot = index.SnapshotForSource(hub);
    checks->Expect(snapshot != nullptr &&
                       MaxAbsError(snapshot->estimates,
                                   oracle.Of(hub).forward) <= kEps + 1e-12,
                   Fmt("replayed hub %d off the oracle", hub));
  }
  Rng rng(config.seed ^ 0xE571ULL);
  const double est_eps = estimator_options.eps;
  for (int i = 0; i < kEstimatorReads; ++i) {
    const VertexId t = inputs.hubs[rng.Below(inputs.hubs.size())];
    const auto s = static_cast<VertexId>(
        rng.Below(static_cast<uint64_t>(inputs.num_vertices)));
    const double exact = oracle.Of(t).reverse[static_cast<size_t>(s)];
    const int kind = i % 3;
    dppr::ReverseTopKResult top;
    dppr::PairResult pair;
    {
      ScopedSpan span("estimator.read", static_cast<uint64_t>(i));
      if (kind == 0) {
        top = estimator.ReverseTopK(t, kTopK);
      } else {
        pair = kind == 1 ? estimator.QueryPair(s, t) : estimator.HybridPair(s, t);
      }
    }
    if (kind == 0) {
      checks->Expect(top.known, "ReverseTopK of a registered target");
    } else if (kind == 1) {
      checks->Expect(std::abs(pair.estimate.value - exact) <= est_eps + 1e-12,
                     "replayed pair estimate within eps of the oracle");
    } else {
      checks->Expect(pair.estimate.lower <= exact + 1e-12 &&
                         exact <= pair.estimate.upper + 1e-12,
                     "replayed hybrid interval holds the oracle");
    }
  }
  RemoveDir(dir);

  const auto totals = trace::Totals();
  auto mean_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.MeanMs();
  };
  auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double n = batches;
  Put(out, "core.push_ops_per_edge",
      static_cast<double>(counters.push_ops) / edge_updates, "count");
  Put(out, "core.edge_traversals_per_edge",
      static_cast<double>(counters.edge_traversals) / edge_updates, "count");
  Put(out, "core.restore_ops_per_edge",
      static_cast<double>(counters.restore_ops) / edge_updates, "count");
  Put(out, "core.rounds_per_batch",
      static_cast<double>(counters.iterations) / n, "count");
  Put(out, "core.dense_rounds_per_batch",
      static_cast<double>(counters.dense_rounds) / n, "count");
  Put(out, "core.push_ms_per_batch", push_s * 1e3 / n, "ms");
  Put(out, "core.restore_ms_per_batch", restore_s * 1e3 / n, "ms");
  Put(out, "graph.apply_us_per_batch", mean_ms("graph.Apply") * 1e3, "us");
  Put(out, "index.apply_ms_per_batch", mean_ms("index.ApplyBatch"), "ms");
  Put(out, "storage.log_ms_per_batch", mean_ms("storage.LogBatch"), "ms");
  Put(out, "storage.log_bytes_per_edge", log_bytes / edge_updates, "bytes");
  Put(out, "storage.checkpoint_ms", mean_ms("storage.WriteCheckpoint"), "ms");
  Put(out, "storage.checkpoints", count("storage.WriteCheckpoint"), "count");
  Put(out, "estimator.apply_ms_per_batch", mean_ms("estimator.ApplyBatch"),
      "ms");
  Put(out, "estimator.read_us", mean_ms("estimator.read") * 1e3, "us");
  const double step_ms = mean_ms("write.batch");
  Put(out, "server.batch_overhead_ms", mean_ms("service.batch") - step_ms,
      "ms");

  // How the layer times add up (README, "How the self times add up"): the
  // replay step's self time is what its layer spans leave uncovered.
  const auto step = totals.find("write.batch");
  const double unaccounted_ms =
      step == totals.end() || step->second.count == 0
          ? 0.0
          : static_cast<double>(step->second.self_ns) / step->second.count / 1e6;
  const double layers_ms = step_ms - unaccounted_ms;
  const double index_parts_ms = mean_ms("graph.Apply") + (restore_s + push_s) *
                                                             1e3 / n;
  out->notes.push_back(Fmt(
      "write path per batch: service %.4f ms = replay step %.4f ms + "
      "server overhead; replay step = layers %.4f ms + unaccounted %.4f ms "
      "(%.2f%%); index %.4f ms vs graph + restore + push %.4f ms (%.2f%% "
      "apart)",
      mean_ms("service.batch"), step_ms, layers_ms, unaccounted_ms,
      step_ms > 0 ? 100.0 * unaccounted_ms / step_ms : 0.0,
      mean_ms("index.ApplyBatch"), index_parts_ms,
      mean_ms("index.ApplyBatch") > 0
          ? 100.0 * (mean_ms("index.ApplyBatch") - index_parts_ms) /
                mean_ms("index.ApplyBatch")
          : 0.0));
}

void MeasureReadPath(const RunConfig& config, const Inputs& inputs,
                     Checks* checks, WorkloadResult* out) {
  dppr::DynamicGraph graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::PprIndex index(&graph, {}, MakeIndexOptions());
  index.Initialize();
  dppr::PprService service(&index, MakeServiceOptions(kWorkers, 0));
  service.Start();
  dppr::net::PprServerOptions server_options;
  server_options.num_handlers = kWorkers;
  dppr::net::PprServer server(&service, server_options);
  checks->Expect(server.Start().ok(), "probe PprServer listens");

  dppr::ShardedServiceOptions remote_options;
  remote_options.num_shards = 0;
  remote_options.index = MakeIndexOptions();
  dppr::ShardedPprService remote({}, inputs.num_vertices, {}, remote_options);
  remote.Start();
  checks->Expect(remote.AddRemoteShard("127.0.0.1", server.port()) >= 0,
                 "probe AddRemoteShard");
  for (VertexId hub : inputs.hubs) {
    checks->Expect(remote.AddSource(hub).status == RequestStatus::kOk,
                   Fmt("probe AddSource(%d)", hub));
  }
  dppr::ShardedServiceOptions local_options;
  local_options.num_shards = 1;
  local_options.index = MakeIndexOptions();
  local_options.service = MakeServiceOptions(kWorkers, 0);
  dppr::ShardedPprService local(inputs.initial, inputs.num_vertices,
                                inputs.hubs, local_options);
  local.Start();

  const Oracle oracle = BuildOracle(inputs, 0, kAlpha);
  constexpr int kDepths = 4;
  const char* const kSpanNames[kDepths] = {"read.index", "read.server",
                                          "read.router_local",
                                          "read.router_loopback"};
  auto call = [&](int depth, VertexId s, VertexId v) {
    const bool topk = v == dppr::kInvalidVertex;
    QueryResponse r;
    switch (depth) {
      case 0: {
        const dppr::SourceReadResult read =
            topk ? index.TopKForSource(s, kTopK)
                 : index.QueryVertexForSource(s, v);
        r.status = read.status == dppr::SourceReadResult::Status::kOk
                       ? RequestStatus::kOk
                       : RequestStatus::kUnknownSource;
        r.epoch = read.epoch;
        r.estimate = read.estimate;
        r.topk = read.topk;
        break;
      }
      case 1:
        r = topk ? service.TopK(s, kTopK) : service.Query(s, v);
        break;
      case 2:
        r = topk ? local.TopK(s, kTopK) : local.Query(s, v);
        break;
      default:
        r = topk ? remote.TopK(s, kTopK) : remote.Query(s, v);
        break;
    }
    return r;
  };

  Rng rng(config.seed ^ 0x9E4D5ULL);
  std::vector<double> latency_us[kDepths];
  double request_bytes = 0, response_bytes = 0;
  int64_t wrong = 0;
  std::string payload;
  for (int i = 0; i < kProbeWarmup + kProbeReads; ++i) {
    const VertexId s = inputs.hubs[rng.Below(inputs.hubs.size())];
    const VertexId v =
        rng.Below(4) == 0
            ? dppr::kInvalidVertex
            : static_cast<VertexId>(
                  rng.Below(static_cast<uint64_t>(inputs.num_vertices)));
    const bool timed = i >= kProbeWarmup;
    for (int depth = 0; depth < kDepths; ++depth) {
      const int64_t span =
          timed ? trace::Begin(kSpanNames[depth], static_cast<uint64_t>(i)) : -1;
      const Clock::time_point sent = Clock::now();
      const QueryResponse r = call(depth, s, v);
      const double us = SecondsSince(sent) * 1e6;
      trace::End(span);
      if (!timed) continue;
      latency_us[depth].push_back(us);
      const OracleColumns& column = oracle.Of(s);
      bool ok = r.status == RequestStatus::kOk && r.epoch == 1;
      if (v == dppr::kInvalidVertex) {
        std::vector<VertexId> ids;
        std::vector<double> scores;
        for (const auto& e : r.topk.entries) {
          ids.push_back(e.id);
          scores.push_back(e.score);
        }
        ok = ok && ValidTopK(ids, scores, column.forward,
                             column.forward_order, kTopK, kEps);
      } else {
        ok = ok && std::abs(r.estimate.value -
                            column.forward[static_cast<size_t>(v)]) <=
                       kEps + 1e-12;
      }
      if (!ok) ++wrong;
      if (depth == kDepths - 1) {
        // Bytes on the wire for this request and its answer.
        payload.clear();
        if (v == dppr::kInvalidVertex) {
          dppr::net::TopKRequest request;
          request.source = s;
          request.k = kTopK;
          dppr::net::EncodeTopKRequest(request, &payload);
        } else {
          dppr::net::QueryVertexRequest request;
          request.source = s;
          request.vertex = v;
          dppr::net::EncodeQueryVertexRequest(request, &payload);
        }
        request_bytes += static_cast<double>(dppr::net::kFrameHeaderBytes +
                                             payload.size());
        payload.clear();
        dppr::net::EncodeQueryResponse(r, &payload);
        response_bytes += static_cast<double>(dppr::net::kFrameHeaderBytes +
                                              payload.size());
      }
    }
  }
  checks->Expect(wrong == 0, Fmt("%lld probe answers off the oracle",
                                 static_cast<long long>(wrong)));
  checks->Attempted(static_cast<int64_t>(kDepths) * (kProbeWarmup + kProbeReads));

  // A layer's self time: the median over requests of the difference
  // between one request's latency at its depth and at the depth below.
  double median_us[kDepths];
  double self_us[kDepths];
  for (int d = 0; d < kDepths; ++d) {
    median_us[d] = Median(latency_us[d]);
    std::vector<double> diff = latency_us[d];
    if (d > 0) {
      for (size_t i = 0; i < diff.size(); ++i) diff[i] -= latency_us[d - 1][i];
    }
    self_us[d] = Median(diff);
  }
  Put(out, "index.read_us", self_us[0], "us");
  Put(out, "server.read_us", self_us[1], "us");
  Put(out, "router.read_us", self_us[2], "us");
  Put(out, "net.read_us", self_us[3], "us");
  Put(out, "net.request_bytes_per_read", request_bytes / kProbeReads, "bytes");
  Put(out, "net.response_bytes_per_read", response_bytes / kProbeReads,
      "bytes");
  const dppr::RouterReport local_report = local.Report();
  const dppr::RouterReport remote_report = remote.Report();
  auto add_count = [&](const char* name, int64_t value) {
    out->layer_metrics[name].value += static_cast<double>(value);
    out->layer_metrics[name].unit = "count";
  };
  add_count("router.update_retries",
            local_report.update_retries + remote_report.update_retries);
  add_count("router.reroutes", local_report.reroutes + remote_report.reroutes);
  const double self_sum = self_us[0] + self_us[1] + self_us[2] + self_us[3];
  out->notes.push_back(Fmt(
      "read path, median per depth over %d requests: index %.2f us, "
      "service %.2f us, router+local %.2f us, router+loopback %.2f us; "
      "self times sum to %.2f us (%.2f%% off the loopback median)",
      kProbeReads, median_us[0], median_us[1], median_us[2], median_us[3],
      self_sum, 100.0 * (self_sum - median_us[3]) / median_us[3]));
  remote.Stop();
  local.Stop();
  server.Stop();
  service.Stop();
}

}  // namespace

void MeasureLayers(const RunConfig& config, const Inputs& inputs,
                   int feed_batches, Checks* checks, WorkloadResult* out) {
  MeasureWritePath(config, inputs, std::min(feed_batches, kProbeBatches),
                   checks, out);
  MeasureReadPath(config, inputs, checks, out);
}

}  // namespace perfbench
