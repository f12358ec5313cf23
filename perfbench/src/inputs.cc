#include "inputs.h"

#include "gen/datasets.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"
#include "util/macros.h"

namespace perfbench {
namespace {

/// Seed of the fixed arrival order of the initial window's edges.
constexpr uint64_t kWindowOrderSeed = 17;

}  // namespace

using dppr::Edge;
using dppr::VertexId;

std::vector<Edge> Inputs::WindowAfter(int applied) const {
  const int64_t lo = static_cast<int64_t>(applied) * spec.slide_edges;
  return {stream.begin() + lo, stream.begin() + lo + window_edges};
}

Inputs MakeInputs(uint64_t seed, const InputSpec& spec) {
  dppr::DatasetSpec dataset;
  DPPR_CHECK(dppr::FindDataset(spec.dataset, &dataset).ok());
  Rng rng(seed);
  std::vector<Edge> edges = dppr::GenerateDataset(dataset, spec.scale_shift);
  // Hubs: the highest out-degree vertices of the whole dataset, the same
  // for every seed.
  const std::vector<VertexId> hubs = dppr::TopOutDegreeVertices(
      dppr::DynamicGraph::FromEdges(edges), spec.hubs);
  // One fixed arrival order forms the initial window; the seed shuffles
  // the arrivals after it. Every seed thus starts from the same window
  // (its structure would otherwise dominate the spread between seeds) and
  // feeds its own sequence of insertions.
  const dppr::EdgeStream fixed =
      dppr::EdgeStream::RandomPermutation(std::move(edges), kWindowOrderSeed);
  std::vector<Edge> order = fixed.Slice(0, fixed.Size());
  const auto window_size = static_cast<size_t>(
      spec.window_fraction * static_cast<double>(order.size()));
  for (size_t i = order.size() - 1; i > window_size; --i) {
    const size_t j = window_size + static_cast<size_t>(rng.Below(i - window_size + 1));
    std::swap(order[i], order[j]);
  }
  dppr::EdgeStream stream = dppr::EdgeStream::FromOrdered(std::move(order));

  Inputs inputs;
  inputs.spec = spec;
  inputs.num_vertices = stream.NumVertices();
  dppr::SlidingWindow window(&stream, spec.window_fraction);
  inputs.window_edges = window.WindowSize();
  inputs.initial = window.InitialEdges();
  DPPR_CHECK_MSG(window.RemainingSlides(spec.slide_edges) >= spec.batches,
                 "stream too short for the configured feed");
  for (int b = 0; b < spec.batches; ++b) {
    inputs.batches.push_back(window.NextBatch(spec.slide_edges));
  }
  inputs.stream = stream.Slice(0, stream.Size());
  inputs.hubs = hubs;
  return inputs;
}

}  // namespace perfbench
