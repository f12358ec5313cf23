#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace perfbench {

using dppr::DynamicGraph;
using dppr::VertexId;

OracleColumns SolveColumns(const DynamicGraph& g, VertexId root, double alpha,
                           double tol) {
  const auto n = static_cast<size_t>(g.NumVertices());
  std::vector<double> x(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < 100000; ++iter) {
    double step = 0.0;
    for (size_t v = 0; v < n; ++v) {
      const auto out = g.OutNeighbors(static_cast<VertexId>(v));
      double acc = 0.0;
      if (!out.empty()) {
        for (VertexId w : out) acc += x[static_cast<size_t>(w)];
        acc *= (1.0 - alpha) / static_cast<double>(out.size());
      }
      if (static_cast<VertexId>(v) == root) acc += alpha;
      step = std::max(step, std::abs(acc - x[v]));
      next[v] = acc;
    }
    x.swap(next);
    if (step < tol) break;
  }
  OracleColumns columns;
  // The reverse column differs only in the base mass at the root, and the
  // fixed point is linear in it.
  const double scale = g.OutDegree(root) > 0 ? 1.0 : 1.0 / alpha;
  columns.reverse = x;
  if (scale != 1.0) {
    for (double& value : columns.reverse) value *= scale;
  }
  columns.forward = std::move(x);
  std::vector<VertexId> order(n);
  for (size_t v = 0; v < n; ++v) order[v] = static_cast<VertexId>(v);
  const auto depth = std::min<size_t>(kTopDepth, n);
  std::partial_sort(order.begin(), order.begin() + depth, order.end(),
                    [&](VertexId a, VertexId b) {
                      const double xa = columns.forward[static_cast<size_t>(a)];
                      const double xb = columns.forward[static_cast<size_t>(b)];
                      return xa != xb ? xa > xb : a < b;
                    });
  order.resize(depth);
  columns.forward_order = std::move(order);
  return columns;
}

const OracleColumns& Oracle::Of(VertexId hub) const {
  const auto it = std::find(hubs.begin(), hubs.end(), hub);
  DPPR_CHECK(it != hubs.end());
  return columns[static_cast<size_t>(it - hubs.begin())];
}

Oracle BuildOracle(const Inputs& inputs, int applied, double alpha) {
  const DynamicGraph g =
      DynamicGraph::FromEdges(inputs.WindowAfter(applied), inputs.num_vertices);
  Oracle oracle;
  oracle.hubs = inputs.hubs;
  oracle.graph_checksum = g.Checksum();
  oracle.columns.resize(inputs.hubs.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (size_t i = 0; i < inputs.hubs.size(); ++i) {
    oracle.columns[i] = SolveColumns(g, inputs.hubs[i], alpha);
  }
  return oracle;
}

double MaxAbsError(const std::vector<double>& estimate,
                   const std::vector<double>& exact) {
  if (estimate.size() != exact.size()) return INFINITY;
  double worst = 0.0;
  for (size_t v = 0; v < exact.size(); ++v) {
    worst = std::max(worst, std::abs(estimate[v] - exact[v]));
  }
  return worst;
}

bool ValidTopK(const std::vector<VertexId>& entries,
               const std::vector<double>& scores,
               const std::vector<double>& exact,
               const std::vector<VertexId>& order, int k, double eps) {
  const auto n = static_cast<VertexId>(exact.size());
  if (k >= kTopDepth || entries.size() != scores.size() ||
      entries.size() != static_cast<size_t>(std::min<VertexId>(k, n))) {
    return false;
  }
  const double slack = eps + 1e-12;
  double weakest = INFINITY;
  for (size_t i = 0; i < entries.size(); ++i) {
    const VertexId v = entries[i];
    if (v < 0 || v >= n) return false;
    if (std::find(entries.begin(), entries.begin() + static_cast<long>(i),
                  v) != entries.begin() + static_cast<long>(i)) {
      return false;
    }
    if (i > 0 && scores[i] > scores[i - 1]) return false;
    if (std::abs(scores[i] - exact[static_cast<size_t>(v)]) > slack) {
      return false;
    }
    weakest = std::min(weakest, exact[static_cast<size_t>(v)]);
  }
  // The best vertex left out is among the first k+1 of the exact order.
  for (VertexId v : order) {
    if (std::find(entries.begin(), entries.end(), v) != entries.end()) {
      continue;
    }
    return exact[static_cast<size_t>(v)] <= weakest + 2 * slack;
  }
  return true;
}

}  // namespace perfbench
