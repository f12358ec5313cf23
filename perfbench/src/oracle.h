// The benchmark's own power-iteration oracle, written apart from
// src/analysis so that a fault shared with the program's helpers cannot
// hide. It runs on a graph rebuilt from the stream window with
// DynamicGraph::FromEdges, never on the incrementally mutated graph.
//
// Both quantities the program serves are fixed points of one operator,
//
//   x(v) = b(v) + (1 - alpha) / dout(v) * sum_{w in out(v)} x(w)
//   x(v) = b(v)                                   (dout(v) == 0)
//
// with b = base * [v == root]:
//  * forward, the PprIndex vector of source s (paper Eq. 2 with r = 0):
//    root = s, base = alpha;
//  * reverse, pi_s(t) for every source s into target t (the estimator's
//    column, dangling walks absorbed): root = t, base = alpha when
//    dout(t) > 0 and 1 otherwise.
// The operator contracts by (1 - alpha) in the sup norm, so iterating
// until a step moves no entry by more than `tol` leaves an error below
// tol / alpha.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "inputs.h"

namespace perfbench {

struct OracleColumns {
  std::vector<double> forward;  ///< served PprIndex vector of `root`
  std::vector<double> reverse;  ///< pi_s(root) for every source s
  /// Vertices by descending forward value (ties by id), the first
  /// kTopDepth of them — what a top-k answer is judged against.
  std::vector<dppr::VertexId> forward_order;
};

inline constexpr int kTopDepth = 64;

/// Solves both columns of `root` on `g` (alpha as the program uses).
OracleColumns SolveColumns(const dppr::DynamicGraph& g, dppr::VertexId root,
                           double alpha, double tol = 1e-13);

/// Oracle columns of every hub on the window after `applied` batches.
struct Oracle {
  std::vector<dppr::VertexId> hubs;
  std::vector<OracleColumns> columns;  ///< aligned with hubs
  uint64_t graph_checksum = 0;         ///< of the rebuilt window graph

  const OracleColumns& Of(dppr::VertexId hub) const;
};

Oracle BuildOracle(const Inputs& inputs, int applied, double alpha);

/// Largest |estimate - exact| over every vertex (sizes must agree).
double MaxAbsError(const std::vector<double>& estimate,
                   const std::vector<double>& exact);

/// True when `entries` (vertex ids, best first) is a valid top-k (k <
/// kTopDepth) of `exact` under a per-entry error of eps: k distinct
/// vertices sorted by served score, each score within eps of its exact
/// value, and no vertex left out beats a returned one by more than 2 eps.
/// `order` is the column's forward_order (the reverse column is a positive
/// multiple of the forward one, so it shares the order).
bool ValidTopK(const std::vector<dppr::VertexId>& entries,
               const std::vector<double>& scores,
               const std::vector<double>& exact,
               const std::vector<dppr::VertexId>& order, int k, double eps);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
