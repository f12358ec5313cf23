// Seeded input generation. Everything a workload feeds the program is
// derived here from --seed alone; the program receives only the
// generated edges, batches and hub ids, never the seed.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace perfbench {

/// The make-up of the inputs (README "Inputs" documents each value). The
/// graph is fixed — the repository's pokec-sim stand-in — and the seed
/// draws its edges' arrival order (the paper's random timestamps, §5.1),
/// hence the window, the batches and the hubs, plus every request the
/// readers send.
struct InputSpec {
  const char* dataset = "pokec";  ///< R-MAT stand-in, avg degree 19.1
  int scale_shift = -2;           ///< 2^(13 + 2) = 32,768 vertices
  double window_fraction = 0.1;   ///< paper §5.1: first 10% of the stream
  int slide_edges = 2;  ///< k: a batch deletes k and inserts k edges
  int batches = 600;    ///< batches in the feed (set from --seconds)
  int hubs = 16;        ///< forward sources == reverse targets
};

struct Inputs {
  InputSpec spec;
  dppr::VertexId num_vertices = 0;
  std::vector<dppr::Edge> stream;   ///< random-permutation edge arrivals
  int64_t window_edges = 0;         ///< W: edges inside the window
  std::vector<dppr::Edge> initial;  ///< stream[0, W)
  std::vector<dppr::UpdateBatch> batches;
  std::vector<dppr::VertexId> hubs;

  /// The window after the first `applied` batches: stream[a*k, W + a*k).
  std::vector<dppr::Edge> WindowAfter(int applied) const;
  int64_t EdgeUpdates(int applied) const {
    return 2LL * spec.slide_edges * applied;
  }
};

Inputs MakeInputs(uint64_t seed, const InputSpec& spec = {});

/// splitmix64: the benchmark's own deterministic stream of draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
