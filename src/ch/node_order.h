#ifndef ROADNET_CH_NODE_ORDER_H_
#define ROADNET_CH_NODE_ORDER_H_

#include <cstdint>

namespace roadnet {

// Heuristic used to derive the total order on vertices (Section 3.2: "an
// inferior ordering can lead to O(n^2) shortcuts ... existing work has
// suggested several heuristic approaches"). The default mirrors the
// classic Geisberger et al. priority: edge difference plus a term for
// already-contracted neighbours (keeping contraction spatially uniform).
// The alternatives exist for the ordering ablation bench.
enum class OrderingHeuristic {
  // 2*edge_difference + deleted_neighbours (default, best).
  kEdgeDifferenceDeleted,
  // edge difference only.
  kEdgeDifference,
  // static vertex degree (cheap, poor).
  kDegree,
  // uniform random order (the paper's "inferior ordering" worst case).
  kRandom,
};

// Tuning knobs of the CH preprocessing step.
struct ChConfig {
  OrderingHeuristic heuristic = OrderingHeuristic::kEdgeDifferenceDeleted;

  // Witness searches stop after settling this many vertices. Truncation is
  // safe: it can only add redundant (never incorrect) shortcuts.
  uint32_t witness_settle_limit = 500;

  // Enables the stall-on-demand query pruning (Section 3.2). A build-time
  // option rather than a mutable setter so a constructed index stays
  // immutable and thread-safe; benches that ablate it build two indexes.
  bool stall_on_demand = true;

  // Seed for kRandom ordering.
  uint64_t seed = 1;
};

// Terms from which ordering priorities are computed for one candidate
// contraction.
struct PriorityTerms {
  // shortcuts that contraction would add minus incident edges removed.
  // 64-bit: a vertex of degree d can need d(d-1)/2 shortcuts, past 2^31
  // from about 92,700 neighbours.
  int64_t edge_difference = 0;
  // neighbours already contracted.
  int32_t deleted_neighbours = 0;
  // current degree in the overlay.
  int32_t degree = 0;
};

// Combines the terms under the chosen heuristic (higher = contract later).
// kRandom is handled by the contractor itself (priorities are drawn once).
int64_t CombinePriority(OrderingHeuristic heuristic,
                        const PriorityTerms& terms);

}  // namespace roadnet

#endif  // ROADNET_CH_NODE_ORDER_H_
