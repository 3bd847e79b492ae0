#include "ch/node_order.h"

namespace roadnet {

int64_t CombinePriority(OrderingHeuristic heuristic,
                        const PriorityTerms& terms) {
  switch (heuristic) {
    case OrderingHeuristic::kEdgeDifferenceDeleted:
      return 2 * terms.edge_difference + terms.deleted_neighbours;
    case OrderingHeuristic::kEdgeDifference:
      return terms.edge_difference;
    case OrderingHeuristic::kDegree:
      return terms.degree;
    case OrderingHeuristic::kRandom:
      return 0;  // the contractor substitutes random priorities
  }
  return 0;
}

}  // namespace roadnet
