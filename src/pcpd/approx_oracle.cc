#include "pcpd/approx_oracle.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"
#include "spatial/unique_morton.h"
#include "util/bytes.h"

namespace roadnet {

using pcpd::BlockId;
using pcpd::BlockRange;
using pcpd::FindBlockRange;
using pcpd::PairKey;

namespace {
constexpr uint32_t kUnreachable = 0xffffffffu;
}  // namespace

ApproxDistanceOracle::ApproxDistanceOracle(const Graph& g, double epsilon)
    : graph_(g), epsilon_(epsilon) {
  const uint32_t n = g.NumVertices();
  root_level_ = BuildUniqueMortonCodes(g, &code_of_, &sorted_, &sorted_codes_);

  // All-pairs matrix: one SSSP per source (the same cost profile as the
  // exact PCPD preprocessing it derives from).
  matrix_.assign(static_cast<size_t>(n) * n, kUnreachable);
  Dijkstra dijkstra(g);
  for (VertexId s = 0; s < n; ++s) {
    dijkstra.RunAll(s);
    uint32_t* row = matrix_.data() + static_cast<size_t>(s) * n;
    for (VertexId t = 0; t < n; ++t) {
      const Distance d = dijkstra.DistanceTo(t);
      if (d != kInfDistance) row[t] = static_cast<uint32_t>(d);
    }
  }

  Refine(0, 0, root_level_);

  matrix_.clear();
  matrix_.shrink_to_fit();
}

Distance ApproxDistanceOracle::MatrixDistance(VertexId s, VertexId t) const {
  const uint32_t raw = matrix_[static_cast<size_t>(s) * graph_.NumVertices() + t];
  return raw == kUnreachable ? kInfDistance : raw;
}

void ApproxDistanceOracle::Refine(uint64_t base_x, uint64_t base_y,
                                  uint32_t level) {
  const BlockRange rx = FindBlockRange(sorted_codes_, base_x, level);
  const BlockRange ry = FindBlockRange(sorted_codes_, base_y, level);
  if (rx.Empty() || ry.Empty()) return;
  if (base_x == base_y && rx.Size() == 1) return;  // same single vertex

  // Metric acceptance test with early exit once the spread is too wide.
  Distance dmin = kInfDistance;
  Distance dmax = 0;
  bool any_unreachable = false;
  bool spread_ok = true;
  for (uint32_t i = rx.lo; i < rx.hi && spread_ok; ++i) {
    const VertexId x = sorted_[i];
    for (uint32_t j = ry.lo; j < ry.hi; ++j) {
      const VertexId y = sorted_[j];
      if (x == y) {
        // Blocks overlap only when identical; a same-vertex pair forces a
        // zero distance the spread test can never absorb.
        spread_ok = false;
        break;
      }
      const Distance d = MatrixDistance(x, y);
      if (d == kInfDistance) {
        any_unreachable = true;
        if (dmax > 0) {
          spread_ok = false;
          break;
        }
        continue;
      }
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
      if (any_unreachable || dmin == 0 ||
          static_cast<double>(dmax) >
              (1.0 + epsilon_) * static_cast<double>(dmin)) {
        spread_ok = false;
        break;
      }
    }
  }

  if (spread_ok) {
    Distance value;
    if (dmax == 0 && any_unreachable) {
      value = kInfDistance;  // every pair unreachable
    } else {
      value = (dmin + dmax) / 2;
    }
    pairs_.emplace(PairKey{BlockId(base_x, level), BlockId(base_y, level)},
                   value);
    return;
  }
  if (level == 0) return;  // same-vertex singleton; queries special-case it

  const uint64_t quarter = uint64_t{1} << (2 * (level - 1));
  for (int qx = 0; qx < 4; ++qx) {
    for (int qy = 0; qy < 4; ++qy) {
      Refine(base_x + quarter * qx, base_y + quarter * qy, level - 1);
    }
  }
}

Distance ApproxDistanceOracle::Query(VertexId s, VertexId t) const {
  if (s == t) return 0;
  const uint64_t cs = code_of_[s];
  const uint64_t ct = code_of_[t];
  for (uint32_t level = root_level_;; --level) {
    const uint64_t mask =
        (level >= 32) ? 0 : ~((uint64_t{1} << (2 * level)) - 1);
    const auto it = pairs_.find(
        PairKey{BlockId(cs & mask, level), BlockId(ct & mask, level)});
    if (it != pairs_.end()) return it->second;
    if (level == 0) break;
  }
  return kInfDistance;
}

size_t ApproxDistanceOracle::IndexBytes() const {
  return VectorBytes(code_of_) + VectorBytes(sorted_) +
         VectorBytes(sorted_codes_) +
         pairs_.size() * (sizeof(PairKey) + sizeof(Distance) + sizeof(void*)) +
         pairs_.bucket_count() * sizeof(void*);
}

}  // namespace roadnet
