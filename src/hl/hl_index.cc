#include "hl/hl_index.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "io/binary.h"
#include "io/crc32.h"
#include "util/bytes.h"

namespace roadnet {

namespace {

constexpr char kHlMagic[8] = {'R', 'N', 'E', 'T', 'H', 'L', 'I', 'X'};
constexpr uint32_t kHlVersion = 1;

}  // namespace

HlIndex::HlIndex(const Graph& g, const ChIndex& ch) : graph_(g), ch_(&ch) {
  BuildLabels();
}

HlIndex::HlIndex(const Graph& g, const ChIndex& ch, DeserializeTag)
    : graph_(g), ch_(&ch) {}

std::unique_ptr<HlIndex> HlIndex::BuildOwning(
    const Graph& g, std::unique_ptr<const ChIndex> ch) {
  auto index = std::make_unique<HlIndex>(g, *ch);
  index->owned_ch_ = std::move(ch);
  return index;
}

void HlIndex::BuildLabels() {
  const uint32_t n = graph_.NumVertices();

  // Labels in rank space, appended highest rank first: rank r's label is
  // by_rank[stop[r + 1], stop[r]).
  std::vector<HubEntry> by_rank;
  std::vector<uint64_t> stop(static_cast<size_t>(n) + 1, 0);
  auto rank_label = [&](uint32_t r) {
    return std::span<const HubEntry>(by_rank.data() + stop[r + 1],
                                     stop[r] - stop[r + 1]);
  };

  // cand[h]: the shortest candidate distance to hub rank h found so far
  // for the rank being labelled; `touched` lists the hubs it holds.
  std::vector<Distance> cand(n, kInfDistance);
  std::vector<uint32_t> touched;
  std::vector<HubEntry> label;
  for (uint32_t r = n; r-- > 0;) {
    // Candidates: r itself, and every finished label of an upward
    // neighbour shifted by the arc weight. Each is the length of an
    // upward path; an exact hub arrives at its exact distance through
    // the first arc of its shortest upward path.
    touched.clear();
    cand[r] = 0;
    touched.push_back(r);
    for (const ChIndex::HotArc& arc : ch_->UpwardArcs(r)) {
      for (const HubEntry& e : rank_label(arc.target)) {
        const Distance d = Distance{e.dist} + arc.weight;
        Distance& c = cand[e.hub];
        if (c == kInfDistance) touched.push_back(e.hub);
        if (d < c) c = d;
      }
    }
    // Keep a candidate only if no hub g of its own label offers a
    // shorter way to it: the apex of a shortest r-h path is a candidate
    // and an entry of L(h), both exact, so this drops exactly the
    // candidates above their true distance.
    label.clear();
    for (const uint32_t h : touched) {
      const Distance d = cand[h];
      bool exact = true;
      if (h != r) {
        for (const HubEntry& e : rank_label(h)) {
          const Distance via = cand[e.hub];
          if (via < d && via + e.dist < d) {
            exact = false;
            break;
          }
        }
      }
      if (!exact) continue;
      // Storing a longer distance would truncate it and corrupt every
      // query through this hub, so this fails in every build.
      if (d > std::numeric_limits<uint32_t>::max()) {
        std::fprintf(stderr,
                     "HlIndex: label of vertex %u holds hub %u at distance "
                     "%llu, past the 32-bit label-distance limit (%u)\n",
                     ch_->VertexAtRank(r), ch_->VertexAtRank(h),
                     static_cast<unsigned long long>(d),
                     std::numeric_limits<uint32_t>::max());
        std::abort();
      }
      label.push_back(HubEntry{h, static_cast<uint32_t>(d)});
    }
    for (const uint32_t h : touched) cand[h] = kInfDistance;
    std::sort(label.begin(), label.end(),
              [](const HubEntry& a, const HubEntry& b) {
                return a.hub < b.hub;
              });
    by_rank.insert(by_rank.end(), label.begin(), label.end());
    stop[r] = by_rank.size();
  }

  // Lay the labels out by external id, the order queries address them
  // in. An exact-size array keeps IndexBytes() (capacity-based,
  // util/bytes.h) equal to what a restored index holds.
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  labels_.reserve(by_rank.size());
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const HubEntry> l = rank_label(ch_->RankOf(v));
    labels_.insert(labels_.end(), l.begin(), l.end());
    offsets_[v + 1] = labels_.size();
  }
}

std::unique_ptr<QueryContext> HlIndex::NewContext() const {
  auto ctx = std::make_unique<Context>();
  ctx->ch_ctx = ch_->NewContext();
  return ctx;
}

Distance HlIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                VertexId t) const {
  ctx->counters.Reset();
  const std::span<const HubEntry> a = Label(s);
  const std::span<const HubEntry> b = Label(t);
  Distance best = kInfDistance;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t ha = a[i].hub;
    const uint32_t hb = b[j].hub;
    if (ha == hb) {
      const Distance d = Distance{a[i].dist} + Distance{b[j].dist};
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (ha < hb) {
      ++i;
    } else {
      ++j;
    }
  }
  ctx->counters.TableLookup(i + j);
  return best;
}

Path HlIndex::PathQuery(QueryContext* ctx, VertexId s, VertexId t) const {
  // Labels hold distances, not parents: expansion reuses the CH, whose
  // unpacking already emits original-graph vertices. The counters and
  // the distance are the CH query's — that is the work this query did.
  Context* hl_ctx = static_cast<Context*>(ctx);
  Path path = ch_->PathQuery(hl_ctx->ch_ctx.get(), s, t);
  hl_ctx->counters = hl_ctx->ch_ctx->counters;
  hl_ctx->path_distance = hl_ctx->ch_ctx->path_distance;
  return path;
}

size_t HlIndex::IndexBytes() const {
  size_t bytes = LabelBytes();
  if (owned_ch_ != nullptr) bytes += owned_ch_->IndexBytes();
  return bytes;
}

size_t HlIndex::LabelBytes() const {
  return VectorBytes(offsets_) + VectorBytes(labels_);
}

size_t HlIndex::MaxLabelEntries() const {
  size_t max_entries = 0;
  for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
    max_entries = std::max<size_t>(max_entries, offsets_[v + 1] - offsets_[v]);
  }
  return max_entries;
}

void HlIndex::Serialize(std::ostream& out) const {
  WriteMagic(out, kHlMagic);
  WriteScalar<uint32_t>(out, kHlVersion);
  std::ostringstream payload;
  WriteScalar<uint32_t>(payload, graph_.NumVertices());
  WriteVector(payload, offsets_);
  WriteVector(payload, labels_);
  WriteChecksummedPayload(out, payload.view());
}

std::unique_ptr<HlIndex> HlIndex::Deserialize(const Graph& g,
                                              const ChIndex& ch,
                                              std::istream& in,
                                              std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (!CheckMagic(in, kHlMagic)) return fail("hl: bad magic");
  uint32_t version = 0;
  if (!ReadScalar(in, &version) || version != kHlVersion) {
    return fail("hl: unsupported version (re-run preprocess with this build)");
  }
  std::string buffer;
  if (!ReadChecksummedPayload(in, &buffer, "hl", error)) return nullptr;
  std::istringstream body(buffer);
  uint32_t n = 0;
  if (!ReadScalar(body, &n) || n != g.NumVertices()) {
    return fail("hl: vertex count does not match the graph");
  }
  std::unique_ptr<HlIndex> index(new HlIndex(g, ch, DeserializeTag{}));
  if (!ReadVector(body, &index->offsets_) ||
      index->offsets_.size() != static_cast<size_t>(n) + 1) {
    return fail("hl: bad offset block");
  }
  if (!ReadVector(body, &index->labels_) ||
      (n == 0 && !index->labels_.empty())) {
    return fail("hl: bad label block");
  }
  // Structural validation so corrupted input cannot cause out-of-range
  // indexing or wrong merges at query time: offsets form a CSR over the
  // label array, every label is strictly rank-sorted with in-range
  // hubs, and every vertex's label contains the vertex itself at
  // distance 0 (the invariant the merge relies on for s == t).
  if (n > 0 && index->offsets_[0] != 0) return fail("hl: bad offset block");
  for (uint32_t v = 0; v < n; ++v) {
    if (index->offsets_[v + 1] < index->offsets_[v] ||
        index->offsets_[v + 1] > index->labels_.size()) {
      return fail("hl: offsets are not monotone");
    }
  }
  if (n > 0 && index->offsets_[n] != index->labels_.size()) {
    return fail("hl: offsets do not cover the label block");
  }
  for (uint32_t v = 0; v < n; ++v) {
    const std::span<const HubEntry> label = index->Label(v);
    bool has_self = false;
    uint32_t prev_hub = 0;
    for (size_t i = 0; i < label.size(); ++i) {
      if (label[i].hub >= n) return fail("hl: hub rank out of range");
      if (i > 0 && label[i].hub <= prev_hub) {
        return fail("hl: label hubs are not strictly ascending");
      }
      prev_hub = label[i].hub;
      if (label[i].hub == ch.RankOf(v)) {
        if (label[i].dist != 0) return fail("hl: self-hub distance not zero");
        has_self = true;
      }
    }
    if (!has_self) {
      return fail("hl: label is missing its self-hub (wrong hierarchy?)");
    }
  }
  return index;
}

}  // namespace roadnet
