#include "hl/hl_index.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

HlIndex::HlIndex(const Graph& g, const ChIndex& ch)
    : HlIndex(g, ch, DeserializeTag{}) {
  BuildLabels();
}

HlIndex::HlIndex(const Graph& g, const ChIndex& ch, DeserializeTag)
    : graph_(g),
      ch_(&ch),
      base_(std::max(g.NumVertices(), kHighTierRanks) - kHighTierRanks) {}

std::unique_ptr<HlIndex> HlIndex::BuildOwning(
    const Graph& g, std::unique_ptr<const ChIndex> ch) {
  auto index = std::make_unique<HlIndex>(g, *ch);
  index->owned_ch_ = std::move(ch);
  return index;
}

void HlIndex::BuildLabels() {
  const uint32_t n = graph_.NumVertices();

  // Labels are built in rank space, highest rank first, and each is
  // referenced by its external id as soon as it is written.
  refs_.resize(n);
  auto rank_label = [&](uint32_t r) { return Label(ch_->VertexAtRank(r)); };

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
      for (const HubEntry e : rank_label(arc.target)) {
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
        for (const HubEntry e : rank_label(h)) {
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
    if (!StoreLabel(label, &refs_[ch_->VertexAtRank(r)])) {
      std::fprintf(stderr,
                   "HlIndex: %zu label entries fill more blocks than a label "
                   "reference can name\n",
                   num_entries_);
      std::abort();
    }
  }
}

bool HlIndex::StoreLabel(std::span<const HubEntry> label, LabelRef* ref) {
  if (label.size() >= kHasLowTier) return false;
  const uint32_t size = static_cast<uint32_t>(label.size());
  // Hubs ascend, so the low tier is a prefix.
  const auto is_low = [this](const HubEntry& e) { return e.hub < base_; };
  const uint32_t low = static_cast<uint32_t>(
      std::partition_point(label.begin(), label.end(), is_low) -
      label.begin());
  // A u32 takes 2 slots: the low-tier count if there is a low tier, a
  // rank per low-tier hub, an offset per high-tier hub, a distance each.
  const size_t slots = (low > 0 ? 2 : 0) + 2 * size_t{low} +
                       (size - low) + 2 * size_t{size};
  if (!NewRun(slots, &ref->run)) return false;
  ref->length = size | (low > 0 ? kHasLowTier : 0);
  uint16_t* out = RunStart(ref->run);
  auto store_u32 = [&out](uint32_t value) {
    std::memcpy(out, &value, sizeof(value));
    out += 2;
  };
  if (low > 0) store_u32(low);
  for (uint32_t i = 0; i < low; ++i) store_u32(label[i].hub);
  for (uint32_t i = low; i < size; ++i) {
    *out++ = static_cast<uint16_t>(label[i].hub - base_);
  }
  for (const HubEntry& e : label) store_u32(e.dist);
  num_entries_ += size;
  return true;
}

bool HlIndex::NewRun(size_t slots, uint32_t* run) {
  // Every label holds its self-hub, so a run is never empty, and a run
  // that fits a 64 KiB block starts at a slot below kBlockSlots.
  assert(slots > 0);
  if (slots > last_block_capacity_ - last_block_used_) {
    if (blocks_.size() == kMaxBlocks) return false;
    const size_t capacity = std::max<size_t>(kBlockSlots, slots);
    blocks_.push_back(std::make_unique_for_overwrite<uint16_t[]>(capacity));
    capacity_ += capacity;
    last_block_capacity_ = capacity;
    last_block_used_ = 0;
  }
  *run = static_cast<uint32_t>(((blocks_.size() - 1) << kBlockBits) |
                               last_block_used_);
  last_block_used_ += slots;
  return true;
}

std::unique_ptr<QueryContext> HlIndex::NewContext() const {
  return std::make_unique<Context>();
}

namespace {

using hl_internal::LoadU32;

// One tier of the merge: walks two ascending hub arrays, whose hubs take
// kHubSlots 16-bit slots each (2: low-tier ranks, 1: high-tier offsets),
// while both have entries left, and lowers *best over the hubs they
// share. dist_a and dist_b hold the tier's u32 distances.
template <int kHubSlots>
void MergeTier(const uint16_t* hubs_a, const uint16_t* dist_a, uint32_t na,
               const uint16_t* hubs_b, const uint16_t* dist_b, uint32_t nb,
               uint32_t* i, uint32_t* j, Distance* best) {
  auto hub = [](const uint16_t* hubs, uint32_t k) -> uint32_t {
    if constexpr (kHubSlots == 1) {
      return hubs[k];
    } else {
      return LoadU32(hubs + 2 * k);
    }
  };
  while (*i < na && *j < nb) {
    const uint32_t ha = hub(hubs_a, *i);
    const uint32_t hb = hub(hubs_b, *j);
    if (ha == hb) {
      const Distance d =
          Distance{LoadU32(dist_a + 2 * *i)} + LoadU32(dist_b + 2 * *j);
      if (d < *best) *best = d;
      ++*i;
      ++*j;
    } else if (ha < hb) {
      ++*i;
    } else {
      ++*j;
    }
  }
}

}  // namespace

Distance HlIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                VertexId t) const {
  ctx->counters.Reset();
  const LabelView a = Label(s);
  const LabelView b = Label(t);
  const LabelView::Tiers& ta = a.tiers_;
  const LabelView::Tiers& tb = b.tiers_;
  Distance best = kInfDistance;
  // Every low-tier hub ranks below every high-tier one, so merging the
  // low tiers and then the high tiers is the merge of the whole labels,
  // and it scans the same entries.
  uint32_t i = 0;
  uint32_t j = 0;
  MergeTier<2>(ta.hubs, ta.dist, ta.low, tb.hubs, tb.dist, tb.low, &i, &j,
               &best);
  // A label whose low tier ran out steps on to its high tier, which ranks
  // above the other label's remaining low entries: those are scanned
  // past. A label with no high tier ends the merge.
  if (i == ta.low && a.size_ > ta.low) j = tb.low;
  if (j == tb.low && b.size_ > tb.low) i = ta.low;
  size_t scanned = i + j;
  if (i == ta.low && j == tb.low) {
    i = 0;
    j = 0;
    MergeTier<1>(ta.high(), ta.dist + 2 * ta.low, a.size_ - ta.low,
                 tb.high(), tb.dist + 2 * tb.low, b.size_ - tb.low, &i, &j,
                 &best);
    scanned += i + j;
  }
  ctx->counters.TableLookup(scanned);
  return best;
}

Path HlIndex::PathQuery(QueryContext* ctx, VertexId s, VertexId t) const {
  // Labels hold distances, not parents: expansion reuses the CH, whose
  // unpacking already emits original-graph vertices. The counters and
  // the distance are the CH query's — that is the work this query did.
  Context* hl_ctx = static_cast<Context*>(ctx);
  if (hl_ctx->ch_ctx == nullptr) hl_ctx->ch_ctx = ch_->NewContext();
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
  return VectorBytes(refs_) + VectorBytes(blocks_) +
         capacity_ * sizeof(uint16_t);
}

size_t HlIndex::MaxLabelEntries() const {
  size_t max_entries = 0;
  for (const LabelRef& ref : refs_) {
    max_entries = std::max<size_t>(max_entries, ref.size());
  }
  return max_entries;
}

// Format v1 payload: u32 n, the n + 1 u64 CSR offsets of the labels by
// external id, then the labels in external-id order as one
// length-prefixed vector of 8-byte {u32 hub rank, u32 distance} entries,
// whatever the tier. Streamed label by label, so writing a file holds no
// copy of the payload in memory, only one widened label.
void HlIndex::Serialize(std::ostream& out) const {
  WriteMagic(out, kHlMagic);
  WriteScalar<uint32_t>(out, kHlVersion);
  const uint32_t n = graph_.NumVertices();
  const uint64_t offsets = uint64_t{n} + 1;
  ChecksummedPayloadWriter payload(
      out, sizeof(uint32_t) + sizeof(uint64_t) * (1 + offsets + 1) +
               sizeof(HubEntry) * num_entries_);
  payload.AppendScalar<uint32_t>(n);
  payload.AppendScalar<uint64_t>(offsets);
  uint64_t offset = 0;
  payload.AppendScalar<uint64_t>(offset);
  for (const LabelRef& ref : refs_) {
    offset += ref.size();
    payload.AppendScalar<uint64_t>(offset);
  }
  payload.AppendScalar<uint64_t>(num_entries_);
  std::vector<HubEntry> label;
  for (VertexId v = 0; v < n; ++v) {
    label.clear();
    for (const HubEntry e : Label(v)) label.push_back(e);
    payload.Append(label.data(), label.size() * sizeof(HubEntry));
  }
  payload.Finish();
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
  std::istringstream body(std::move(buffer));
  uint32_t n = 0;
  if (!ReadScalar(body, &n) || n != g.NumVertices()) {
    return fail("hl: vertex count does not match the graph");
  }
  std::vector<uint64_t> offsets;
  if (!ReadVector(body, &offsets) ||
      offsets.size() != static_cast<size_t>(n) + 1) {
    return fail("hl: bad offset block");
  }
  uint64_t num_entries = 0;
  if (!ReadScalar(body, &num_entries) || num_entries > uint64_t{1} << 32 ||
      num_entries > BytesLeft(body) / sizeof(HubEntry)) {
    return fail("hl: bad label block");
  }
  const std::streampos labels_at = body.tellg();
  // Structural validation so corrupted input cannot cause out-of-range
  // indexing or wrong merges at query time: offsets form a CSR over the
  // label block, every label is strictly rank-sorted with in-range
  // hubs, and every vertex's label contains the vertex itself at
  // distance 0 (the invariant the merge relies on for s == t).
  if (offsets[0] != 0) return fail("hl: bad offset block");
  for (uint32_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v] || offsets[v + 1] > num_entries) {
      return fail("hl: offsets are not monotone");
    }
  }
  if (offsets[n] != num_entries) {
    return fail("hl: offsets do not cover the label block");
  }
  // Lay the labels out as the build does, highest rank first, so a
  // restored index holds the same blocks (and LabelBytes()) as a built
  // one. Each label is read from the file, checked, and narrowed into its
  // run.
  std::unique_ptr<HlIndex> index(new HlIndex(g, ch, DeserializeTag{}));
  index->refs_.resize(n);
  std::vector<HubEntry> label;
  for (uint32_t r = n; r-- > 0;) {
    const VertexId v = ch.VertexAtRank(r);
    const uint64_t length = offsets[v + 1] - offsets[v];
    // A label holds its self-hub and distinct hub ranks below n.
    if (length == 0) {
      return fail("hl: label is missing its self-hub (wrong hierarchy?)");
    }
    if (length > n) return fail("hl: label is longer than the vertex count");
    label.resize(length);
    body.seekg(labels_at +
               static_cast<std::streamoff>(offsets[v] * sizeof(HubEntry)));
    body.read(reinterpret_cast<char*>(label.data()),
              static_cast<std::streamsize>(length * sizeof(HubEntry)));
    if (!body) return fail("hl: bad label block");
    bool has_self = false;
    for (size_t i = 0; i < label.size(); ++i) {
      if (label[i].hub >= n) return fail("hl: hub rank out of range");
      if (i > 0 && label[i].hub <= label[i - 1].hub) {
        return fail("hl: label hubs are not strictly ascending");
      }
      if (label[i].hub == r) {
        if (label[i].dist != 0) return fail("hl: self-hub distance not zero");
        has_self = true;
      }
    }
    if (!has_self) {
      return fail("hl: label is missing its self-hub (wrong hierarchy?)");
    }
    if (!index->StoreLabel(label, &index->refs_[v])) {
      return fail("hl: bad label block");
    }
  }
  return index;
}

}  // namespace roadnet
