#include "hl/hl_index.h"

#include <algorithm>
#include <cassert>
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
    LabelRef& ref = refs_[ch_->VertexAtRank(r)];
    if (!NewRun(static_cast<uint32_t>(label.size()), &ref)) {
      std::fprintf(stderr,
                   "HlIndex: %zu label entries fill more blocks than a label "
                   "reference can name\n",
                   num_entries_);
      std::abort();
    }
    std::copy(label.begin(), label.end(), RunStart(ref));
  }
}

bool HlIndex::NewRun(uint32_t length, LabelRef* ref) {
  // Every label holds its self-hub, so a run is never empty, and a run
  // that fits a 64 KiB block starts at a slot below kBlockEntries.
  assert(length > 0);
  if (length > last_block_capacity_ - last_block_used_) {
    if (blocks_.size() == kMaxBlocks) return false;
    const uint32_t capacity = std::max(kBlockEntries, length);
    blocks_.push_back(std::make_unique_for_overwrite<HubEntry[]>(capacity));
    capacity_ += capacity;
    last_block_capacity_ = capacity;
    last_block_used_ = 0;
  }
  ref->run = static_cast<uint32_t>((blocks_.size() - 1) << kBlockBits) |
             last_block_used_;
  ref->length = length;
  last_block_used_ += length;
  num_entries_ += length;
  return true;
}

std::unique_ptr<QueryContext> HlIndex::NewContext() const {
  return std::make_unique<Context>();
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
         capacity_ * sizeof(HubEntry);
}

size_t HlIndex::MaxLabelEntries() const {
  size_t max_entries = 0;
  for (const LabelRef& ref : refs_) {
    max_entries = std::max<size_t>(max_entries, ref.length);
  }
  return max_entries;
}

// Format v1 payload: u32 n, the n + 1 u64 CSR offsets of the labels by
// external id, then the labels in external-id order as one
// length-prefixed vector of entries. Streamed label by label, so writing
// a file holds no copy of the payload in memory.
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
    offset += ref.length;
    payload.AppendScalar<uint64_t>(offset);
  }
  payload.AppendScalar<uint64_t>(num_entries_);
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const HubEntry> label = Label(v);
    payload.Append(label.data(), label.size_bytes());
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
  // one; each label is read from the file straight into its block.
  std::unique_ptr<HlIndex> index(new HlIndex(g, ch, DeserializeTag{}));
  index->refs_.resize(n);
  for (uint32_t r = n; r-- > 0;) {
    const VertexId v = ch.VertexAtRank(r);
    const uint64_t length = offsets[v + 1] - offsets[v];
    // A label holds its self-hub and distinct hub ranks below n; the
    // scan below checks the rest.
    if (length == 0) {
      return fail("hl: label is missing its self-hub (wrong hierarchy?)");
    }
    if (length > n) return fail("hl: label is longer than the vertex count");
    LabelRef& ref = index->refs_[v];
    if (!index->NewRun(static_cast<uint32_t>(length), &ref)) {
      return fail("hl: bad label block");
    }
    body.seekg(labels_at +
               static_cast<std::streamoff>(offsets[v] * sizeof(HubEntry)));
    body.read(reinterpret_cast<char*>(index->RunStart(ref)),
              static_cast<std::streamsize>(length * sizeof(HubEntry)));
  }
  if (!body) return fail("hl: bad label block");
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
