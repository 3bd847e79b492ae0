#ifndef ROADNET_HL_HL_INDEX_H_
#define ROADNET_HL_HL_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ch/ch_index.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "routing/path_index.h"

namespace roadnet {

namespace hl_internal {

// A label run stores each u32 in two 16-bit slots, so it may sit at any
// 2-byte boundary.
inline uint32_t LoadU32(const uint16_t* p) {
  uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

}  // namespace hl_internal

// Hub labeling over a finished contraction hierarchy (Abraham et al.
// 2011; Zhu et al.'s "Towards Bridging Theory and Practice" is the
// practice this follows — see PAPERS.md).
//
// The label of vertex v holds every vertex u of its CH upward search
// space whose upward distance equals the true dist(v, u). Labels are
// built top-down from the hierarchy, highest rank first: v's candidates
// are v itself plus its upward neighbours' finished labels shifted by
// the arc weight, and a candidate survives only if no hub of its own
// label offers a shorter way to it. No search runs and no CH query is
// asked. Because the graph is undirected one label per vertex serves
// both query roles, and CH's correctness argument carries over
// directly: the apex (the highest-ranked vertex of a shortest s-t path)
// lies in both labels at its true distance, so the merge below finds
// it.
//
// A distance query is a single merge-intersection of the two labels —
// no heap, no graph traversal, no scattered loads: hubs are stored as
// contraction ranks in strictly ascending order, each label one
// contiguous run, so the merge streams two runs and takes
// min(d(s,h) + d(h,t)) over common hubs h. A run holds the label's hub
// array and then its u32 distances. The hub array has two tiers: a hub
// among the top 2^16 ranks (kHighTierRanks), where almost every entry
// of a road network's labels lies, is a u16 offset from
// max(0, n - 2^16), and any lower hub is a u32 rank, stored before
// them. A high-tier entry costs 6 bytes, and on graphs of at most 2^16
// vertices every entry is one. The runs sit in fixed-size blocks that
// never move (kBlockSlots): construction appends each finished label to
// the last block once, and an index restored from a file lays its labels
// out the same way.
//
// The index is immutable after construction and holds no query scratch
// at all; the per-thread HlContext exists to carry QueryCounters and the
// CH context that path queries delegate to (labels store distances, not
// parents — path expansion reuses the CH, which must outlive the index
// unless it is adopted via BuildOwning).
class HlIndex : public PathIndex {
 public:
  // One label entry. `hub` is the hub's contraction rank (rank space
  // makes entries sort-stable across identical builds and keeps the
  // high-rank hubs every label shares in a dense id range); `dist` is
  // the exact shortest-path distance to the hub. Road-network distances
  // fit u32 (Weight is u32 and paths are short); construction aborts on
  // one that does not.
  struct HubEntry {
    uint32_t hub;
    uint32_t dist;
  };

  // Hub ranks n - kHighTierRanks .. n - 1 (all of them when n is at most
  // kHighTierRanks) form the high tier, stored as 16-bit offsets.
  static constexpr uint32_t kHighTierRanks = uint32_t{1} << 16;

  // A stored label, read as HubEntry values in ascending hub-rank order:
  // the low tier's entries, then the high tier's. Cheap to copy; it and
  // its iterators are valid as long as the index is.
  class LabelView {
    // Where a label's tiers are: the low tier's u32 ranks (2 slots each),
    // then the high tier's offsets from `base`; `dist` holds the u32
    // distances.
    struct Tiers {
      const uint16_t* hubs = nullptr;
      const uint16_t* dist = nullptr;
      uint32_t base = 0;
      uint32_t low = 0;

      const uint16_t* high() const { return hubs + 2 * low; }
      HubEntry At(size_t i) const {
        const uint32_t hub = i < low ? hl_internal::LoadU32(hubs + 2 * i)
                                     : base + high()[i - low];
        return {hub, hl_internal::LoadU32(dist + 2 * i)};
      }
    };

   public:
    class Iterator {
     public:
      HubEntry operator*() const { return tiers_.At(i_); }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const Iterator& o) const { return i_ == o.i_; }

     private:
      friend class LabelView;
      Iterator(Tiers tiers, uint32_t i) : tiers_(tiers), i_(i) {}
      Tiers tiers_;
      uint32_t i_;
    };

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    // Entries whose hub lies below the high tier; they come first.
    size_t low_size() const { return tiers_.low; }
    HubEntry operator[](size_t i) const { return tiers_.At(i); }
    Iterator begin() const { return {tiers_, 0}; }
    Iterator end() const { return {tiers_, size_}; }
    // The 16-bit slots of the label's run in its block: the low-tier
    // count (only if the label has a low tier), the hubs, the distances.
    std::span<const uint16_t> run() const {
      const uint16_t* first = tiers_.low > 0 ? tiers_.hubs - 2 : tiers_.hubs;
      return {first, static_cast<size_t>(tiers_.dist + 2 * size_ - first)};
    }

   private:
    friend class HlIndex;
    Tiers tiers_;
    uint32_t size_ = 0;
  };

  // Builds labels from ch, which must be built over g and outlive the
  // index. Single-threaded and deterministic: the same hierarchy gives
  // the same labels, byte for byte.
  HlIndex(const Graph& g, const ChIndex& ch);

  // Builds labels over a hierarchy the index adopts — the serving path,
  // where nothing else needs the CH afterwards (path queries still use
  // it internally).
  static std::unique_ptr<HlIndex> BuildOwning(
      const Graph& g, std::unique_ptr<const ChIndex> ch);

  // Writes the labels (format v1: magic, version, CRC-checksummed
  // payload) so query servers can skip both contraction and label
  // construction.
  void Serialize(std::ostream& out) const;

  // Restores serialized labels over the same graph and hierarchy they
  // were built on (vertex count, label structure and self-hub ranks are
  // validated). Returns nullptr on malformed input.
  static std::unique_ptr<HlIndex> Deserialize(const Graph& g,
                                              const ChIndex& ch,
                                              std::istream& in,
                                              std::string* error);

  std::string Name() const override { return "HL"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  // Bytes of the label storage alone (the space the technique adds on
  // top of the CH it was derived from): every block at its capacity,
  // the block table and the per-vertex references. IndexBytes()
  // additionally counts an adopted hierarchy.
  size_t LabelBytes() const;

  size_t NumLabelEntries() const { return num_entries_; }
  double AvgLabelEntries() const {
    return refs_.empty() ? 0.0
                         : static_cast<double>(num_entries_) /
                               static_cast<double>(refs_.size());
  }
  size_t MaxLabelEntries() const;

  // The label of v: {hub rank, distance} entries, hub ranks strictly
  // ascending. Every label contains v itself (dist 0).
  LabelView Label(VertexId v) const { return View(refs_[v]); }

  // 16-bit slots per label block (64 KiB). Labels are appended highest
  // rank first; a label whose run does not fit the room left in the last
  // block opens a new block, of kBlockSlots or of the run's own length if
  // that is longer, and the old block's tail stays empty. Blocks never
  // move, so no label is copied after it is written.
  static constexpr uint32_t kBlockSlots = uint32_t{1} << 15;

  const ChIndex& Hierarchy() const { return *ch_; }

 private:
  struct Context : QueryContext {
    // Path queries delegate to the CH (labels cannot reconstruct
    // vertices); this is the per-thread CH scratch they run on. The first
    // PathQuery creates it, so a context that only answers distances
    // never holds the CH's per-vertex search arrays.
    std::unique_ptr<QueryContext> ch_ctx;
  };

  // Where a label lives: `run` packs its block's index (high bits) and
  // the slot its run starts at in that block (low kBlockBits bits);
  // `length` counts its entries, and its top bit (kHasLowTier) marks a
  // run that starts with its low-tier count (u32). 8 bytes per vertex,
  // as a CSR offset would take.
  static constexpr uint32_t kHasLowTier = uint32_t{1} << 31;
  struct LabelRef {
    uint32_t run;
    uint32_t length;

    uint32_t size() const { return length & ~kHasLowTier; }
  };
  static constexpr uint32_t kBlockBits = std::countr_zero(kBlockSlots);
  static constexpr size_t kMaxBlocks = size_t{1} << (32 - kBlockBits);

  // Deserialization constructor: arrays filled by the factory.
  struct DeserializeTag {};
  HlIndex(const Graph& g, const ChIndex& ch, DeserializeTag);

  // Runs label construction (see .cc): the top-down pass over the
  // hierarchy's upward arcs.
  void BuildLabels();

  // Writes `label` (hub ranks strictly ascending, each below n) as the
  // next run and points *ref at it. Returns false only when the blocks
  // would outgrow what `run` can name (2^17 blocks) or the label what
  // `length` can count.
  bool StoreLabel(std::span<const HubEntry> label, LabelRef* ref);

  // Reserves the next `slots` slots (see kBlockSlots) and returns where
  // they start, packed as LabelRef::run; false if no block can be added.
  bool NewRun(size_t slots, uint32_t* run);

  uint16_t* RunStart(uint32_t run) const {
    return blocks_[run >> kBlockBits].get() + (run & (kBlockSlots - 1));
  }

  LabelView View(LabelRef ref) const {
    LabelView view;
    LabelView::Tiers& tiers = view.tiers_;
    tiers.hubs = RunStart(ref.run);
    tiers.base = base_;
    if ((ref.length & kHasLowTier) != 0) {
      tiers.low = hl_internal::LoadU32(tiers.hubs);
      tiers.hubs += 2;
    }
    view.size_ = ref.size();
    tiers.dist = tiers.high() + (view.size_ - tiers.low);
    return view;
  }

  const Graph& graph_;
  const ChIndex* ch_;
  // Set only by BuildOwning: keeps an adopted hierarchy alive.
  std::unique_ptr<const ChIndex> owned_ch_;
  // Indexed by external VertexId (queries arrive in external ids; one
  // array lookup beats a rank translation here because the label run is
  // the only thing the query touches).
  std::vector<LabelRef> refs_;
  // The lowest high-tier rank: max(0, n - kHighTierRanks).
  uint32_t base_;
  std::vector<std::unique_ptr<uint16_t[]>> blocks_;
  // Slots all blocks have room for; the last block's size and its first
  // free slot.
  size_t capacity_ = 0;
  size_t last_block_capacity_ = 0;
  size_t last_block_used_ = 0;
  size_t num_entries_ = 0;
};

}  // namespace roadnet

#endif  // ROADNET_HL_HL_INDEX_H_
