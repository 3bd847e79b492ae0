#ifndef ROADNET_HL_HL_INDEX_H_
#define ROADNET_HL_HL_INDEX_H_

#include <bit>
#include <cstdint>
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
// contiguous run of 8-byte {hub rank, distance} entries, so the merge
// streams two runs and takes min(d(s,h) + d(h,t)) over common hubs h.
// The runs sit in fixed-size blocks that never move (kBlockEntries):
// construction appends each finished label to the last block once, and
// an index restored from a file lays its labels out the same way.
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
  std::span<const HubEntry> Label(VertexId v) const {
    const LabelRef ref = refs_[v];
    return {RunStart(ref), ref.length};
  }

  // Entries per label block (64 KiB). Labels are appended highest rank
  // first; a label that does not fit the room left in the last block
  // opens a new block, of kBlockEntries or of the label's own length if
  // that is longer, and the old block's tail stays empty. Blocks never
  // move, so no label is copied after it is written.
  static constexpr uint32_t kBlockEntries = uint32_t{1} << 13;

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
  // the slot of its first entry in that block (low kBlockBits bits);
  // `length` counts its entries. 8 bytes per vertex, as a CSR offset
  // would take.
  struct LabelRef {
    uint32_t run;
    uint32_t length;
  };
  static constexpr uint32_t kBlockBits = std::countr_zero(kBlockEntries);
  static constexpr size_t kMaxBlocks = size_t{1} << (32 - kBlockBits);

  // Deserialization constructor: arrays filled by the factory.
  struct DeserializeTag {};
  HlIndex(const Graph& g, const ChIndex& ch, DeserializeTag);

  // Runs label construction (see .cc): the top-down pass over the
  // hierarchy's upward arcs.
  void BuildLabels();

  // Reserves room for the next label of `length` entries (see
  // kBlockEntries) and points *ref at it. Returns false only when the
  // blocks would outgrow what `run` can name (2^19 blocks).
  bool NewRun(uint32_t length, LabelRef* ref);

  HubEntry* RunStart(LabelRef ref) const {
    return blocks_[ref.run >> kBlockBits].get() +
           (ref.run & (kBlockEntries - 1));
  }

  const Graph& graph_;
  const ChIndex* ch_;
  // Set only by BuildOwning: keeps an adopted hierarchy alive.
  std::unique_ptr<const ChIndex> owned_ch_;
  // Indexed by external VertexId (queries arrive in external ids; one
  // array lookup beats a rank translation here because the label run is
  // the only thing the query touches).
  std::vector<LabelRef> refs_;
  std::vector<std::unique_ptr<HubEntry[]>> blocks_;
  // Entries all blocks have room for; the last block's size and its
  // first free slot.
  size_t capacity_ = 0;
  uint32_t last_block_capacity_ = 0;
  uint32_t last_block_used_ = 0;
  size_t num_entries_ = 0;
};

}  // namespace roadnet

#endif  // ROADNET_HL_HL_INDEX_H_
