#include "hl/hl_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "io/binary.h"
#include "io/crc32.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// FNV-1a over the label arrays: every CSR offset, then every entry as
// (hub rank, distance) in storage order.
uint64_t Fingerprint(const HlIndex& hl, uint32_t n) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  uint64_t offset = 0;
  mix(offset);
  for (VertexId v = 0; v < n; ++v) {
    offset += hl.Label(v).size();
    mix(offset);
  }
  for (VertexId v = 0; v < n; ++v) {
    for (const HlIndex::HubEntry& e : hl.Label(v)) {
      mix(e.hub);
      mix(e.dist);
    }
  }
  return h;
}

// The merge of two labels read as one ascending sequence each, as the
// index merged them before the tiers: the shortest distance over their
// common hubs and the entries scanned, which the tiered merge must
// reproduce.
std::pair<Distance, uint64_t> WholeLabelMerge(const HlIndex::LabelView& a,
                                              const HlIndex::LabelView& b) {
  Distance best = kInfDistance;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const HlIndex::HubEntry ea = a[i];
    const HlIndex::HubEntry eb = b[j];
    if (ea.hub == eb.hub) {
      best = std::min(best, Distance{ea.dist} + eb.dist);
      ++i;
      ++j;
    } else if (ea.hub < eb.hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return {best, i + j};
}

// Format v1 of `offsets` and `entries`: the file header, then the
// checksummed payload.
std::string V1File(uint32_t n, const std::vector<uint64_t>& offsets,
                   const std::vector<HlIndex::HubEntry>& entries) {
  std::ostringstream payload;
  WriteScalar<uint32_t>(payload, n);
  WriteVector(payload, offsets);
  WriteVector(payload, entries);
  std::ostringstream file;
  file.write("RNETHLIX", 8);
  WriteScalar<uint32_t>(file, 1);
  WriteChecksummedPayload(file, payload.view());
  return file.str();
}

TEST(HubLabel, MatchesPaperFigure1) {
  Graph g = PaperFigure1Graph();
  ChIndex ch(g);
  HlIndex hl(g, ch);
  // The paper's CH walkthrough: dist(v3, v7) = 6.
  EXPECT_EQ(hl.DistanceQuery(hl.NewContext().get(), 2, 6), 6u);
  ExpectIndexCorrect(g, &hl, 64, 3);
}

// Canonical label form: hubs strictly rank-sorted, the vertex itself
// present at distance 0, and — the pruning invariant — every stored
// distance is the true shortest-path distance (a prunable hub is
// exactly one stored above its true distance; none may survive).
TEST(HubLabel, LabelsAreCanonicalAndExact) {
  Graph g = TestNetwork(400, 41);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto label = hl.Label(v);
    ASSERT_FALSE(label.empty()) << "v=" << v;
    bool has_self = false;
    for (size_t i = 0; i < label.size(); ++i) {
      ASSERT_LT(label[i].hub, g.NumVertices()) << "v=" << v;
      if (i > 0) {
        EXPECT_LT(label[i - 1].hub, label[i].hub)
            << "label of v=" << v << " not strictly rank-sorted at " << i;
      }
      if (label[i].hub == ch.RankOf(v)) {
        has_self = true;
        EXPECT_EQ(label[i].dist, 0u) << "self-hub of v=" << v;
      }
    }
    EXPECT_TRUE(has_self) << "label of v=" << v << " misses its self-hub";
  }
  // Spot-check stored distances against Dijkstra ground truth.
  Dijkstra reference(g);
  Rng rng(43);
  for (int i = 0; i < 25; ++i) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    for (const auto& entry : hl.Label(v)) {
      const VertexId hub = ch.VertexAtRank(entry.hub);
      EXPECT_EQ(reference.Run(v, hub), Distance{entry.dist})
          << "v=" << v << " hub=" << hub;
    }
  }
}

// The labels are pinned bit for bit over the pinned contraction
// (ch_test.cc): a construction change must reproduce every offset and
// every {hub, dist} entry exactly, so the layout, the file format and
// every answer stay as they are.
TEST(HubLabel, LabelsArePinned) {
  struct Pinned {
    const char* dataset;
    size_t num_entries;
    uint64_t fingerprint;
  };
  const std::vector<Pinned> cases = {
      {"DE'", 7711, 12952331882133230543ull},
      {"NH'", 19774, 18207912890223535215ull},
      {"ME'", 33240, 11188536247245635940ull},
      {"CO'", 103423, 7385276629350011510ull},
  };
  for (const Pinned& c : cases) {
    const DatasetSpec* spec = nullptr;
    for (const DatasetSpec& s : PaperDatasets()) {
      if (s.name == c.dataset) spec = &s;
    }
    ASSERT_NE(spec, nullptr) << c.dataset;
    const Graph g = BuildDataset(*spec);
    const ChIndex ch(g);
    const HlIndex hl(g, ch);
    SCOPED_TRACE(c.dataset);
    EXPECT_EQ(hl.NumLabelEntries(), c.num_entries);
    EXPECT_EQ(Fingerprint(hl, g.NumVertices()), c.fingerprint);
  }
}

// `serve --index g.ch --technique hl` builds labels over a hierarchy
// read back from disk: they must be the labels the in-memory hierarchy
// gives, byte for byte.
TEST(HubLabel, BuildOverRestoredHierarchyIsIdentical) {
  Graph g = TestNetwork(450, 57);
  ChIndex ch(g);
  std::stringstream ch_file;
  ch.Serialize(ch_file);
  std::string error;
  const auto restored_ch = ChIndex::Deserialize(g, ch_file, &error);
  ASSERT_NE(restored_ch, nullptr) << error;
  HlIndex in_memory(g, ch);
  HlIndex over_restored(g, *restored_ch);
  std::stringstream a;
  std::stringstream b;
  in_memory.Serialize(a);
  over_restored.Serialize(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(HubLabel, AgreesWithDijkstraOnRandomNetwork) {
  Graph g = TestNetwork(600, 47);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  ExpectIndexCorrect(g, &hl, 120, 49);
}

TEST(HubLabel, UnreachableAcrossComponentsIsInfinity) {
  // Two disjoint triangles: labels of different components share no
  // hub, so the merge finds an empty intersection.
  GraphBuilder b(6);
  for (VertexId v = 0; v < 6; ++v) {
    b.SetCoord(v, Point{static_cast<int32_t>(v), v < 3 ? 0 : 100});
  }
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 0, 1);
  b.AddEdge(3, 4, 1);
  b.AddEdge(4, 5, 1);
  b.AddEdge(5, 3, 1);
  Graph g = std::move(b).Build();
  ChIndex ch(g);
  HlIndex hl(g, ch);
  const auto ctx = hl.NewContext();
  for (VertexId s = 0; s < 3; ++s) {
    for (VertexId t = 3; t < 6; ++t) {
      EXPECT_EQ(hl.DistanceQuery(ctx.get(), s, t), kInfDistance);
      EXPECT_EQ(hl.DistanceQuery(ctx.get(), t, s), kInfDistance);
      ctx->path_distance = kPoisonDistance;
      EXPECT_TRUE(hl.PathQuery(ctx.get(), s, t).empty());
      EXPECT_EQ(ctx->path_distance, kInfDistance);
    }
  }
  EXPECT_EQ(hl.DistanceQuery(ctx.get(), 0, 2), 1u);
  EXPECT_EQ(hl.DistanceQuery(ctx.get(), 3, 5), 1u);
  EXPECT_EQ(hl.DistanceQuery(ctx.get(), 4, 4), 0u);
}

TEST(HubLabel, SingleVertexGraph) {
  GraphBuilder b(1);
  b.SetCoord(0, Point{0, 0});
  Graph g = std::move(b).Build();
  ChIndex ch(g);
  HlIndex hl(g, ch);
  EXPECT_EQ(hl.DistanceQuery(hl.NewContext().get(), 0, 0), 0u);
  ASSERT_EQ(hl.Label(0).size(), 1u);
  EXPECT_EQ(hl.Label(0)[0].dist, 0u);
}

// A distance query is a pure label merge: it probes table entries and
// never settles a vertex or touches a heap.
TEST(HubLabel, QueryCountsLabelScansOnly) {
  Graph g = TestNetwork(300, 71);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  auto ctx = hl.NewContext();
  const auto pairs = RandomPairs(g, 10, 73);
  for (auto [s, t] : pairs) {
    hl.DistanceQuery(ctx.get(), s, t);
    EXPECT_GT(ctx->counters.table_lookups, 0u);
    EXPECT_EQ(ctx->counters.vertices_settled, 0u);
    EXPECT_EQ(ctx->counters.heap_pushes, 0u);
    EXPECT_EQ(ctx->counters.edges_relaxed, 0u);
  }
}

// A context answers distances from the labels alone and creates its CH
// context on the first path query. Distance, path, distance, path on one
// fresh context: each path query must report CH's path, length and
// counters, and each distance query only the merge's own work.
TEST(HubLabel, PathContextIsCreatedOnTheFirstPathQuery) {
  Graph g = TestNetwork(400, 81);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  const auto ctx = hl.NewContext();
  const auto ch_ctx = ch.NewContext();
  const auto fresh = hl.NewContext();
  for (auto [s, t] : RandomPairs(g, 2, 83)) {
    const Distance d = hl.DistanceQuery(ctx.get(), s, t);
    EXPECT_EQ(d, ch.DistanceQuery(ch_ctx.get(), s, t));
    hl.DistanceQuery(fresh.get(), s, t);
    EXPECT_EQ(ctx->counters, fresh->counters);
    EXPECT_GT(ctx->counters.table_lookups, 0u);
    EXPECT_EQ(ctx->counters.vertices_settled, 0u);

    ctx->path_distance = kPoisonDistance;
    const Path path = hl.PathQuery(ctx.get(), s, t);
    EXPECT_EQ(path, ch.PathQuery(ch_ctx.get(), s, t));
    EXPECT_EQ(ctx->path_distance, ch_ctx->path_distance);
    EXPECT_EQ(ctx->path_distance, d);
    EXPECT_EQ(ctx->counters, ch_ctx->counters);
    EXPECT_GT(ctx->counters.vertices_settled, 0u);
  }
}

// The path 0-1-2-3 with weights 3e9, 3e9 and 1 ranks its vertices 0, 2,
// 3, 1, so vertex 0's label holds vertex 2 at its exact distance 6e9,
// past what a 32-bit label entry holds. Truncated, dist(0, 2) would read
// 1,705,032,704 instead of 6,000,000,000.
TEST(HubLabelDeathTest, LabelDistanceBeyondWeightLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GraphBuilder b(4);
  b.AddEdge(0, 1, 3000000000u);
  b.AddEdge(1, 2, 3000000000u);
  b.AddEdge(2, 3, 1);
  const Graph g = std::move(b).Build();
  const ChIndex ch(g);
  ASSERT_EQ(ch.RankOf(0), 0u);
  ASSERT_EQ(ch.RankOf(1), 2u);
  ASSERT_EQ(ch.RankOf(2), 3u);
  ASSERT_EQ(ch.RankOf(3), 1u);
  EXPECT_EQ(ch.DistanceQuery(ch.NewContext().get(), 0, 2), 6000000000u);
  EXPECT_DEATH(HlIndex(g, ch), "32-bit label-distance limit");
}

// Only a label entry that survives pruning is checked against the 32-bit
// limit. The cycle 0-1-2-3-0 has weights 3e9, 3e9, 1 and 1; pendants on
// 2 and 3 rank the cycle 0 < 1 < 2 < 3. Vertex 0's only candidate for
// hub 2 arrives through 1 at 6e9, but hub 3 offers 2, so the candidate
// is dropped and nothing aborts.
TEST(HubLabel, PrunedCandidateBeyondWeightLimitIsDropped) {
  GraphBuilder b(9);
  b.AddEdge(0, 1, 3000000000u);
  b.AddEdge(1, 2, 3000000000u);
  b.AddEdge(2, 3, 1);
  b.AddEdge(3, 0, 1);
  b.AddEdge(2, 4, 1);
  b.AddEdge(2, 5, 1);
  b.AddEdge(3, 6, 1);
  b.AddEdge(3, 7, 1);
  b.AddEdge(3, 8, 1);
  const Graph g = std::move(b).Build();
  const ChIndex ch(g);
  ASSERT_EQ(ch.RankOf(0), 0u);
  ASSERT_LT(ch.RankOf(0), ch.RankOf(1));
  ASSERT_LT(ch.RankOf(1), ch.RankOf(2));
  ASSERT_LT(ch.RankOf(2), ch.RankOf(3));
  const HlIndex hl(g, ch);
  EXPECT_EQ(hl.DistanceQuery(hl.NewContext().get(), 0, 2), 2u);
  ExpectIndexCorrect(g, &hl, 16, 5);
}

TEST(HubLabelSerialization, RoundTripPreservesAnswersAndBytes) {
  Graph g = TestNetwork(500, 59);
  ChIndex ch(g);
  HlIndex original(g, ch);
  std::stringstream buffer;
  original.Serialize(buffer);
  std::string error;
  auto restored = HlIndex::Deserialize(g, ch, buffer, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->NumLabelEntries(), original.NumLabelEntries());
  EXPECT_EQ(restored->LabelBytes(), original.LabelBytes());
  const auto restored_ctx = restored->NewContext();
  const auto original_ctx = original.NewContext();
  for (auto [s, t] : RandomPairs(g, 200, 61)) {
    EXPECT_EQ(restored->DistanceQuery(restored_ctx.get(), s, t),
              original.DistanceQuery(original_ctx.get(), s, t));
  }
  // Byte-identical re-serialization pins the arrays, not just behavior.
  std::stringstream again;
  restored->Serialize(again);
  std::stringstream first;
  original.Serialize(first);
  EXPECT_EQ(again.str(), first.str());
  ExpectIndexCorrect(g, restored.get(), 60, 63);
}

// Labels restored from a file fill the same blocks as built ones: taken
// highest rank first, each label's run either follows the previous one in
// its block or starts a new block, at the same ranks in both indexes (CO′
// fills 10 blocks), and each run holds the same slots.
TEST(HubLabelSerialization, RestoredLabelsFillTheBuiltBlocks) {
  const DatasetSpec* spec = nullptr;
  for (const DatasetSpec& s : PaperDatasets()) {
    if (s.name == "CO'") spec = &s;
  }
  ASSERT_NE(spec, nullptr);
  const Graph g = BuildDataset(*spec);
  const ChIndex ch(g);
  const HlIndex built(g, ch);
  std::stringstream file;
  built.Serialize(file);
  std::string error;
  const auto restored = HlIndex::Deserialize(g, ch, file, &error);
  ASSERT_NE(restored, nullptr) << error;
  auto block_starts = [&](const HlIndex& hl) {
    std::vector<uint32_t> ranks;
    const uint16_t* end = nullptr;
    for (uint32_t r = g.NumVertices(); r-- > 0;) {
      const std::span<const uint16_t> run = hl.Label(ch.VertexAtRank(r)).run();
      if (run.data() != end) ranks.push_back(r);
      end = run.data() + run.size();
    }
    return ranks;
  };
  const std::vector<uint32_t> starts = block_starts(built);
  EXPECT_EQ(starts.size(), 10u);
  EXPECT_EQ(block_starts(*restored), starts);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_TRUE(std::ranges::equal(restored->Label(v).run(),
                                   built.Label(v).run()))
        << "v=" << v;
  }
  EXPECT_EQ(restored->LabelBytes(), built.LabelBytes());
  EXPECT_EQ(Fingerprint(*restored, g.NumVertices()),
            Fingerprint(built, g.NumVertices()));
}

// A label longer than a block gets a block of its own length. This file
// gives a star's centre a label of every vertex at its true distance, 1,
// and each leaf its built label {leaf, centre}. The labels are exact, so
// the index must answer right, and it must write back the bytes it read.
// The hierarchy contracts the leaves first, which needs no shortcut;
// it is given rather than contracted, since ContractGraph would search
// for a witness between every pair of the centre's 10,923 neighbours
// while it weighs the centre.
TEST(HubLabelSerialization, LabelLongerThanABlockGetsABlockOfItsOwn) {
  const uint32_t n = HlIndex::kBlockSlots / 3 + 2;
  GraphBuilder b(n);
  b.SetCoord(0, Point{0, 0});
  ContractionResult star;
  star.rank.push_back(n - 1);
  for (VertexId leaf = 1; leaf < n; ++leaf) {
    b.SetCoord(leaf, Point{static_cast<int32_t>(leaf), 1});
    b.AddEdge(0, leaf, 1);
    star.rank.push_back(leaf - 1);
    star.edges.push_back(TaggedEdge{0, leaf, 1, kInvalidVertex});
  }
  const Graph g = std::move(b).Build();
  const ChIndex ch(g, std::move(star), ChConfig{});
  const uint32_t centre = ch.RankOf(0);
  std::vector<uint64_t> offsets = {0};
  std::vector<HlIndex::HubEntry> entries;
  for (VertexId v = 0; v < n; ++v) {
    if (v == 0) {
      for (uint32_t r = 0; r < n; ++r) {
        entries.push_back({r, r == centre ? 0u : 1u});
      }
    } else {
      entries.push_back({ch.RankOf(v), 0});
      entries.push_back({centre, 1});
    }
    offsets.push_back(entries.size());
  }
  const std::string file = V1File(n, offsets, entries);

  std::istringstream in(file);
  std::string error;
  const auto hl = HlIndex::Deserialize(g, ch, in, &error);
  ASSERT_NE(hl, nullptr) << error;
  EXPECT_EQ(hl->Label(0).size(), n);
  EXPECT_EQ(hl->MaxLabelEntries(), n);
  std::ostringstream again;
  hl->Serialize(again);
  EXPECT_EQ(again.str(), file);
  ExpectIndexCorrect(g, hl.get(), 40, 87);
}

TEST(HubLabelSerialization, RejectsByteFlips) {
  Graph g = TestNetwork(150, 65);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  std::stringstream buffer;
  hl.Serialize(buffer);
  const std::string full = buffer.str();
  // Stride through the file; every sampled flip plus the first and last
  // 64 bytes (header, length, CRC trailer) must be rejected.
  std::vector<size_t> positions;
  for (size_t i = 0; i < full.size(); i += 7) positions.push_back(i);
  for (size_t i = 0; i < 64 && i < full.size(); ++i) {
    positions.push_back(i);
    positions.push_back(full.size() - 1 - i);
  }
  for (size_t i : positions) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    std::stringstream in(corrupt);
    std::string error;
    EXPECT_EQ(HlIndex::Deserialize(g, ch, in, &error), nullptr)
        << "flip at byte " << i;
    EXPECT_FALSE(error.empty()) << "flip at byte " << i;
  }
}

TEST(HubLabelSerialization, RejectsWrongGraph) {
  Graph g1 = TestNetwork(500, 1);
  Graph g2 = TestNetwork(900, 2);
  ChIndex ch1(g1);
  ChIndex ch2(g2);
  HlIndex hl(g1, ch1);
  std::stringstream buffer;
  hl.Serialize(buffer);
  std::string error;
  EXPECT_EQ(HlIndex::Deserialize(g2, ch2, buffer, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

// A chain of 70,000 vertices, the cheapest graph with more than 2^16:
// ranks below 70,000 - 2^16 = 4,464 are the low tier. Weights cycle
// through 1..7, and dist(s, t) is a difference of prefix sums.
struct Chain {
  static constexpr uint32_t kVertices = 70000;
  static constexpr uint32_t kBase = kVertices - HlIndex::kHighTierRanks;
  Graph graph;
  ChIndex ch;
  HlIndex hl;
  std::vector<Distance> prefix;

  Chain() : graph(Build()), ch(graph), hl(graph, ch), prefix(kVertices, 0) {
    for (VertexId v = 1; v < kVertices; ++v) {
      prefix[v] = prefix[v - 1] + EdgeWeight(v - 1);
    }
  }

  static Weight EdgeWeight(VertexId v) { return 1 + v % 7; }

  static Graph Build() {
    GraphBuilder b(kVertices);
    for (VertexId v = 0; v < kVertices; ++v) {
      b.SetCoord(v, Point{static_cast<int32_t>(v), 0});
      if (v + 1 < kVertices) b.AddEdge(v, v + 1, EdgeWeight(v));
    }
    return std::move(b).Build();
  }

  Distance Truth(VertexId s, VertexId t) const {
    return s < t ? prefix[t] - prefix[s] : prefix[s] - prefix[t];
  }
};

const Chain& GetChain() {
  static const Chain* const chain = new Chain();
  return *chain;
}

// Every label's low tier is exactly its hubs below the tier base, and
// the chain's labels fill both tiers.
TEST(HubLabelTiers, ChainLabelsFillBothTiers) {
  const Chain& c = GetChain();
  size_t low = 0;
  for (VertexId v = 0; v < Chain::kVertices; ++v) {
    const HlIndex::LabelView label = c.hl.Label(v);
    for (size_t i = 0; i < label.size(); ++i) {
      ASSERT_EQ(label[i].hub < Chain::kBase, i < label.low_size())
          << "v=" << v << " entry " << i;
    }
    low += label.low_size();
  }
  EXPECT_GT(low, 0u);
  EXPECT_LT(low, c.hl.NumLabelEntries());
  std::printf("chain: %zu label entries, %zu in the low tier\n",
              c.hl.NumLabelEntries(), low);
}

TEST(HubLabelTiers, ChainAnswersAsDijkstra) {
  const Chain& c = GetChain();
  const auto ctx = c.hl.NewContext();
  for (auto [s, t] : RandomPairs(c.graph, 2000, 95)) {
    EXPECT_EQ(c.hl.DistanceQuery(ctx.get(), s, t), c.Truth(s, t))
        << "s=" << s << " t=" << t;
  }
  ExpectIndexCorrect(c.graph, &c.hl, 12, 97);
}

// Labels holding the last low-tier rank (n - 2^16 - 1) or the first
// high-tier one (n - 2^16), merged with each other: each answer is the
// chain distance, and each merge scans what one merge of the whole
// labels scans.
TEST(HubLabelTiers, LabelsAtTheTierBoundaryMerge) {
  const Chain& c = GetChain();
  std::vector<VertexId> holders[2];
  for (VertexId v = 0; v < Chain::kVertices; ++v) {
    for (const HlIndex::HubEntry e : c.hl.Label(v)) {
      if (e.hub + 1 == Chain::kBase && holders[0].size() < 48) {
        holders[0].push_back(v);
      }
      if (e.hub == Chain::kBase && holders[1].size() < 48) {
        holders[1].push_back(v);
      }
    }
  }
  ASSERT_FALSE(holders[0].empty());
  ASSERT_FALSE(holders[1].empty());
  std::vector<VertexId> vertices = holders[0];
  vertices.insert(vertices.end(), holders[1].begin(), holders[1].end());
  const auto ctx = c.hl.NewContext();
  for (const VertexId s : vertices) {
    for (const VertexId t : vertices) {
      const Distance d = c.hl.DistanceQuery(ctx.get(), s, t);
      EXPECT_EQ(d, c.Truth(s, t)) << "s=" << s << " t=" << t;
      const auto [want, scanned] =
          WholeLabelMerge(c.hl.Label(s), c.hl.Label(t));
      EXPECT_EQ(d, want) << "s=" << s << " t=" << t;
      EXPECT_EQ(ctx->counters.table_lookups, scanned)
          << "s=" << s << " t=" << t;
    }
  }
}

// Labels read from a file need not be a hierarchy's: these give a sample
// of the chain's vertices many hubs on both sides of the tier base, drawn
// from small pools so labels share hubs in either tier, and every other
// vertex its self-hub. On every pair of sampled vertices, and of a
// sampled vertex and itself, the tiered merge answers and scans as one
// merge of the whole labels; the index writes back the file it read.
TEST(HubLabelTiers, MergeScansWhatOneMergeOfTheWholeLabelsScans) {
  const Chain& c = GetChain();
  constexpr uint32_t n = Chain::kVertices;
  Rng rng(99);
  std::vector<VertexId> sample;
  std::vector<uint64_t> offsets = {0};
  std::vector<HlIndex::HubEntry> entries;
  std::vector<HlIndex::HubEntry> label;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t self = c.ch.RankOf(v);
    label.assign(1, {self, 0});
    if (v % 97 == 0) {
      sample.push_back(v);
      const uint64_t low = rng.NextBelow(12);
      const uint64_t high = rng.NextBelow(12);
      for (uint64_t k = 0; k < low + high; ++k) {
        const uint64_t pool = rng.NextBelow(3);
        const uint32_t hub = static_cast<uint32_t>(
            k < low ? (pool == 0 ? rng.NextBelow(16)
                                 : Chain::kBase - 1 - rng.NextBelow(24))
                    : (pool == 0 ? n - 1 - rng.NextBelow(16)
                                 : Chain::kBase + rng.NextBelow(24)));
        const uint32_t dist = static_cast<uint32_t>(1 + rng.NextBelow(1000));
        if (hub != self) label.push_back({hub, dist});
      }
    }
    std::sort(label.begin(), label.end(),
              [](const HlIndex::HubEntry& a, const HlIndex::HubEntry& b) {
                return a.hub < b.hub;
              });
    label.erase(std::unique(label.begin(), label.end(),
                            [](const HlIndex::HubEntry& a,
                               const HlIndex::HubEntry& b) {
                              return a.hub == b.hub;
                            }),
                label.end());
    entries.insert(entries.end(), label.begin(), label.end());
    offsets.push_back(entries.size());
  }
  const std::string file = V1File(n, offsets, entries);
  std::istringstream in(file);
  std::string error;
  const auto hl = HlIndex::Deserialize(c.graph, c.ch, in, &error);
  ASSERT_NE(hl, nullptr) << error;
  size_t low_labels = 0;
  for (const VertexId v : sample) low_labels += hl->Label(v).low_size() > 0;
  EXPECT_GT(low_labels, sample.size() / 2);
  const auto ctx = hl->NewContext();
  for (const VertexId s : sample) {
    for (const VertexId t : sample) {
      const Distance d = hl->DistanceQuery(ctx.get(), s, t);
      const auto [want, scanned] = WholeLabelMerge(hl->Label(s), hl->Label(t));
      ASSERT_EQ(d, want) << "s=" << s << " t=" << t;
      ASSERT_EQ(ctx->counters.table_lookups, scanned)
          << "s=" << s << " t=" << t;
    }
  }
  std::ostringstream again;
  hl->Serialize(again);
  EXPECT_TRUE(again.str() == file);
}

// Serialize widens every entry back to the v1 file's 8 bytes: its output
// is the v1 encoding of Label()'s entries. The restored index lays out
// the same runs, slot for slot, starting new blocks at the same labels,
// and counts the same LabelBytes().
TEST(HubLabelTiers, FileIsTheV1EncodingAndRestoresTheRuns) {
  const Chain& c = GetChain();
  std::vector<uint64_t> offsets = {0};
  std::vector<HlIndex::HubEntry> entries;
  for (VertexId v = 0; v < Chain::kVertices; ++v) {
    for (const HlIndex::HubEntry e : c.hl.Label(v)) entries.push_back(e);
    offsets.push_back(entries.size());
  }
  std::stringstream file;
  c.hl.Serialize(file);
  EXPECT_TRUE(file.str() == V1File(Chain::kVertices, offsets, entries));

  std::string error;
  const auto restored = HlIndex::Deserialize(c.graph, c.ch, file, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->LabelBytes(), c.hl.LabelBytes());
  EXPECT_EQ(restored->NumLabelEntries(), c.hl.NumLabelEntries());
  const uint16_t* built_end = nullptr;
  const uint16_t* restored_end = nullptr;
  for (uint32_t r = Chain::kVertices; r-- > 0;) {
    const VertexId v = c.ch.VertexAtRank(r);
    const std::span<const uint16_t> built = c.hl.Label(v).run();
    const std::span<const uint16_t> run = restored->Label(v).run();
    ASSERT_TRUE(std::ranges::equal(run, built)) << "v=" << v;
    ASSERT_EQ(run.data() == restored_end, built.data() == built_end)
        << "v=" << v;
    built_end = built.data() + built.size();
    restored_end = run.data() + run.size();
  }
}

// One immutable index, eight threads, one context each: every thread
// must read the same answers a single-threaded pass produced. Run under
// TSan by scripts/check.sh.
TEST(HubLabelThreads, EightThreadsShareOneIndex) {
  Graph g = TestNetwork(500, 67);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  const auto pairs = RandomPairs(g, 800, 69);
  std::vector<Distance> want(pairs.size());
  {
    auto ctx = hl.NewContext();
    for (size_t i = 0; i < pairs.size(); ++i) {
      want[i] = hl.DistanceQuery(ctx.get(), pairs[i].first, pairs[i].second);
    }
  }
  constexpr size_t kThreads = 8;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = hl.NewContext();
      for (size_t i = t; i < pairs.size(); i += kThreads) {
        const Distance got =
            hl.DistanceQuery(ctx.get(), pairs[i].first, pairs[i].second);
        if (got != want[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// Eight threads, each on a fresh context, first answer distances and
// then paths, so every thread's CH context is created lazily while the
// others query. Paths and their lengths must match a single-threaded CH
// pass. Run under TSan and by the flake gate.
TEST(HubLabelThreads, EachThreadCreatesItsPathContextOnFirstUse) {
  Graph g = TestNetwork(500, 89);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  const auto pairs = RandomPairs(g, 400, 91);
  std::vector<Distance> want_dist(pairs.size());
  std::vector<Path> want_path(pairs.size());
  {
    auto ctx = ch.NewContext();
    for (size_t i = 0; i < pairs.size(); ++i) {
      want_path[i] = ch.PathQuery(ctx.get(), pairs[i].first, pairs[i].second);
      want_dist[i] = ctx->path_distance;
    }
  }
  constexpr size_t kThreads = 8;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = hl.NewContext();
      for (size_t i = t; i < pairs.size(); i += kThreads) {
        if (hl.DistanceQuery(ctx.get(), pairs[i].first, pairs[i].second) !=
            want_dist[i]) {
          mismatches.fetch_add(1);
        }
      }
      for (size_t i = t; i < pairs.size(); i += kThreads) {
        const Path path =
            hl.PathQuery(ctx.get(), pairs[i].first, pairs[i].second);
        if (path != want_path[i] || ctx->path_distance != want_dist[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace roadnet
