#include "hl/hl_index.h"

#include <atomic>
#include <sstream>
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
// highest rank first, each label either follows the previous one in its
// block or starts a new block, at the same ranks in both indexes (CO′
// fills 13 blocks).
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
    const HlIndex::HubEntry* end = nullptr;
    for (uint32_t r = g.NumVertices(); r-- > 0;) {
      const auto label = hl.Label(ch.VertexAtRank(r));
      if (label.data() != end) ranks.push_back(r);
      end = label.data() + label.size();
    }
    return ranks;
  };
  const std::vector<uint32_t> starts = block_starts(built);
  EXPECT_EQ(starts.size(), 13u);
  EXPECT_EQ(block_starts(*restored), starts);
  EXPECT_EQ(restored->LabelBytes(), built.LabelBytes());
  EXPECT_EQ(Fingerprint(*restored, g.NumVertices()),
            Fingerprint(built, g.NumVertices()));
}

// A label longer than a block gets a block of its own length. This file
// gives a star's centre a label of every vertex at its true distance, 1,
// and each leaf its built label {leaf, centre}. The labels are exact, so
// the index must answer right, and it must write back the bytes it read.
// The hierarchy contracts the leaves first, which needs no shortcut;
// it is given rather than contracted, since ContractGraph plans every
// pair of the centre's 8,193 neighbours as a shortcut while it weighs
// the centre (about 2 s and 1 GB).
TEST(HubLabelSerialization, LabelLongerThanABlockGetsABlockOfItsOwn) {
  const uint32_t n = HlIndex::kBlockEntries + 2;
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
  std::ostringstream payload;
  WriteScalar<uint32_t>(payload, n);
  WriteVector(payload, offsets);
  WriteVector(payload, entries);
  std::ostringstream file;
  file.write("RNETHLIX", 8);
  WriteScalar<uint32_t>(file, 1);
  WriteChecksummedPayload(file, payload.view());

  std::istringstream in(file.str());
  std::string error;
  const auto hl = HlIndex::Deserialize(g, ch, in, &error);
  ASSERT_NE(hl, nullptr) << error;
  EXPECT_EQ(hl->Label(0).size(), n);
  EXPECT_EQ(hl->MaxLabelEntries(), n);
  std::ostringstream again;
  hl->Serialize(again);
  EXPECT_EQ(again.str(), file.str());
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
