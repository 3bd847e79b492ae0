#include "io/serialize.h"

#include <cstdio>
#include <sstream>

#include "ch/ch_index.h"
#include "hl/hl_index.h"
#include "io/binary.h"
#include "io/crc32.h"
#include "poi/poi_set.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(GraphSerialization, RoundTripsInMemory) {
  Graph g = TestNetwork(500, 7);
  std::stringstream buffer;
  WriteGraph(g, buffer);
  std::string error;
  auto loaded = ReadGraph(buffer, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->NumVertices(), g.NumVertices());
  ASSERT_EQ(loaded->NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_TRUE(loaded->Coord(v) == g.Coord(v));
    auto a = g.Neighbors(v);
    auto b = loaded->Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
  }
}

TEST(GraphSerialization, RoundTripsOnDisk) {
  Graph g = TestNetwork(300, 9);
  const std::string path = ::testing::TempDir() + "/roadnet_graph.bin";
  std::string error;
  ASSERT_TRUE(WriteGraphFile(g, path, &error)) << error;
  auto loaded = ReadGraphFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  std::remove(path.c_str());
}

TEST(GraphSerialization, RejectsGarbage) {
  std::stringstream buffer("this is not a graph file at all");
  std::string error;
  EXPECT_FALSE(ReadGraph(buffer, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(GraphSerialization, RejectsTruncation) {
  Graph g = TestNetwork(300, 11);
  std::stringstream buffer;
  WriteGraph(g, buffer);
  const std::string full = buffer.str();
  for (size_t cut : {size_t{4}, size_t{20}, full.size() / 2,
                     full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    std::string error;
    EXPECT_FALSE(ReadGraph(truncated, &error).has_value())
        << "cut at " << cut;
  }
}

TEST(GraphSerialization, RejectsEverySingleByteFlip) {
  Graph g = TestNetwork(120, 17);
  std::stringstream buffer;
  WriteGraph(g, buffer);
  const std::string full = buffer.str();
  // A flip anywhere — magic, version, length, payload, or the CRC32
  // trailer itself — must be rejected, never parsed into a graph.
  for (size_t i = 0; i < full.size(); ++i) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    std::stringstream in(corrupt);
    std::string error;
    EXPECT_FALSE(ReadGraph(in, &error).has_value()) << "flip at byte " << i;
    EXPECT_FALSE(error.empty()) << "flip at byte " << i;
  }
}

TEST(GraphSerialization, ChecksumErrorIsDescriptive) {
  Graph g = TestNetwork(120, 18);
  std::stringstream buffer;
  WriteGraph(g, buffer);
  std::string corrupt = buffer.str();
  corrupt[corrupt.size() / 2] ^= 0x01;  // one bit, mid-payload
  std::stringstream in(corrupt);
  std::string error;
  EXPECT_FALSE(ReadGraph(in, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ChSerialization, RejectsEverySingleByteFlip) {
  Graph g = TestNetwork(150, 19);
  ChIndex ch(g);
  std::stringstream buffer;
  ch.Serialize(buffer);
  const std::string full = buffer.str();
  // Stride through the file (it is larger than a graph file); every
  // sampled flip plus the first and last 64 bytes must be rejected.
  std::vector<size_t> positions;
  for (size_t i = 0; i < full.size(); i += 13) positions.push_back(i);
  for (size_t i = 0; i < 64 && i < full.size(); ++i) {
    positions.push_back(i);
    positions.push_back(full.size() - 1 - i);
  }
  for (size_t i : positions) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    std::stringstream in(corrupt);
    std::string error;
    EXPECT_EQ(ChIndex::Deserialize(g, in, &error), nullptr)
        << "flip at byte " << i;
    EXPECT_FALSE(error.empty()) << "flip at byte " << i;
  }
}

TEST(ChSerialization, RoundTripPreservesAnswers) {
  Graph g = TestNetwork(700, 13);
  ChIndex original(g);
  std::stringstream buffer;
  original.Serialize(buffer);
  std::string error;
  auto restored = ChIndex::Deserialize(g, buffer, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->NumShortcuts(), original.NumShortcuts());
  const auto restored_ctx = restored->NewContext();
  const auto original_ctx = original.NewContext();
  for (auto [s, t] : RandomPairs(g, 150, 5)) {
    EXPECT_EQ(restored->DistanceQuery(restored_ctx.get(), s, t),
              original.DistanceQuery(original_ctx.get(), s, t));
    EXPECT_EQ(restored->PathQuery(restored_ctx.get(), s, t),
              original.PathQuery(original_ctx.get(), s, t));
  }
  // The restored index remains correct against ground truth too.
  ExpectIndexCorrect(g, restored.get(), 60, 21);
}

TEST(ChSerialization, V3RoundTripPreservesRanksPermutationAndArcs) {
  Graph g = TestNetwork(600, 23);
  ChIndex original(g);
  std::stringstream buffer;
  original.Serialize(buffer);
  std::string error;
  auto restored = ChIndex::Deserialize(g, buffer, &error);
  ASSERT_NE(restored, nullptr) << error;
  // Rank permutation restored exactly.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(restored->RankOf(v), original.RankOf(v)) << "v=" << v;
  }
  EXPECT_EQ(restored->NumShortcuts(), original.NumShortcuts());
  EXPECT_EQ(restored->IndexBytes(), original.IndexBytes());
  // Byte-identical re-serialization pins every array — offsets, hot
  // arcs, and cold unpack records — not just the query-visible behavior.
  std::stringstream again;
  restored->Serialize(again);
  std::stringstream first;
  original.Serialize(first);
  EXPECT_EQ(again.str(), first.str());
}

TEST(ChSerialization, RejectsV2WithRerunHint) {
  Graph g = TestNetwork(200, 29);
  ChIndex ch(g);
  std::stringstream buffer;
  ch.Serialize(buffer);
  std::string data = buffer.str();
  // The version field is the little-endian uint32 right after the 8-byte
  // magic; rewriting it to 2 simulates a pre-rank-space index file.
  data[8] = 2;
  data[9] = data[10] = data[11] = 0;
  std::stringstream in(data);
  std::string error;
  EXPECT_EQ(ChIndex::Deserialize(g, in, &error), nullptr);
  EXPECT_NE(error.find("re-run preprocess"), std::string::npos) << error;
}

TEST(ChSerialization, RejectsWrongGraph) {
  Graph g1 = TestNetwork(500, 1);
  Graph g2 = TestNetwork(900, 2);
  ChIndex ch(g1);
  std::stringstream buffer;
  ch.Serialize(buffer);
  std::string error;
  EXPECT_EQ(ChIndex::Deserialize(g2, buffer, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ChSerialization, RejectsCorruptedArcTargets) {
  Graph g = TestNetwork(300, 3);
  ChIndex ch(g);
  std::stringstream buffer;
  ch.Serialize(buffer);
  std::string data = buffer.str();
  // Flip bytes near the end (inside the arc block) to force an
  // out-of-range target, and verify validation rejects it rather than
  // crashing later.
  for (size_t i = data.size() - 12; i < data.size() - 4; ++i) {
    data[i] = static_cast<char>(0xfe);
  }
  std::stringstream corrupted(data);
  std::string error;
  EXPECT_EQ(ChIndex::Deserialize(g, corrupted, &error), nullptr);
}

// --- Header / section-table region (graph v2, CH v3, HL v1) ---
//
// The CRC only covers the checksummed payload block; the 8-byte magic,
// the u32 version word and the u64 payload-length field sit in front of
// it. A flip there must still be rejected — by the magic check, the
// version check, or the length/trailer validation — and every format
// must pin that explicitly, so a future format change cannot move bytes
// out from under the CRC without a test noticing.

constexpr size_t kHeaderBytes = 8 + 4 + 8;  // magic, version, payload length

template <typename Reader>
void ExpectHeaderFlipsRejected(const std::string& full, Reader reader) {
  ASSERT_GT(full.size(), kHeaderBytes);
  for (size_t i = 0; i < kHeaderBytes; ++i) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    std::string error;
    EXPECT_FALSE(reader(corrupt, &error)) << "flip at header byte " << i;
    EXPECT_FALSE(error.empty()) << "flip at header byte " << i;
  }
}

TEST(HeaderRegionSerialization, GraphRejectsEveryHeaderByteFlip) {
  Graph g = TestNetwork(120, 31);
  std::stringstream buffer;
  WriteGraph(g, buffer);
  ExpectHeaderFlipsRejected(
      buffer.str(), [](const std::string& bytes, std::string* error) {
        std::stringstream in(bytes);
        return ReadGraph(in, error).has_value();
      });
}

TEST(HeaderRegionSerialization, ChRejectsEveryHeaderByteFlip) {
  Graph g = TestNetwork(150, 33);
  ChIndex ch(g);
  std::stringstream buffer;
  ch.Serialize(buffer);
  ExpectHeaderFlipsRejected(
      buffer.str(), [&g](const std::string& bytes, std::string* error) {
        std::stringstream in(bytes);
        return ChIndex::Deserialize(g, in, error) != nullptr;
      });
}

TEST(HeaderRegionSerialization, HlRejectsEveryHeaderByteFlip) {
  Graph g = TestNetwork(150, 35);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  std::stringstream buffer;
  hl.Serialize(buffer);
  ExpectHeaderFlipsRejected(
      buffer.str(), [&](const std::string& bytes, std::string* error) {
        std::stringstream in(bytes);
        return HlIndex::Deserialize(g, ch, in, error) != nullptr;
      });
}

TEST(HeaderRegionSerialization, PoiRejectsEveryHeaderByteFlip) {
  Graph g = TestNetwork(150, 37);
  PoiConfig config;
  config.categories = {{"restaurant", 0.05}, {"fuel", 0.01}};
  config.seed = 37;
  const PoiSet pois = PoiSet::Generate(g, config);
  std::stringstream buffer;
  pois.Serialize(buffer);
  ExpectHeaderFlipsRejected(
      buffer.str(), [](const std::string& bytes, std::string* error) {
        std::stringstream in(bytes);
        return PoiSet::Deserialize(in, error) != nullptr;
      });
}

TEST(HeaderRegionSerialization, LyingLengthsFailBeforeAllocating) {
  // A flipped high byte of a length field can claim gigabytes. The
  // decoders must see that fewer bytes follow and fail as truncation
  // before allocating the claim: several such allocations at once (one
  // per parallel test) exhaust the machine's memory.
  std::stringstream payload_in;
  WriteScalar<uint64_t>(payload_in, uint64_t{1} << 30);  // 1 GiB claimed
  payload_in.write("tiny", 4);
  std::string payload, error;
  EXPECT_FALSE(ReadChecksummedPayload(payload_in, &payload, "test", &error));
  EXPECT_NE(error.find("truncated payload"), std::string::npos) << error;
  EXPECT_LT(payload.capacity(), size_t{1} << 20);

  std::stringstream vector_in;
  WriteScalar<uint64_t>(vector_in, uint64_t{1} << 28);  // 1 GiB of u32
  vector_in.write("tiny", 4);
  std::vector<uint32_t> v;
  EXPECT_FALSE(ReadVector(vector_in, &v));
  EXPECT_LT(v.capacity(), size_t{1} << 20);
}

}  // namespace
}  // namespace roadnet
