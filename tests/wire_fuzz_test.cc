// Byte-dribble fuzzing of the wire layer's incremental frame reassembly
// (server/event_loop.h FrameAssembler): every frame type delivered one
// byte at a time, and under seeded random segmentation, must come out
// identical to whole-frame delivery. TCP guarantees order, not
// boundaries — the assembler may see any split.

#include <cstring>
#include <string>
#include <vector>

#include "server/event_loop.h"
#include "server/wire.h"
#include "util/rng.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// [u32 body_length][body], the stream framing WriteFrame produces.
std::string Framed(const std::string& body) {
  const uint32_t len = static_cast<uint32_t>(body.size());
  std::string out(sizeof(len), '\0');
  std::memcpy(out.data(), &len, sizeof(len));
  out.append(body);
  return out;
}

// One representative body per frame type the protocol defines.
std::vector<std::string> AllFrameBodies() {
  std::vector<std::string> bodies;

  wire::QueryRequest req;
  req.technique = wire::TechniqueId("ch");
  req.kind = wire::QueryKind::kPath;
  req.source = 123456;
  req.target = 654321;
  req.deadline_micros = 777;
  req.request_id = 0xfeedfacecafebeefull;
  bodies.push_back(wire::EncodeQueryRequestV2(req));

  wire::QueryResponse resp;
  resp.status = wire::Status::kOk;
  resp.distance = 42424242;
  resp.server_latency_ns = 987654321;
  resp.path = {9, 8, 7, 6, 5};
  resp.request_id = 31337;
  bodies.push_back(wire::EncodeQueryResponseV2(resp));

  bodies.push_back(wire::EncodeStatsRequest());

  wire::StatsResponse stats;
  stats.served = 1000;
  stats.write_queue_bytes = 4096;
  stats.idle_reaped = 2;
  stats.loop_connections = {5, 7};
  stats.stages.push_back(wire::StageStatWire{1, 50, 100, 900});
  bodies.push_back(wire::EncodeStatsResponse(stats));

  bodies.push_back(wire::EncodeShutdownRequest());
  bodies.push_back(wire::EncodeShutdownResponse());

  wire::TraceConfigRequest cfg;
  cfg.sample_every = 8;
  cfg.slow_micros = 1500;
  bodies.push_back(wire::EncodeTraceConfigRequest(cfg));

  wire::TraceConfigResponse cfg_resp;
  cfg_resp.sample_every = 8;
  cfg_resp.slow_micros = 1500;
  bodies.push_back(wire::EncodeTraceConfigResponse(cfg_resp));

  wire::KnnRequest knn;
  knn.method = wire::KnnMethod::kIer;
  knn.category = 2;
  knn.k = 12;
  knn.source = 4242;
  bodies.push_back(wire::EncodeKnnRequest(knn));

  wire::KnnResponse knn_resp;
  knn_resp.status = wire::Status::kOk;
  knn_resp.entries = {{1, 100}, {2, 200}, {3, 300}};
  bodies.push_back(wire::EncodeKnnResponse(wire::kKnnReply, knn_resp));
  bodies.push_back(
      wire::EncodeKnnResponse(wire::kOneToManyReply, knn_resp));

  wire::OneToManyRequest otm;
  otm.category = 1;
  otm.source = 99;
  bodies.push_back(wire::EncodeOneToManyRequest(otm));

  return bodies;
}

TEST(WireFuzz, EveryFrameTypeSurvivesByteDribble) {
  for (const std::string& body : AllFrameBodies()) {
    SCOPED_TRACE("frame type " + std::to_string(
                     static_cast<int>(*wire::PeekType(body))));
    const std::string stream = Framed(body);
    FrameAssembler assembler;
    std::string got;
    for (size_t i = 0; i < stream.size(); ++i) {
      // Until the final byte lands there must be no frame (and no error).
      ASSERT_EQ(assembler.Next(&got), FrameAssembler::Result::kNeedMore)
          << "byte " << i;
      assembler.Feed(stream.data() + i, 1);
    }
    ASSERT_EQ(assembler.Next(&got), FrameAssembler::Result::kFrame);
    EXPECT_EQ(got, body);
    EXPECT_EQ(assembler.Next(&got), FrameAssembler::Result::kNeedMore);
    EXPECT_EQ(assembler.BufferedBytes(), 0u);
  }
}

TEST(WireFuzz, RandomSegmentationMatchesWholeFrameDelivery) {
  const std::vector<std::string> bodies = AllFrameBodies();
  // One long stream holding every frame type back to back, repeated so
  // splits land inside length prefixes, bodies, and across frames.
  std::string stream;
  std::vector<std::string> expected;
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& body : bodies) {
      stream.append(Framed(body));
      expected.push_back(body);
    }
  }

  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FrameAssembler assembler;
    std::vector<std::string> got;
    size_t pos = 0;
    while (pos < stream.size()) {
      // Chunk sizes biased small so most frames arrive fragmented.
      const size_t chunk =
          1 + rng.NextBelow(rng.NextBool(0.8) ? 7 : 64);
      const size_t n = std::min(chunk, stream.size() - pos);
      assembler.Feed(stream.data() + pos, n);
      pos += n;
      std::string body;
      FrameAssembler::Result r;
      while ((r = assembler.Next(&body)) == FrameAssembler::Result::kFrame) {
        got.push_back(body);
      }
      ASSERT_EQ(r, FrameAssembler::Result::kNeedMore);
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(assembler.BufferedBytes(), 0u);
  }
}

TEST(WireFuzz, OversizedLengthPrefixIsAStickyError) {
  FrameAssembler assembler(/*max_body=*/64);
  const uint32_t huge = 65;
  char prefix[4];
  std::memcpy(prefix, &huge, sizeof(huge));
  // Dribble the prefix: the error must fire exactly when the length is
  // complete, before any body byte is read.
  std::string body;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(assembler.Next(&body), FrameAssembler::Result::kNeedMore);
    assembler.Feed(prefix + i, 1);
  }
  EXPECT_EQ(assembler.Next(&body), FrameAssembler::Result::kError);
  // Sticky: feeding a perfectly valid frame afterwards cannot revive
  // the stream (resync after garbage is not a thing).
  const std::string valid = Framed(wire::EncodeStatsRequest());
  assembler.Feed(valid.data(), valid.size());
  EXPECT_EQ(assembler.Next(&body), FrameAssembler::Result::kError);
}

TEST(WireFuzz, MaxSizeFrameIsAcceptedAtTheBoundary) {
  FrameAssembler assembler(/*max_body=*/64);
  const std::string at_cap(64, 'a');
  const std::string stream = Framed(at_cap);
  assembler.Feed(stream.data(), stream.size());
  std::string body;
  ASSERT_EQ(assembler.Next(&body), FrameAssembler::Result::kFrame);
  EXPECT_EQ(body, at_cap);
}

TEST(WireFuzz, DribbledFramesStillDecode) {
  // End to end through the codec layer: a frame reassembled from single
  // bytes decodes to the same struct as the original.
  wire::QueryRequest req;
  req.request_id = 0x1122334455667788ull;
  req.source = 17;
  req.target = 71;
  const std::string body = wire::EncodeQueryRequestV2(req);
  const std::string stream = Framed(body);
  FrameAssembler assembler;
  for (char c : stream) assembler.Feed(&c, 1);
  std::string got;
  ASSERT_EQ(assembler.Next(&got), FrameAssembler::Result::kFrame);
  const auto decoded = wire::DecodeQueryRequestV2(got);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->source, req.source);
  EXPECT_EQ(decoded->target, req.target);
}

}  // namespace
}  // namespace roadnet
