// Fuzz harness for the hub-label decoder (HlIndex::Deserialize). Each
// input is an HL payload (vertex count, offset block, label block): the
// harness wraps it in the file header and a valid CRC32 trailer, so the
// bytes reach the structural validator (CSR offsets, hub order and
// range, self-hubs) instead of stopping at the checksum. The labels are
// read over a fixed small graph and hierarchy. An accepted index must
// answer a merge query from every vertex to itself (0) and to a few
// other vertices without reading out of bounds, and must read back what
// it writes. Violations trap (libFuzzer and the fallback replay driver
// both turn that into a crash with the offending input).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "graph/generator.h"
#include "hl/hl_index.h"
#include "io/binary.h"
#include "io/crc32.h"
#include "tests/fuzz/fuzz_main.h"

namespace roadnet {
namespace {

#define FUZZ_CHECK(cond) \
  do {                   \
    if (!(cond)) __builtin_trap(); \
  } while (0)

// The HL file header (format v1): what HlIndex::Serialize writes before
// its checksummed payload.
constexpr char kHlMagic[8] = {'R', 'N', 'E', 'T', 'H', 'L', 'I', 'X'};
constexpr uint32_t kHlVersion = 1;

struct Fixture {
  Graph graph;
  ChIndex ch;

  Fixture() : graph(MakeGraph()), ch(graph) {}

  static Graph MakeGraph() {
    GeneratorConfig config;
    config.target_vertices = 48;
    config.seed = 11;
    return GenerateRoadNetwork(config);
  }
};

const Fixture& GetFixture() {
  static const Fixture* const fixture = new Fixture();
  return *fixture;
}

std::string WrapPayload(const std::string& payload) {
  std::ostringstream out;
  WriteMagic(out, kHlMagic);
  WriteScalar<uint32_t>(out, kHlVersion);
  WriteChecksummedPayload(out, payload);
  return out.str();
}

std::string Payload(uint32_t n, const std::vector<uint64_t>& offsets,
                    const std::vector<HlIndex::HubEntry>& labels) {
  std::ostringstream out;
  WriteScalar<uint32_t>(out, n);
  WriteVector(out, offsets);
  WriteVector(out, labels);
  return out.str();
}

void WriteFile(const std::string& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

namespace fuzz {

// The real payload of the fixture's labels, plus one variant per
// validator rule, so the fuzzer starts next to every rejecting branch.
void WriteSeedCorpus(const std::string& dir) {
  const Fixture& f = GetFixture();
  const uint32_t n = f.graph.NumVertices();
  const HlIndex hl(f.graph, f.ch);
  std::vector<uint64_t> offsets = {0};
  std::vector<HlIndex::HubEntry> labels;
  for (VertexId v = 0; v < n; ++v) {
    for (const HlIndex::HubEntry& e : hl.Label(v)) labels.push_back(e);
    offsets.push_back(labels.size());
  }
  const std::string valid = Payload(n, offsets, labels);
  WriteFile(dir, "valid.bin", valid);
  WriteFile(dir, "truncated.bin", valid.substr(0, valid.size() / 2));
  WriteFile(dir, "empty.bin", std::string());
  WriteFile(dir, "wrong_vertex_count.bin", Payload(n + 1, offsets, labels));
  std::vector<HlIndex::HubEntry> long_labels = labels;
  long_labels.push_back(labels.back());
  WriteFile(dir, "labels_past_offsets.bin",
            Payload(n, offsets, long_labels));

  std::vector<uint64_t> bad_offsets = offsets;
  std::swap(bad_offsets[1], bad_offsets[2]);
  WriteFile(dir, "offsets_not_monotone.bin",
            Payload(n, bad_offsets, labels));

  // Vertex 0's label is its first offsets[1] entries.
  std::vector<HlIndex::HubEntry> bad_labels = labels;
  bad_labels[0].hub = n;
  WriteFile(dir, "hub_out_of_range.bin", Payload(n, offsets, bad_labels));
  bad_labels = labels;
  std::swap(bad_labels[0], bad_labels[1]);
  WriteFile(dir, "hubs_not_ascending.bin", Payload(n, offsets, bad_labels));
  bad_labels = labels;
  for (HlIndex::HubEntry& e : bad_labels) {
    if (e.hub == f.ch.RankOf(0)) e.dist = 1;
  }
  WriteFile(dir, "self_hub_not_zero.bin", Payload(n, offsets, bad_labels));
  bad_labels = labels;
  for (uint64_t i = 0; i < offsets[1]; ++i) {
    if (bad_labels[i].hub == f.ch.RankOf(0)) {
      bad_labels.erase(bad_labels.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  bad_offsets = offsets;
  for (size_t v = 1; v < bad_offsets.size(); ++v) --bad_offsets[v];
  WriteFile(dir, "missing_self_hub.bin",
            Payload(n, bad_offsets, bad_labels));
}

}  // namespace fuzz
}  // namespace roadnet

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace roadnet;
  const Fixture& f = GetFixture();
  const std::string payload(reinterpret_cast<const char*>(data), size);
  std::istringstream in(WrapPayload(payload));
  std::string error;
  const std::unique_ptr<HlIndex> hl =
      HlIndex::Deserialize(f.graph, f.ch, in, &error);
  if (hl == nullptr) {
    FUZZ_CHECK(!error.empty());
    return 0;
  }
  const uint32_t n = f.graph.NumVertices();
  const auto ctx = hl->NewContext();
  for (VertexId v = 0; v < n; ++v) {
    FUZZ_CHECK(hl->DistanceQuery(ctx.get(), v, v) == 0);
    for (const VertexId t : {(v + 1) % n, (v * 7 + 3) % n, n - 1 - v}) {
      hl->DistanceQuery(ctx.get(), v, t);
    }
  }
  std::stringstream again;
  hl->Serialize(again);
  const std::unique_ptr<HlIndex> restored =
      HlIndex::Deserialize(f.graph, f.ch, again, &error);
  FUZZ_CHECK(restored != nullptr);
  FUZZ_CHECK(restored->NumLabelEntries() == hl->NumLabelEntries());
  return 0;
}
