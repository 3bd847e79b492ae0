#include "graph/dimacs.h"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace roadnet {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// Reads the next non-comment, non-empty line. Returns false at EOF.
bool NextLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    if (line->empty() || (*line)[0] == 'c') continue;
    return true;
  }
  return false;
}

}  // namespace

std::optional<Graph> ReadDimacs(std::istream& gr_stream,
                                std::istream& co_stream,
                                std::string* error) {
  std::string line;

  // --- .gr header ---
  if (!NextLine(gr_stream, &line)) {
    SetError(error, "gr: missing problem line");
    return std::nullopt;
  }
  std::istringstream header(line);
  std::string p, sp;
  uint64_t n = 0, m = 0;
  if (!(header >> p >> sp >> n >> m) || p != "p" || sp != "sp") {
    SetError(error, "gr: malformed problem line: " + line);
    return std::nullopt;
  }
  // Ids 0..n-1 must stay below kInvalidVertex.
  if (n > kInvalidVertex) {
    SetError(error, "gr: vertex count exceeds 32-bit vertex ids: " + line);
    return std::nullopt;
  }

  // --- coordinates ---
  // Read before the arcs, into a buffer that grows with the lines read:
  // nothing is sized from a header, and the builder's n-sized arrays are
  // allocated only once n coordinate lines have arrived.
  if (!NextLine(co_stream, &line)) {
    SetError(error, "co: missing problem line");
    return std::nullopt;
  }
  std::istringstream co_header(line);
  std::string aux, sp2, co;
  uint64_t cn = 0;
  if (!(co_header >> p >> aux >> sp2 >> co >> cn) || p != "p" ||
      aux != "aux" || co != "co") {
    SetError(error, "co: malformed problem line: " + line);
    return std::nullopt;
  }
  if (cn != n) {
    SetError(error, "co: vertex count differs from gr");
    return std::nullopt;
  }
  std::vector<std::pair<VertexId, Point>> coords;
  while (NextLine(co_stream, &line)) {
    std::istringstream vc(line);
    std::string tag;
    uint64_t id = 0;
    int64_t x = 0, y = 0;
    if (!(vc >> tag >> id >> x >> y) || tag != "v") {
      SetError(error, "co: malformed vertex line: " + line);
      return std::nullopt;
    }
    if (id < 1 || id > n) {
      SetError(error, "co: vertex id out of range: " + line);
      return std::nullopt;
    }
    constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
    if (x < kMin || x > kMax || y < kMin || y > kMax) {
      SetError(error, "co: coordinate exceeds 32 bits: " + line);
      return std::nullopt;
    }
    coords.emplace_back(
        static_cast<VertexId>(id - 1),
        Point{static_cast<int32_t>(x), static_cast<int32_t>(y)});
  }
  if (coords.size() != n) {
    SetError(error, "co: coordinate count mismatch");
    return std::nullopt;
  }

  GraphBuilder builder(static_cast<uint32_t>(n));
  std::vector<bool> seen(n, false);
  for (const auto& [id, point] : coords) {
    if (seen[id]) {
      SetError(error, "co: repeated vertex id " + std::to_string(id + 1));
      return std::nullopt;
    }
    seen[id] = true;
    builder.SetCoord(id, point);
  }

  // --- arcs ---
  uint64_t arcs_read = 0;
  while (NextLine(gr_stream, &line)) {
    std::istringstream arc(line);
    std::string tag;
    uint64_t u = 0, v = 0, w = 0;
    if (!(arc >> tag >> u >> v >> w) || tag != "a") {
      SetError(error, "gr: malformed arc line: " + line);
      return std::nullopt;
    }
    if (u < 1 || u > n || v < 1 || v > n) {
      SetError(error, "gr: vertex id out of range: " + line);
      return std::nullopt;
    }
    if (w > std::numeric_limits<Weight>::max()) {
      SetError(error, "gr: arc weight exceeds 32 bits: " + line);
      return std::nullopt;
    }
    if (w == 0) w = 1;  // the model requires positive weights
    builder.AddEdge(static_cast<VertexId>(u - 1),
                    static_cast<VertexId>(v - 1), static_cast<Weight>(w));
    ++arcs_read;
  }
  if (arcs_read != m) {
    SetError(error, "gr: arc count mismatch (header " + std::to_string(m) +
                        ", read " + std::to_string(arcs_read) + ")");
    return std::nullopt;
  }

  return std::move(builder).Build();
}

std::optional<Graph> ReadDimacsFiles(const std::string& gr_path,
                                     const std::string& co_path,
                                     std::string* error) {
  std::ifstream gr(gr_path);
  if (!gr) {
    SetError(error, "cannot open " + gr_path);
    return std::nullopt;
  }
  std::ifstream co(co_path);
  if (!co) {
    SetError(error, "cannot open " + co_path);
    return std::nullopt;
  }
  return ReadDimacs(gr, co, error);
}

void WriteDimacs(const Graph& g, std::ostream& gr_stream,
                 std::ostream& co_stream) {
  gr_stream << "c generated by roadnet\n";
  gr_stream << "p sp " << g.NumVertices() << ' ' << 2 * g.NumEdges() << '\n';
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      gr_stream << "a " << (v + 1) << ' ' << (a.to + 1) << ' ' << a.weight
                << '\n';
    }
  }
  co_stream << "c generated by roadnet\n";
  co_stream << "p aux sp co " << g.NumVertices() << '\n';
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    co_stream << "v " << (v + 1) << ' ' << g.Coord(v).x << ' '
              << g.Coord(v).y << '\n';
  }
}

}  // namespace roadnet
