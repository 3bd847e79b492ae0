#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace roadnet {

namespace {

// Shortest round-trippable decimal form, so 0.5 prints as "0.5" and not
// "0.500000", and integers print without a trailing ".000000".
std::string FormatDouble(double v) {
  char buf[32];
  // Exactly representable integers print in plain form ("70", not the
  // shorter-by-%g "7e+01"): counter values are integral and read often.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = std::strtod(buf, nullptr);
  if (parsed == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[32];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string CsvEscape(const std::string& field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void MetricsRegistry::Add(
    std::string name, double value,
    std::vector<std::pair<std::string, std::string>> labels) {
  points_.push_back({std::move(name), value, std::move(labels)});
}

void MetricsRegistry::AddCounters(
    const QueryCounters& c,
    std::vector<std::pair<std::string, std::string>> labels, double scale,
    const std::string& suffix) {
  const std::pair<const char*, uint64_t> fields[] = {
      {"vertices_settled", c.vertices_settled},
      {"edges_relaxed", c.edges_relaxed},
      {"heap_pushes", c.heap_pushes},
      {"heap_pops", c.heap_pops},
      {"shortcuts_unpacked", c.shortcuts_unpacked},
      {"edge_searches", c.edge_searches},
      {"table_lookups", c.table_lookups},
      {"tree_lookups", c.tree_lookups}};
  for (const auto& [name, count] : fields) {
    Add(name + suffix, static_cast<double>(count) * scale, labels);
  }
}

void MetricsRegistry::AddHistogram(
    const std::string& prefix, const Histogram& h, double scale,
    std::vector<std::pair<std::string, std::string>> labels) {
  Add(prefix + "_count", static_cast<double>(h.Count()), labels);
  Add(prefix + "_min", static_cast<double>(h.Min()) * scale, labels);
  Add(prefix + "_mean", h.Mean() * scale, labels);
  Add(prefix + "_p50", static_cast<double>(h.ValueAtQuantile(0.50)) * scale,
      labels);
  Add(prefix + "_p90", static_cast<double>(h.ValueAtQuantile(0.90)) * scale,
      labels);
  Add(prefix + "_p99", static_cast<double>(h.ValueAtQuantile(0.99)) * scale,
      labels);
  Add(prefix + "_p999", static_cast<double>(h.ValueAtQuantile(0.999)) * scale,
      labels);
  Add(prefix + "_max", static_cast<double>(h.Max()) * scale,
      std::move(labels));
}

void MetricsRegistry::WriteJsonl(std::ostream& out) const {
  for (const MetricPoint& p : points_) {
    out << "{\"name\":\"" << JsonEscape(p.name) << "\",\"value\":";
    if (std::isfinite(p.value)) {
      out << FormatDouble(p.value);
    } else {
      out << "null";  // JSON has no NaN/Infinity literal
    }
    if (!p.labels.empty()) {
      out << ",\"labels\":{";
      bool first = true;
      for (const auto& [k, v] : p.labels) {
        if (!first) out << ',';
        first = false;
        out << '"' << JsonEscape(k) << "\":\"" << JsonEscape(v) << '"';
      }
      out << '}';
    }
    out << "}\n";
  }
}

void MetricsRegistry::WriteCsv(std::ostream& out) const {
  out << "name,value,labels\n";
  for (const MetricPoint& p : points_) {
    std::string value;
    if (std::isfinite(p.value)) {
      value = FormatDouble(p.value);
    } else if (std::isnan(p.value)) {
      value = "nan";
    } else {
      value = p.value > 0 ? "inf" : "-inf";
    }
    std::string labels;
    for (const auto& [k, v] : p.labels) {
      if (!labels.empty()) labels += ';';
      labels += k + "=" + v;
    }
    out << CsvEscape(p.name) << ',' << value << ',' << CsvEscape(labels)
        << '\n';
  }
}

bool MetricsRegistry::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    WriteCsv(out);
  } else {
    WriteJsonl(out);
  }
  return out.good();
}

}  // namespace roadnet
