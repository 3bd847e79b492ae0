// Offline report over a trace JSONL file written by the query server
// (--trace-out, src/obs/trace.h).
//
//   roadnet_trace --in traces.jsonl [--csv stages.csv] [--top N]
//
// Reads every captured trace, reconstructs per-stage duration
// histograms, and prints the stage table a latency investigation
// starts from: count, p50, p99, and max per lifecycle stage plus the
// end-to-end total. --csv writes the same table machine-readably;
// --top N additionally lists the N slowest requests with their full
// stage decomposition, which is where a tail excursion is localised
// to queueing vs execution vs the socket.
//
// The parser is deliberately a string scanner for the exporter's own
// single-line schema, not a general JSON reader — the two live in one
// repo and validate_metrics.py cross-checks the schema end to end.
//
// Exit status: 0 on success, 1 if the file is unreadable or holds no
// trace records, 2 on usage errors.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace {

using namespace roadnet;

int Usage() {
  std::fprintf(stderr,
               "usage: roadnet_trace --in traces.jsonl"
               " [--csv stages.csv] [--top N]\n");
  return 2;
}

// One parsed JSONL record: the fields the report needs, not the full
// schema (counters are validated by validate_metrics.py instead).
struct TraceRecord {
  std::string trace_id;
  std::string status;
  std::string sampled;
  uint64_t total_ns = 0;
  // duration_ns[stage] is 0 when the stage is absent (shed paths skip
  // execute; only the first request on a connection has an accept
  // stage).
  uint64_t duration_ns[kNumTraceStages] = {};
  bool present[kNumTraceStages] = {};
};

// Scans for `"key":` after `from` and parses the unsigned integer that
// follows. Returns false if the key is absent.
bool FindU64(const std::string& line, const std::string& key, size_t from,
             uint64_t* out, size_t* value_end = nullptr) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle, from);
  if (at == std::string::npos) return false;
  size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  uint64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(line[i] - '0');
    ++i;
  }
  *out = v;
  if (value_end != nullptr) *value_end = i;
  return true;
}

// Scans for `"key":"` after `from` and copies the (escape-free) string
// value. The exporter never emits escapes in these fields.
bool FindString(const std::string& line, const std::string& key, size_t from,
                std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle, from);
  if (at == std::string::npos) return false;
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

std::optional<TraceStage> StageByName(const std::string& name) {
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    if (name == TraceStageName(stage)) return stage;
  }
  return std::nullopt;
}

bool ParseLine(const std::string& line, TraceRecord* rec) {
  if (!FindString(line, "trace_id", 0, &rec->trace_id)) return false;
  if (!FindU64(line, "total_ns", 0, &rec->total_ns)) return false;
  FindString(line, "status", 0, &rec->status);
  FindString(line, "sampled", 0, &rec->sampled);
  // Stage objects repeat, so walk the line instead of re-searching
  // from the front.
  size_t cursor = line.find("\"stages\":");
  while (cursor != std::string::npos) {
    std::string name;
    const std::string needle = "\"stage\":\"";
    const size_t at = line.find(needle, cursor);
    if (at == std::string::npos) break;
    const size_t begin = at + needle.size();
    const size_t end = line.find('"', begin);
    if (end == std::string::npos) return false;
    name = line.substr(begin, end - begin);
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    size_t after = end;
    if (!FindU64(line, "start_ns", after, &start_ns, &after)) return false;
    if (!FindU64(line, "end_ns", after, &end_ns, &after)) return false;
    const auto stage = StageByName(name);
    if (stage.has_value() && end_ns >= start_ns) {
      const auto idx = static_cast<size_t>(*stage);
      rec->duration_ns[idx] = end_ns - start_ns;
      rec->present[idx] = true;
    }
    cursor = after;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagSpec spec{{"in", "csv", "top"}, {}};
  std::string parse_error;
  const auto flags = ParseFlags(argc, argv, 1, spec, &parse_error);
  uint64_t top_n = 0;
  if (!flags.has_value() ||
      !NumericFlag(*flags, "top", &top_n, &parse_error)) {
    std::fprintf(stderr, "roadnet_trace: %s\n", parse_error.c_str());
    return Usage();
  }
  if (flags->count("in") == 0) return Usage();
  const std::string path = flags->at("in");

  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "roadnet_trace: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<TraceRecord> records;
  uint64_t malformed = 0;
  std::string line;
  for (int c = std::fgetc(f); ; c = std::fgetc(f)) {
    if (c != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (!line.empty()) {
      TraceRecord rec;
      if (ParseLine(line, &rec)) {
        records.push_back(std::move(rec));
      } else {
        ++malformed;
      }
      line.clear();
    }
    if (c == EOF) break;
  }
  std::fclose(f);

  if (records.empty()) {
    std::fprintf(stderr, "roadnet_trace: no trace records in %s (%llu"
                 " malformed lines)\n",
                 path.c_str(), static_cast<unsigned long long>(malformed));
    return 1;
  }

  Histogram stage_hist[kNumTraceStages];
  Histogram total_hist;
  for (const TraceRecord& rec : records) {
    total_hist.Record(rec.total_ns);
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      if (rec.present[i]) stage_hist[i].Record(rec.duration_ns[i]);
    }
  }

  std::printf("traces:  %zu captured in %s", records.size(), path.c_str());
  if (malformed > 0) {
    std::printf(" (%llu malformed lines skipped)",
                static_cast<unsigned long long>(malformed));
  }
  std::printf("\n\n");
  std::printf("%-15s %10s %12s %12s %12s\n", "stage", "count", "p50_us",
              "p99_us", "max_us");
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const Histogram& h = stage_hist[i];
    if (h.Count() == 0) continue;
    std::printf("%-15s %10llu %12.1f %12.1f %12.1f\n",
                TraceStageName(static_cast<TraceStage>(i)),
                static_cast<unsigned long long>(h.Count()),
                h.ValueAtQuantile(0.50) * 1e-3,
                h.ValueAtQuantile(0.99) * 1e-3, h.Max() * 1e-3);
  }
  std::printf("%-15s %10llu %12.1f %12.1f %12.1f\n", "total",
              static_cast<unsigned long long>(total_hist.Count()),
              total_hist.ValueAtQuantile(0.50) * 1e-3,
              total_hist.ValueAtQuantile(0.99) * 1e-3,
              total_hist.Max() * 1e-3);

  if (flags->count("csv") > 0) {
    const std::string csv_path = flags->at("csv");
    std::FILE* csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "roadnet_trace: cannot write %s\n",
                   csv_path.c_str());
      return 1;
    }
    std::fprintf(csv, "stage,count,p50_us,p99_us,max_us\n");
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      const Histogram& h = stage_hist[i];
      if (h.Count() == 0) continue;
      std::fprintf(csv, "%s,%llu,%.3f,%.3f,%.3f\n",
                   TraceStageName(static_cast<TraceStage>(i)),
                   static_cast<unsigned long long>(h.Count()),
                   h.ValueAtQuantile(0.50) * 1e-3,
                   h.ValueAtQuantile(0.99) * 1e-3, h.Max() * 1e-3);
    }
    std::fprintf(csv, "total,%llu,%.3f,%.3f,%.3f\n",
                 static_cast<unsigned long long>(total_hist.Count()),
                 total_hist.ValueAtQuantile(0.50) * 1e-3,
                 total_hist.ValueAtQuantile(0.99) * 1e-3,
                 total_hist.Max() * 1e-3);
    std::fclose(csv);
    std::printf("\ncsv written to %s\n", csv_path.c_str());
  }

  if (top_n > 0) {
    std::vector<const TraceRecord*> slowest;
    slowest.reserve(records.size());
    for (const TraceRecord& rec : records) slowest.push_back(&rec);
    std::sort(slowest.begin(), slowest.end(),
              [](const TraceRecord* a, const TraceRecord* b) {
                return a->total_ns > b->total_ns;
              });
    if (slowest.size() > top_n) slowest.resize(top_n);
    std::printf("\nslowest %zu:\n", slowest.size());
    for (const TraceRecord* rec : slowest) {
      std::printf("  %s total %.1f us status %s [%s]", rec->trace_id.c_str(),
                  rec->total_ns * 1e-3, rec->status.c_str(),
                  rec->sampled.c_str());
      for (size_t i = 0; i < kNumTraceStages; ++i) {
        if (!rec->present[i]) continue;
        std::printf(" %s=%.1f", TraceStageName(static_cast<TraceStage>(i)),
                    rec->duration_ns[i] * 1e-3);
      }
      std::printf("\n");
    }
  }
  return 0;
}
