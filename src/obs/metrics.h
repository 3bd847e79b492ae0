#ifndef ROADNET_OBS_METRICS_H_
#define ROADNET_OBS_METRICS_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/query_counters.h"

namespace roadnet {

// One named measurement with optional key=value labels, e.g.
//   {name="query_p99_micros", value=41.2,
//    labels={{"method","CH"},{"dataset","CO'"}}}.
struct MetricPoint {
  std::string name;
  double value = 0;
  std::vector<std::pair<std::string, std::string>> labels;
};

// Accumulates MetricPoints and snapshots them to JSONL or CSV — the
// roadnet_cli --metrics-out backend. A registry is a plain container
// (no locking): build it after the measured work completes.
class MetricsRegistry {
 public:
  void Add(std::string name, double value,
           std::vector<std::pair<std::string, std::string>> labels = {});

  // Emits one point per counter field ("vertices_settled", ...), each
  // carrying the same label set. `scale` multiplies every count and
  // `suffix` ends every name (1/queries and "_per_query" give per-query
  // points).
  void AddCounters(const QueryCounters& counters,
                   std::vector<std::pair<std::string, std::string>> labels = {},
                   double scale = 1.0, const std::string& suffix = "");

  // Emits count/min/mean/p50/p90/p99/p999/max points for a histogram.
  // `scale` converts the histogram's unit into the reported one (e.g.
  // 1e-3 for nanoseconds recorded, microseconds reported).
  void AddHistogram(const std::string& prefix, const Histogram& h,
                    double scale = 1.0,
                    std::vector<std::pair<std::string, std::string>> labels = {});

  const std::vector<MetricPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  // One JSON object per line: {"name":...,"value":...,"labels":{...}}.
  // Non-finite values are emitted as null (JSON has no NaN/Inf).
  void WriteJsonl(std::ostream& out) const;

  // Header "name,value,labels"; labels flattened to "k=v;k=v" and
  // CSV-escaped. Non-finite values print as nan/inf/-inf.
  void WriteCsv(std::ostream& out) const;

  // Picks the format from the extension: ".csv" writes CSV, anything
  // else JSONL. Returns false (and writes nothing) if the file cannot
  // be opened.
  bool WriteFile(const std::string& path) const;

 private:
  std::vector<MetricPoint> points_;
};

// JSON string-literal escaping (quotes, backslashes, control chars);
// returns the escaped body without surrounding quotes.
std::string JsonEscape(const std::string& s);

// CSV field quoting (doubles embedded quotes, wraps when the field
// contains a comma, quote, or newline).
std::string CsvEscape(const std::string& field);

}  // namespace roadnet

#endif  // ROADNET_OBS_METRICS_H_
