// Tracing overhead gate (ours): the cost a served query pays for the
// tracing instrumentation when tracing is idle must stay within noise.
//
//   bench_trace_overhead [--quick] [--out BENCH_trace_overhead.json]
//
// Runs the CH distance core over the Q6..Q10 workloads twice per
// sample: a plain loop, and a loop that makes, around each query, the
// tracer calls QueryServer::OnFrame makes per request (StartRequest, one
// RecordStage per stage on shared boundary stamps, Finish on the loop's
// shard) against a tracer whose runtime capture is OFF (no head
// sampling, no slow threshold). It times only those calls, not the
// decode, encode and send around them. That is the configuration every
// production request pays when nobody is looking, so the gate holds
// its cost to <= 2% of the plain loop (exit 1 past the bound; this is
// a scripts/check.sh hard gate). The fully-ON cost (sample every
// request, capture everything) is measured and reported too, ungated:
// it is the price of turning the knob, not of shipping the feature.
//
// Estimator: each of 21 samples runs one plain and one traced pass over
// the pair set back to back, alternating which goes first, and yields
// one traced/plain ratio; the gate reads the median ratio. Pairing
// cancels the machine's drift between samples, and the median of paired
// ratios is steadier than the ratio of two separately taken minima.
//
// Both loops must produce identical distance checksums — the
// instrumentation cannot be allowed to change answers.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "workload/query_gen.h"

namespace roadnet {
namespace {

// Aggregate Q6..Q10 pairs: the long-range sets where per-query cost is
// highest and a fixed instrumentation cost is proportionally smallest —
// matching the traffic mix the 2% budget is written against.
std::vector<std::pair<VertexId, VertexId>> LongRangePairs(
    const std::vector<QuerySet>& sets) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (const QuerySet& set : sets) {
    if (set.name >= "Q6" || set.name == "Q10") {
      pairs.insert(pairs.end(), set.pairs.begin(), set.pairs.end());
    }
  }
  return pairs;
}

// One plain pass; returns wall micros, accumulates the distance sum.
double PlainPass(const ChIndex& index, QueryContext* ctx,
                 const std::vector<std::pair<VertexId, VertexId>>& pairs,
                 uint64_t* checksum) {
  uint64_t sum = 0;
  Timer timer;
  for (const auto& [s, t] : pairs) {
    sum += index.DistanceQuery(ctx, s, t);
  }
  const double micros = timer.ElapsedMicros();
  *checksum = sum;
  return micros;
}

// One instrumented pass: per query the stamps QueryServer::OnFrame
// makes around a request, against `tracer`. The loop's frame-buffered
// stamp is stood in for by one more trace clock read (there is no read).
double TracedPass(const ChIndex& index, QueryContext* ctx,
                  const std::vector<std::pair<VertexId, VertexId>>& pairs,
                  Tracer* tracer, uint64_t* checksum) {
  uint64_t sum = 0;
  Timer timer;
  for (const auto& [s, t] : pairs) {
    RequestTrace trace;
    tracer->StartRequest(&trace);
    const uint64_t frame_end_ns = trace.NowNs();
    trace.RecordStage(TraceStage::kFrameRead, frame_end_ns, frame_end_ns);
    const uint64_t admitted_ns = trace.NowNs();
    trace.RecordStage(TraceStage::kEnqueue, frame_end_ns, admitted_ns);
    sum += index.DistanceQuery(ctx, s, t);
    const uint64_t reply_start_ns = trace.NowNs();
    trace.RecordStage(TraceStage::kExecute, admitted_ns, reply_start_ns);
    trace.RecordStage(TraceStage::kReplyWrite, reply_start_ns, trace.NowNs());
    tracer->Finish(0, &trace);
  }
  const double micros = timer.ElapsedMicros();
  *checksum = sum;
  return micros;
}

}  // namespace
}  // namespace roadnet

int main(int argc, char** argv) {
  using namespace roadnet;

  bool quick = false;
  std::string out_path = "BENCH_trace_overhead.json";
  if (!bench::ParseQuickOut(argc, argv, &quick, &out_path)) return 2;

  // One dataset suffices: the gate is a ratio on one workload, not a
  // sweep. Quick mode takes FL' (sub-second contraction); the full run
  // takes W-US', the same dataset the layout-ablation gate uses.
  const char* wanted = quick ? "FL'" : "W-US'";
  const DatasetSpec* spec = nullptr;
  for (const auto& s : PaperDatasets()) {
    if (s.name == wanted) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "dataset %s missing from PaperDatasets()\n", wanted);
    return 1;
  }

  Graph g = BuildDataset(*spec);
  ChIndex index(g);
  const auto sets = GenerateLInfQuerySets(g, quick ? 250 : 500, 7700);
  const auto pairs = LongRangePairs(sets);
  if (pairs.empty()) {
    std::fprintf(stderr, "no Q6..Q10 pairs on %s\n", spec->name.c_str());
    return 1;
  }

  TracerOptions topt;
  topt.sample_every = 0;                    // runtime OFF: the gated config
  topt.slow_micros = kTraceSlowDisabled;
  topt.shards = 1;
  Tracer idle_tracer(topt);

  auto ctx = index.NewContext();

  constexpr int kSamples = 21;
  uint64_t plain_sum = 0, traced_sum = 0;
  PlainPass(index, ctx.get(), pairs, &plain_sum);  // warm-up
  TracedPass(index, ctx.get(), pairs, &idle_tracer, &traced_sum);
  if (plain_sum != traced_sum) {
    std::fprintf(stderr, "FAIL: traced loop changed distances\n");
    return 1;
  }
  std::vector<double> plain(kSamples), traced(kSamples), ratios(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    if (i % 2 == 0) plain[i] = PlainPass(index, ctx.get(), pairs, &plain_sum);
    traced[i] = TracedPass(index, ctx.get(), pairs, &idle_tracer, &traced_sum);
    if (i % 2 == 1) plain[i] = PlainPass(index, ctx.get(), pairs, &plain_sum);
    ratios[i] = traced[i] / plain[i];
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };

  // Ungated reference point: everything captured (head sample every
  // request AND a zero slow threshold), ring drops tolerated since no
  // exporter drains it.
  TracerOptions on_opt = topt;
  on_opt.sample_every = 1;
  on_opt.slow_micros = 0;
  Tracer on_tracer(on_opt);
  std::vector<double> on(kSamples);
  for (double& sample : on) {
    sample = TracedPass(index, ctx.get(), pairs, &on_tracer, &traced_sum);
  }

  const double n = static_cast<double>(pairs.size());
  const double plain_us = median(plain) / n;
  const double idle_us = median(traced) / n;
  const double on_us = median(on) / n;
  const double ratio = median(ratios);

  std::printf("trace overhead (%s, %zu Q6..Q10 distance queries)\n",
              spec->name.c_str(), pairs.size());
  std::printf("  plain:          %8.3f us/query\n", plain_us);
  std::printf("  traced (idle):  %8.3f us/query  (median of %d paired"
              " ratios %.4f, budget 1.02)\n",
              idle_us, kSamples, ratio);
  std::printf("  traced (full):  %8.3f us/query  (ungated reference)\n",
              on_us);

  MetricsRegistry metrics;
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"dataset", spec->name}};
  metrics.Add("trace_overhead_plain_us", plain_us, labels);
  metrics.Add("trace_overhead_idle_us", idle_us, labels);
  metrics.Add("trace_overhead_idle_ratio", ratio, labels);
  metrics.Add("trace_overhead_on_us", on_us, labels);
  if (!metrics.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (ratio > 1.02) {
    std::fprintf(stderr,
                 "FAIL: idle tracing costs %.2f%% (> 2%% budget) on the "
                 "untraced hot path\n",
                 (ratio - 1.0) * 100.0);
    return 1;
  }
  return 0;
}
