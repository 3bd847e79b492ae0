// kNN over POI sets: bucket-CH vs IER vs the index-free Dijkstra
// expansion, sweeping k and POI density (the paper's R-set selectivity
// convention, powers of ten). All three strategies must return
// bit-identical result lists — ties break ascending on vertex id — so
// every measured number is guarded by an exact three-way comparison,
// and one-to-many must equal kNN with k = |category|.
//
//   bench_knn [--quick] [--out BENCH_knn.json]
//
// Prints a paper-style table per dataset plus bucket-space and IER
// lower-bound summaries, and writes machine-readable JSONL (validated
// by scripts/validate_metrics.py). Exits nonzero on any result
// mismatch, or if bucket-CH is not faster than brute-force Dijkstra on
// the aggregate kNN workload of the largest dataset — the regression
// gate scripts/check.sh runs (IER is reported for comparison, not
// gated: on sparse categories its certified Euclidean bound degrades
// toward a linear scan and that is expected, not a regression).

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "knn/ier.h"
#include "knn/knn_index.h"
#include "obs/metrics.h"
#include "poi/poi_set.h"
#include "routing/knn.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/datasets.h"

namespace roadnet {
namespace {

constexpr uint32_t kSweepK[] = {1, 4, 10, 50};

// Average microseconds per query, best of three passes (callers
// interleave methods so slow machine phases hit all of them).
template <typename Pass>
double MeasureAvg(size_t queries, const Pass& pass) {
  double best = -1;
  for (int sample = 0; sample < 3; ++sample) {
    Timer timer;
    pass();
    const double avg = timer.ElapsedMicros() / static_cast<double>(queries);
    if (best < 0 || avg < best) best = avg;
  }
  return best;
}

}  // namespace
}  // namespace roadnet

int main(int argc, char** argv) {
  using namespace roadnet;

  bool quick = false;
  std::string out_path = "BENCH_knn.json";
  if (!bench::ParseQuickOut(argc, argv, &quick, &out_path)) return 2;

  // Quick mode gates on FL' — large enough that the sparse-category
  // Dijkstra expansions dominate the brute-force column the way they do
  // at paper scale, small enough for CI. Full mode adds W-US' as the
  // gated dataset.
  std::vector<DatasetSpec> specs;
  for (const auto& spec : PaperDatasets()) {
    if (spec.name == "FL'" || (!quick && spec.name == "W-US'")) {
      specs.push_back(spec);
    }
  }

  // The density sweep: one category per power of ten. On FL' (10700
  // vertices) this is ~107 / ~11 / ~1 POIs, so the k sweep crosses both
  // the k < |category| and k > |category| regimes.
  const char* kCategorySpec = "restaurant:0.01,fuel:0.001,hotel:0.0001";

  MetricsRegistry metrics;
  std::printf("kNN: bucket-CH vs IER vs brute-force Dijkstra "
              "(k in {1,4,10,50} x POI density)\n");

  const size_t sources_per_cell = quick ? 30 : 120;
  bool gate_failed = false;
  for (size_t di = 0; di < specs.size(); ++di) {
    const DatasetSpec& spec = specs[di];
    const bool largest = di + 1 == specs.size();
    Graph g = BuildDataset(spec);
    ChIndex ch(g);

    PoiConfig poi_config;
    std::string parse_error;
    if (!ParsePoiCategories(kCategorySpec, &poi_config.categories,
                            &parse_error)) {
      std::fprintf(stderr, "bad category spec: %s\n", parse_error.c_str());
      return 1;
    }
    poi_config.seed = 9000 + spec.seed;
    const PoiSet pois = PoiSet::Generate(g, poi_config);

    const Timer bucket_timer;
    KnnBucketIndex bucket(ch, pois);
    const double bucket_build_seconds = bucket_timer.ElapsedSeconds();
    IerKnnIndex ier(g, ch, pois);

    std::printf("\n(%s)  n=%u, %zu POIs, bucket build %.2fs, "
                "%zu bucket entries (%.2f MiB), IER rho=%.3f\n",
                spec.name.c_str(), g.NumVertices(), pois.NumPois(),
                bucket_build_seconds, bucket.NumBucketEntries(),
                BytesToMiB(bucket.IndexBytes()), ier.LowerBoundScale());
    std::printf("%-12s %4s %6s  %10s %10s %10s  %8s %8s\n", "category", "k",
                "|cat|", "bucket us", "ier us", "brute us", "settled",
                "probes");
    bench::PrintRule(78);

    KnnBucketIndex::Context bucket_ctx = bucket.NewContext();
    IerKnnIndex::Context ier_ctx = ier.NewContext();
    std::vector<KnnResult> bucket_out, ier_out, otm_out;

    double total_bucket = 0, total_ier = 0, total_brute = 0;
    for (uint32_t c = 0; c < pois.NumCategories(); ++c) {
      const auto span = pois.Vertices(c);
      const std::vector<VertexId> cat_vec(span.begin(), span.end());

      // Deterministic query sources, fresh per category so adding a
      // category never reshuffles another's workload.
      Rng rng(7700 + spec.seed * 17 + c);
      std::vector<VertexId> sources(sources_per_cell);
      for (VertexId& s : sources) {
        s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      }

      for (uint32_t k : kSweepK) {
        // Correctness pass (doubles as warm-up): all three strategies
        // must agree exactly, and the counters are collected here.
        uint64_t sum_settled = 0, sum_lookups = 0, sum_probes = 0;
        for (VertexId s : sources) {
          bucket.KnnQuery(&bucket_ctx, c, s, k, &bucket_out);
          ier.KnnQuery(&ier_ctx, c, s, k, &ier_out);
          const std::vector<KnnResult> brute =
              KnnByDijkstra(g, cat_vec, s, k);
          if (bucket_out != brute || ier_out != brute) {
            std::fprintf(stderr,
                         "FAIL: %s/%s k=%u source=%u: strategies disagree "
                         "(bucket %zu, ier %zu, brute %zu results)\n",
                         spec.name.c_str(), pois.CategoryName(c).c_str(), k,
                         s, bucket_out.size(), ier_out.size(), brute.size());
            return 1;
          }
          sum_settled += bucket_ctx.counters.vertices_settled;
          sum_lookups += bucket_ctx.counters.table_lookups;
          sum_probes += IerKnnIndex::ProbesIssued(ier_ctx);
        }

        const double bucket_us = MeasureAvg(sources.size(), [&] {
          for (VertexId s : sources) {
            bucket.KnnQuery(&bucket_ctx, c, s, k, &bucket_out);
          }
        });
        const double ier_us = MeasureAvg(sources.size(), [&] {
          for (VertexId s : sources) {
            ier.KnnQuery(&ier_ctx, c, s, k, &ier_out);
          }
        });
        const double brute_us = MeasureAvg(sources.size(), [&] {
          for (VertexId s : sources) KnnByDijkstra(g, cat_vec, s, k);
        });
        total_bucket += bucket_us * sources.size();
        total_ier += ier_us * sources.size();
        total_brute += brute_us * sources.size();

        const double n = static_cast<double>(sources.size());
        std::printf("%-12s %4u %6zu  %10.2f %10.2f %10.2f  %8.1f %8.1f\n",
                    pois.CategoryName(c).c_str(), k, cat_vec.size(),
                    bucket_us, ier_us, brute_us, sum_settled / n,
                    sum_probes / n);
        const std::vector<std::pair<std::string, std::string>> labels = {
            {"dataset", spec.name},
            {"category", pois.CategoryName(c)},
            {"k", std::to_string(k)}};
        metrics.Add("knn_bucket_us", bucket_us, labels);
        metrics.Add("knn_ier_us", ier_us, labels);
        metrics.Add("knn_brute_us", brute_us, labels);
        metrics.Add("knn_bucket_speedup_vs_brute", brute_us / bucket_us,
                    labels);
        metrics.Add("knn_bucket_settled_avg", sum_settled / n, labels);
        metrics.Add("knn_bucket_lookups_avg", sum_lookups / n, labels);
        metrics.Add("knn_ier_probes_avg", sum_probes / n, labels);
      }

      // One-to-many: definitionally k = |category|, checked as such.
      for (VertexId s : sources) {
        bucket.OneToManyQuery(&bucket_ctx, c, s, &otm_out);
        bucket.KnnQuery(&bucket_ctx, c, s, cat_vec.size(), &bucket_out);
        if (otm_out != bucket_out) {
          std::fprintf(stderr,
                       "FAIL: %s/%s source=%u: one-to-many != "
                       "k=|category| kNN\n",
                       spec.name.c_str(), pois.CategoryName(c).c_str(), s);
          return 1;
        }
      }
      const double otm_us = MeasureAvg(sources.size(), [&] {
        for (VertexId s : sources) {
          bucket.OneToManyQuery(&bucket_ctx, c, s, &otm_out);
        }
      });
      std::printf("%-12s %4s %6zu  %10.2f %10s %10s  (one-to-many)\n",
                  pois.CategoryName(c).c_str(), "all", cat_vec.size(),
                  otm_us, "-", "-");
      metrics.Add("knn_one_to_many_us", otm_us,
                  {{"dataset", spec.name},
                   {"category", pois.CategoryName(c)}});
    }

    const double speedup = total_bucket > 0 ? total_brute / total_bucket : 0;
    std::printf("%s aggregate: bucket %.2fx vs brute-force, IER %.2fx "
                "(bucket %.0f us, ier %.0f us, brute %.0f us)\n",
                spec.name.c_str(), speedup,
                total_ier > 0 ? total_brute / total_ier : 0, total_bucket,
                total_ier, total_brute);
    metrics.Add("knn_bucket_total_speedup", speedup,
                {{"dataset", spec.name}});
    metrics.Add("knn_ier_total_speedup",
                total_ier > 0 ? total_brute / total_ier : 0,
                {{"dataset", spec.name}});
    metrics.Add("knn_bucket_entries",
                static_cast<double>(bucket.NumBucketEntries()),
                {{"dataset", spec.name}});
    metrics.Add("knn_bucket_index_bytes",
                static_cast<double>(bucket.IndexBytes()),
                {{"dataset", spec.name}});
    metrics.Add("knn_ier_index_bytes",
                static_cast<double>(ier.IndexBytes()),
                {{"dataset", spec.name}});
    metrics.Add("knn_ier_rho", ier.LowerBoundScale(),
                {{"dataset", spec.name}});
    metrics.Add("knn_bucket_build_seconds", bucket_build_seconds,
                {{"dataset", spec.name}});
    // The regression gate: the bucket join must beat the index-free
    // expansion on the aggregate sweep of the largest dataset.
    if (largest && total_bucket >= total_brute) gate_failed = true;
  }

  if (!metrics.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (gate_failed) {
    std::fprintf(stderr,
                 "FAIL: bucket-CH kNN not faster than brute-force Dijkstra "
                 "on the aggregate sweep of the largest dataset\n");
    return 1;
  }
  return 0;
}
