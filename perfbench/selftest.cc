// Self-tests of the benchmark's own arithmetic (stats.h) and of the load
// generator's request-id framing. run.py runs this before every
// benchmark run; any failure stops the run with a nonzero exit.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.h"
#include "server/wire.h"
#include "stats.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileAndBeyond() {
  // 1..1000: nearest-rank p50 is rank 500, p99 is rank 990.
  std::vector<uint64_t> v;
  for (uint64_t i = 1000; i >= 1; --i) v.push_back(i);
  const Percentile p50 = TakePercentile(&v, 0.50);
  Expect(Near(p50.value_ns, 500) && p50.beyond == 500 && p50.samples == 1000,
         "p50 of 1..1000 is 500 with 500 beyond");
  const Percentile p99 = TakePercentile(&v, 0.99);
  Expect(Near(p99.value_ns, 990) && p99.beyond == 10 && p99.Supported(),
         "p99 of 1..1000 is 990 with exactly 10 beyond");
  // 999 samples leave only 9 beyond the p99: not reportable.
  v.pop_back();
  const Percentile short_p99 = TakePercentile(&v, 0.99);
  Expect(short_p99.beyond == 9 && !short_p99.Supported(),
         "p99 of 999 samples is unsupported");
  std::vector<uint64_t> one = {42};
  const Percentile single = TakePercentile(&one, 0.99);
  Expect(Near(single.value_ns, 42) && single.beyond == 0,
         "single sample is every percentile");
  std::vector<uint64_t> empty;
  Expect(TakePercentile(&empty, 0.5).samples == 0, "empty sample");
}

void FailedFracWithInfiniteLatency() {
  // 1000 requests, 20 failed: 2% failed, and the failures sit above
  // every real latency, so they push the p99 to infinity.
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= 980; ++i) v.push_back(i);
  for (int i = 0; i < 20; ++i) v.push_back(kFailedNs);
  Expect(Near(FailedFrac(1000, 20), 0.02), "failed_frac 20/1000");
  Expect(FailedFrac(0, 0) == 0, "failed_frac of nothing is 0");
  const Percentile p99 = TakePercentile(&v, 0.99);
  Expect(std::isinf(p99.value_ns), "failures make the p99 infinite");
  const Percentile p50 = TakePercentile(&v, 0.50);
  Expect(Near(p50.value_ns, 500), "failures do not move the p50 down");
  // 5 failures out of 1000 stay beyond the p99 (rank 990).
  std::vector<uint64_t> w;
  for (uint64_t i = 1; i <= 995; ++i) w.push_back(i);
  for (int i = 0; i < 5; ++i) w.push_back(kFailedNs);
  Expect(Near(TakePercentile(&w, 0.99).value_ns, 990),
         "failures beyond the p99 leave it finite");
}

void SendLagFromSchedule() {
  Expect(SendLagNs(1'000'000, 1'003'500) == 3'500, "late send: +3.5 us");
  Expect(SendLagNs(1'000'000, 1'000'000) == 0, "on-time send: 0");
  Expect(SendLagNs(1'000'000, 999'000) == -1'000, "early send is negative");
  // An open-loop request is charged from its schedule, lag included.
  Expect(OpenLoopLatencyNs(1'000'000, 1'070'000) == 70'000,
         "open-loop latency from the scheduled time");
  const std::vector<uint64_t> s = PoissonSchedule(5000, 1'000'000'000, 7);
  bool ascending = true;
  for (size_t i = 1; i < s.size(); ++i) ascending &= s[i] >= s[i - 1];
  Expect(ascending && s.size() > 4700 && s.size() < 5300 && s.front() > 0,
         "Poisson schedule: ascending, ~5000 arrivals in 1 s");
  Expect(PoissonSchedule(5000, 1'000'000'000, 7) == s,
         "same seed, same schedule");
}

void LadderDifferences() {
  Expect(Near(TransportNs(68'000, 40'000), 28'000), "transport = rtt - residence");
  Expect(Near(TransportNs(10, 12), -2), "transport may be negative");
  Expect(Near(ServerOverheadUs(40.0, 9.5), 30.5),
         "overhead = residence - run1");
  Expect(Near(ServerOverheadUs(40.0, 45.0), -5.0),
         "overhead may be negative");
  Expect(Near(OverheadPct(50.0, 51.0), 2.0), "trace overhead 2%");
  Expect(Near(MedianOf({3, 1, 2}), 2) && Near(MedianOf({4, 1, 3, 2}), 2),
         "median (lower middle for even counts)");
}

void RequestIdFraming() {
  roadnet::wire::QueryRequest req;
  req.source = 3;
  req.target = 9;
  req.request_id = 0;
  PoolEntry e = MakeEntry(roadnet::wire::EncodeQueryRequestV2(req), true, 5);
  // The driver writes the id at body bytes [1, 9), frame bytes [5, 13).
  const uint64_t id = 0x0102030405060708ull;
  for (int i = 0; i < 8; ++i) e.frame[5 + i] = static_cast<char>(id >> (8 * i));
  const auto decoded =
      roadnet::wire::DecodeQueryRequestV2(e.frame.substr(4));
  Expect(decoded.has_value() && decoded->request_id == id &&
             decoded->source == 3 && decoded->target == 9,
         "request_id patched at the offset QUERY2 carries it");
  Expect(e.frame.size() == 4 + roadnet::wire::EncodeQueryRequestV2(req).size() &&
             static_cast<uint8_t>(e.frame[0]) == e.frame.size() - 4,
         "length prefix");
}

}  // namespace

int main() {
  PercentileAndBeyond();
  FailedFracWithInfiniteLatency();
  SendLagFromSchedule();
  LadderDifferences();
  RequestIdFraming();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d failures\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks pass\n");
  return 0;
}
