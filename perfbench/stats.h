#ifndef ROADNET_PERFBENCH_STATS_H_
#define ROADNET_PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept apart from the code that takes
// the samples so selftest.cc can pin it down: exact percentiles with
// their supporting sample counts, failure accounting, send lag, and the
// derived ladder differences.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

// Latency recorded for a request that failed (transport error, shed or
// error status, no reply, wrong answer): it misses every latency limit,
// so it sorts above every real sample and counts as infinite in every
// percentile.
inline constexpr uint64_t kFailedNs = std::numeric_limits<uint64_t>::max();

// A percentile needs at least this many samples above it to be reported.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value_ns = 0;  // +infinity when the rank lands on a failure
  size_t samples = 0;   // sample count it was taken from
  size_t beyond = 0;    // samples ranked strictly above it
  bool Supported() const { return beyond >= kMinBeyond; }
};

// Nearest-rank percentile: the sample at 1-based rank ceil(q * n) of the
// ascending order. `beyond` is n minus that rank. Sorts `samples` in
// place. An empty sample gives an unsupported zero.
inline Percentile TakePercentile(std::vector<uint64_t>* samples, double q) {
  Percentile p;
  p.samples = samples->size();
  if (samples->empty()) return p;
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  const uint64_t v = (*samples)[rank - 1];
  p.value_ns = v == kFailedNs ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(v);
  p.beyond = n - rank;
  return p;
}

// Signed-difference samples (ladder differences can be negative).
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

// Share of attempted requests that failed; 0 when nothing was attempted.
inline double FailedFrac(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// How late the generator sent a request: actual send stamp minus the
// scheduled arrival, in ns. Negative means the request left early, which
// the driver never does; the caller reports it rather than clamping.
inline int64_t SendLagNs(uint64_t scheduled_ns, uint64_t sent_ns) {
  return static_cast<int64_t>(sent_ns) - static_cast<int64_t>(scheduled_ns);
}

// Client-side latency of a request: reply time minus its start, which
// for an open-loop request is the scheduled send time, so a stalled
// generator or server is charged for the wait.
inline uint64_t OpenLoopLatencyNs(uint64_t scheduled_ns, uint64_t reply_ns) {
  return reply_ns - scheduled_ns;
}

// Per-request wire + loopback share: client round trip minus the
// server's own receipt-to-completion time.
inline double TransportNs(uint64_t rtt_ns, uint64_t residence_ns) {
  return static_cast<double>(rtt_ns) - static_cast<double>(residence_ns);
}

// Server time not explained by running the query through the engine:
// residence p50 minus the wall time of a 1-query QueryEngine::Run. The
// Run already contains the index call, so it is not subtracted again.
inline double ServerOverheadUs(double residence_p50_us, double run1_us) {
  return residence_p50_us - run1_us;
}

// Relative change of `with` over `without`, in percent.
inline double OverheadPct(double without, double with) {
  return without == 0 ? 0.0 : (with - without) / without * 100.0;
}

}  // namespace perfbench

#endif  // ROADNET_PERFBENCH_STATS_H_
