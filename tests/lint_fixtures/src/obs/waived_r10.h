// R10 waiver fixture: a Mutex that legitimately guards no field (it
// only orders a sleep/notify handshake around an atomic predicate),
// suppressed with a reasoned waiver.
#ifndef ROADNET_LINT_FIXTURE_WAIVED_R10_H_
#define ROADNET_LINT_FIXTURE_WAIVED_R10_H_

#include <atomic>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fixture {

class Drainer {
 public:
  void Wait();

 private:
  std::atomic<int> in_flight_{0};
  // roadnet-lint: allow(R10 handshake-only mutex; the predicate is the atomic above)
  Mutex drain_mu_;
  CondVar drain_cv_;
};

}  // namespace fixture

#endif  // ROADNET_LINT_FIXTURE_WAIVED_R10_H_
