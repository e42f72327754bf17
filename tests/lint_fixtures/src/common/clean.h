// Fixture: a file that exercises every rule's *compliant* form and must
// produce zero violations — guards against the linter over-matching.
#ifndef PREFDB_LINT_FIXTURE_CLEAN_H_
#define PREFDB_LINT_FIXTURE_CLEAN_H_

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace prefdb {

// TODO(alice): widen to 64-bit counters once the metrics schema allows.
class CleanCounter {
 public:
  void Bump() {
    MutexLock lock(&mu_);
    ++count_;
  }

 private:
  mutable Mutex mu_;
  int count_ PREFDB_GUARDED_BY(mu_) = 0;
  std::mutex escape_hatch_;  // lint:allow(mutex-guarded-by) interop stub.
};

}  // namespace prefdb

#endif  // PREFDB_LINT_FIXTURE_CLEAN_H_
