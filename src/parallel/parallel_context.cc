#include "parallel/parallel_context.h"

#include <algorithm>
#include <thread>

namespace prefdb {

size_t ParallelContext::ResolvedThreads() const {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace prefdb
