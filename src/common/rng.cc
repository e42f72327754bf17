#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace prefdb {

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(gen_);
}

double Rng::UniformReal(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(gen_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(gen_);
}

int64_t Rng::Zipf(int64_t n, double s) {
  assert(n >= 1);
  auto cached = std::find_if(zipf_sums_.begin(), zipf_sums_.end(),
                             [s](const ZipfSums& z) { return z.s == s; });
  if (cached == zipf_sums_.end()) {
    zipf_sums_.push_back(ZipfSums{s, {}});
    cached = zipf_sums_.end() - 1;
  }
  // Extend the prefix with the same left-to-right additions a table built
  // for exactly n would make, so sums[k] is bit-identical either way.
  std::vector<double>& sums = cached->sums;
  const size_t count = static_cast<size_t>(n);
  if (sums.size() < count) {
    sums.reserve(count);
    double sum = sums.empty() ? 0.0 : sums.back();
    for (size_t k = sums.size() + 1; k <= count; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      sums.push_back(sum);
    }
  }
  // sums[k] / total is exactly the normalized CDF entry, so comparing the
  // quotient against u selects the same rank as a normalized table would.
  const double total = sums[count - 1];
  double u = UniformReal(0.0, 1.0);
  auto end = sums.begin() + static_cast<std::ptrdiff_t>(count);
  auto it = std::lower_bound(
      sums.begin(), end, u,
      [total](double partial, double x) { return partial / total < x; });
  if (it == end) --it;
  return static_cast<int64_t>(it - sums.begin()) + 1;
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(gen_);
}

}  // namespace prefdb
