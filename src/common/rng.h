#ifndef PREFDB_COMMON_RNG_H_
#define PREFDB_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace prefdb {

/// Deterministic random-number source used by the data generators and the
/// randomized property tests. Wraps a Mersenne Twister with convenience
/// draws; given the same seed, all platforms produce the same streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [1, n] with exponent `s` (s > 0). Rank 1 is the
  /// most frequent. Inverts the CDF by binary search over the running sums
  /// of k^-s, cached per exponent and extended on demand, so draws with a
  /// varying `n` (e.g. "cite one of the p - 1 earlier papers") share one
  /// table instead of rebuilding an O(n) one per draw.
  int64_t Zipf(int64_t n, double s);

  /// Gaussian draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Underlying engine, for std::shuffle and distributions not wrapped here.
  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
  // Running sums sum_{j<=k+1} j^-s at index k, one prefix per exponent s
  // seen so far (the generators use a handful of fixed exponents).
  struct ZipfSums {
    double s;
    std::vector<double> sums;
  };
  std::vector<ZipfSums> zipf_sums_;
};

}  // namespace prefdb

#endif  // PREFDB_COMMON_RNG_H_
