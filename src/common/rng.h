#ifndef CDI_COMMON_RNG_H_
#define CDI_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace cdi {

/// Deterministic, platform-stable pseudo-random number generator
/// (xoshiro256++ seeded via splitmix64).
///
/// CDI never uses std:: distributions because their output differs across
/// standard-library implementations; every sampling routine here is
/// implemented from scratch so experiment results are bit-stable.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Box-Muller, cached pair).
  double Normal();

  /// Normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Laplace(0, b) deviate — non-Gaussian noise for LiNGAM scenarios.
  double Laplace(double b);

  /// Uniform(-a, a) deviate — another non-Gaussian noise choice.
  double UniformNoise(double a);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t Categorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::size_t j = UniformInt(static_cast<uint64_t>(i) + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for reproducible parallel
  /// streams keyed by `stream_id`).
  Rng Fork(uint64_t stream_id) const;

 private:
  uint64_t state_[4];
  uint64_t seed_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace cdi

#endif  // CDI_COMMON_RNG_H_
