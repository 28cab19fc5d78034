/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Uses xoshiro256** seeded through SplitMix64. All simulator
 * randomness must flow through a seeded Rng so that runs are exactly
 * reproducible; nothing here reads entropy from the environment.
 */

#ifndef SASOS_SIM_RANDOM_HH
#define SASOS_SIM_RANDOM_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos
{

/** xoshiro256** 1.0, deterministic and fast. */
class Rng
{
  public:
    explicit Rng(u64 seed);

    /** Uniform over all 64-bit values. */
    u64 next();

    /** Uniform in [0, bound); bound must be nonzero. */
    u64 nextBelow(u64 bound);

    /** Uniform in [lo, hi] inclusive. */
    u64 nextRange(u64 lo, u64 hi);

    /** Uniform real in [0, 1). */
    double nextReal();

    /** True with probability p. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(nextBelow(i));
            std::swap(items[i - 1], items[j]);
        }
    }

    /** @name Snapshot hooks (position in the stream) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    u64 state_[4];
};

/**
 * Zipf distribution over {0, ..., n-1} with skew theta.
 *
 * theta = 0 is uniform; larger theta concentrates probability on low
 * ranks. Implemented as an inversion of a precomputed CDF: a draw u
 * maps to the first rank whose CDF value is at least u. A Chen-Asau
 * guide table of K = bit_ceil(n) buckets holds, for each k, the first
 * rank whose CDF reaches k/K, so a draw binary-searches only the
 * ranks between its bucket's two edges. K is a power of two, so u*K
 * and k/K are exact and the guided search returns the same rank as a
 * search of the whole CDF, for every u.
 */
class ZipfDistribution
{
  public:
    ZipfDistribution(std::size_t n, double theta);

    std::size_t operator()(Rng &rng) const { return draw(rng.nextReal()); }

    /** The rank a uniform u in [0, 1] maps to: std::lower_bound of u
     * over the CDF, clamped to n-1 past its end. */
    std::size_t draw(double u) const;

    std::size_t size() const { return cdf_.size(); }

    /** The cumulative probabilities, one per rank, ending at 1. */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
    /** guide_[k]: the first rank whose CDF value is >= k/K, for k in
     * [0, K]; n when none is. */
    std::vector<u32> guide_;
};

/** Geometric distribution: number of failures before first success. */
class GeometricDistribution
{
  public:
    explicit GeometricDistribution(double p);

    u64 operator()(Rng &rng) const;

  private:
    double logOneMinusP_;
};

} // namespace sasos

#endif // SASOS_SIM_RANDOM_HH
