#include "sim/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos
{

namespace
{

constexpr u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** SplitMix64 step, used only for seeding. */
u64
splitMix64(u64 &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    u64 z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(u64 seed)
{
    u64 sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

u64
Rng::next()
{
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

u64
Rng::nextBelow(u64 bound)
{
    SASOS_ASSERT(bound > 0, "nextBelow(0)");
    // Rejection sampling to avoid modulo bias.
    const u64 threshold = -bound % bound;
    for (;;) {
        const u64 r = next();
        if (r >= threshold)
            return r % bound;
    }
}

u64
Rng::nextRange(u64 lo, u64 hi)
{
    SASOS_ASSERT(lo <= hi, "bad range [", lo, ",", hi, "]");
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextReal()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::bernoulli(double p)
{
    return nextReal() < p;
}

void
Rng::save(snap::SnapWriter &w) const
{
    w.putTag("rng");
    for (u64 word : state_)
        w.put64(word);
}

void
Rng::load(snap::SnapReader &r)
{
    r.expectTag("rng");
    u64 words[4];
    for (auto &word : words)
        word = r.get64();
    // The all-zero state is xoshiro's one absorbing fixed point; no
    // seeding can produce it, so its presence means corruption.
    if (words[0] == 0 && words[1] == 0 && words[2] == 0 && words[3] == 0)
        SASOS_FATAL("corrupt snapshot: all-zero rng state");
    for (int i = 0; i < 4; ++i)
        state_[i] = words[i];
}

ZipfDistribution::ZipfDistribution(std::size_t n, double theta)
{
    SASOS_ASSERT(n > 0, "empty Zipf domain");
    SASOS_ASSERT(theta >= 0.0, "negative Zipf skew");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = sum;
    }
    for (auto &value : cdf_)
        value /= sum;

    // One merged pass over the bucket edges and the CDF: guide_[k] is
    // lower_bound(k/K), found without a search per bucket.
    SASOS_ASSERT(n <= static_cast<u32>(-1), "Zipf domain too large to guide");
    const std::size_t buckets = std::bit_ceil(n);
    guide_.resize(buckets + 1);
    std::size_t rank = 0;
    for (std::size_t k = 0; k <= buckets; ++k) {
        const double edge =
            static_cast<double>(k) / static_cast<double>(buckets);
        while (rank < n && cdf_[rank] < edge)
            ++rank;
        guide_[k] = static_cast<u32>(rank);
    }
}

std::size_t
ZipfDistribution::draw(double u) const
{
    // u in [k/K, (k+1)/K) has its rank in [guide_[k], guide_[k+1]], and
    // lower_bound over that run yields guide_[k+1] when no value in
    // [guide_[k], guide_[k+1]) reaches u. u = 1 joins the last bucket.
    const std::size_t buckets = guide_.size() - 1;
    const std::size_t k = std::min(
        static_cast<std::size_t>(u * static_cast<double>(buckets)),
        buckets - 1);
    const double *first = cdf_.data() + guide_[k];
    const double *end = cdf_.data() + guide_[k + 1];
    const std::size_t rank =
        static_cast<std::size_t>(std::lower_bound(first, end, u) -
                                 cdf_.data());
    return std::min(rank, cdf_.size() - 1);
}

GeometricDistribution::GeometricDistribution(double p)
{
    SASOS_ASSERT(p > 0.0 && p <= 1.0, "geometric p out of range");
    logOneMinusP_ = std::log1p(-p);
}

u64
GeometricDistribution::operator()(Rng &rng) const
{
    if (logOneMinusP_ == 0.0)
        return 0;
    const double u = rng.nextReal();
    return static_cast<u64>(std::log1p(-u) / logOneMinusP_);
}

} // namespace sasos
