/**
 * @file
 * Small deterministic pseudo-random number generator.
 *
 * Workload models and property tests need reproducible randomness that is
 * independent of the C++ standard library implementation, so experiments
 * replay bit-identically everywhere. xoshiro256** is used for its speed
 * and quality.
 */

#ifndef MACH_BASE_RNG_HH
#define MACH_BASE_RNG_HH

#include <cmath>
#include <cstdint>

#include "base/fnv.hh"
#include "base/logging.hh"

namespace mach
{

/** Deterministic xoshiro256** generator with convenience helpers. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) { reseed(seed); }

    /**
     * A generator on the named substream of @p seed. Components that
     * draw randomness alongside a workload (the explorer's probe
     * generator, auxiliary tooling) must use their own named stream:
     * folding the name into the seed decorrelates the streams even
     * when the raw seeds collide, so adding or reordering one
     * component's draws can never shift another's sequence.
     */
    Rng(std::uint64_t seed, const char *stream_name)
        : Rng(streamSeed(seed, stream_name))
    {
    }

    /** The effective seed of @p seed's @p stream_name substream. */
    static std::uint64_t
    streamSeed(std::uint64_t seed, const char *stream_name)
    {
        // FNV-1a over the name, then fold the seed in; the splitmix64
        // expansion in reseed() whitens the result.
        return fnv::fold(fnv::kOffset, stream_name) ^
               (seed * 0x9e3779b97f4a7c15ull);
    }

    /** Re-initialize the state from a 64-bit seed via splitmix64. */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be positive. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        MACH_ASSERT(bound > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the small bounds used by workloads.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        MACH_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Exponentially distributed value with the given mean. Used for
     * arrival processes in the workload models.
     */
    double
    exponential(double mean)
    {
        double u = uniform();
        // Guard against log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -mean * std::log(u);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace mach

#endif // MACH_BASE_RNG_HH
