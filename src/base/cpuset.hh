/**
 * @file
 * Wide processor-set representation.
 *
 * The paper's machine stopped at 16 processors, so a 16-bit mask was
 * enough; the NUMA topology layer composes up to 8 nodes x 16 CPUs and
 * the scaling benches build 192-CPU machines, so every shoot-set /
 * in-use-set in the tree uses this fixed-width bitset instead. It is a
 * plain value type (no heap, trivially copyable) so per-pmap and
 * per-shootdown sets stay cheap, and iteration visits members in
 * ascending CPU id -- the same order as the `for (CpuId id = 0; ...)`
 * loops it replaces, which the determinism goldens pin.
 */

#ifndef MACH_BASE_CPUSET_HH
#define MACH_BASE_CPUSET_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "base/logging.hh"
#include "base/types.hh"

namespace mach
{

/** Fixed-width set of CPU ids, sized for the largest machine we build. */
class CpuSet
{
  public:
    /** Capacity in CPUs (1024 covers MachineConfig's ncpus ceiling). */
    static constexpr unsigned kMaxCpus = 1024;

    constexpr CpuSet() = default;

    // Population ops are bounds-checked: responder ids now span CPUs
    // plus devices (ncpus + devices of them), and an id at or past
    // kMaxCpus must fail loudly instead of scribbling past the word
    // array. test() of an out-of-range id is safely "not a member" --
    // probing with a foreign id space is legal, growing the set with
    // one is not.
    constexpr void set(CpuId id)
    {
        MACH_ASSERT(id < kMaxCpus);
        word(id) |= bit(id);
    }
    constexpr void clear(CpuId id)
    {
        MACH_ASSERT(id < kMaxCpus);
        word(id) &= ~bit(id);
    }
    constexpr void assign(CpuId id, bool value)
    {
        value ? set(id) : clear(id);
    }
    constexpr bool test(CpuId id) const
    {
        return id < kMaxCpus && (words_[id / 64] & bit(id)) != 0;
    }

    constexpr void clearAll() { words_ = {}; }

    constexpr bool empty() const
    {
        for (std::uint64_t w : words_)
            if (w != 0)
                return false;
        return true;
    }

    constexpr unsigned count() const
    {
        unsigned n = 0;
        for (std::uint64_t w : words_)
            n += static_cast<unsigned>(std::popcount(w));
        return n;
    }

    constexpr CpuSet &operator|=(const CpuSet &o)
    {
        for (std::size_t i = 0; i < words_.size(); ++i)
            words_[i] |= o.words_[i];
        return *this;
    }

    constexpr CpuSet &operator&=(const CpuSet &o)
    {
        for (std::size_t i = 0; i < words_.size(); ++i)
            words_[i] &= o.words_[i];
        return *this;
    }

    constexpr bool operator==(const CpuSet &o) const = default;

    /**
     * Visit members in ascending CPU id -- lockstep with the id-loop
     * order the shootdown protocol (and its digests) were built on.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < words_.size(); ++i) {
            std::uint64_t w = words_[i];
            while (w != 0) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(w));
                fn(static_cast<CpuId>(i * 64 + b));
                w &= w - 1;
            }
        }
    }

    /** Lowest member, or kMaxCpus when empty. */
    CpuId first() const
    {
        for (std::size_t i = 0; i < words_.size(); ++i) {
            if (words_[i] != 0) {
                return static_cast<CpuId>(
                    i * 64 + std::countr_zero(words_[i]));
            }
        }
        return kMaxCpus;
    }

    /**
     * Human-readable "{0-3,8,12-15}" form with runs collapsed, for xpr
     * text and trace output on wide machines.
     */
    std::string format() const
    {
        std::string out = "{";
        bool first_range = true;
        unsigned id = 0;
        while (id < kMaxCpus) {
            if (!test(id)) {
                ++id;
                continue;
            }
            unsigned end = id;
            while (end + 1 < kMaxCpus && test(end + 1))
                ++end;
            if (!first_range)
                out += ',';
            first_range = false;
            out += std::to_string(id);
            if (end > id) {
                out += end == id + 1 ? "," : "-";
                out += std::to_string(end);
            }
            id = end + 1;
        }
        out += '}';
        return out;
    }

  private:
    constexpr std::uint64_t &word(CpuId id) { return words_[id / 64]; }
    static constexpr std::uint64_t bit(CpuId id)
    {
        return std::uint64_t{1} << (id % 64);
    }

    std::array<std::uint64_t, kMaxCpus / 64> words_{};
};

} // namespace mach

#endif // MACH_BASE_CPUSET_HH
