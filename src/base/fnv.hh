/**
 * @file
 * 64-bit FNV-1a hashing.
 *
 * Every stable hash in the tree is FNV-1a with the standard offset
 * basis and prime: run digests, checker trial digests, interleaving
 * signatures, corpus file names, tried-schedule hashes and named Rng
 * stream seeds. They are persisted (goldens, committed corpus entries)
 * or fed back into seeds, so the folds below must never change.
 */

#ifndef MACH_BASE_FNV_HH
#define MACH_BASE_FNV_HH

#include <cstdint>
#include <string_view>

namespace mach::fnv
{

/** FNV-1a offset basis: the hash of no bytes. */
inline constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;

/** Fold one byte into @p h. */
constexpr std::uint64_t
foldByte(std::uint64_t h, unsigned char byte)
{
    return (h ^ byte) * 0x100000001b3ull;
}

/** Fold every byte of @p bytes into @p h, in order. */
constexpr std::uint64_t
fold(std::uint64_t h, std::string_view bytes)
{
    for (const char c : bytes)
        h = foldByte(h, static_cast<unsigned char>(c));
    return h;
}

/** Fold @p v into @p h as its eight little-endian bytes. */
constexpr std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        h = foldByte(h, static_cast<unsigned char>(v >> (8 * i)));
    return h;
}

} // namespace mach::fnv

#endif // MACH_BASE_FNV_HH
