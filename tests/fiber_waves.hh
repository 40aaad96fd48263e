/**
 * @file
 * A fiber-stack workout shared by the sim and farm tests: waves of
 * fibers that recurse deep into their stacks, on two sim::Contexts built
 * one after the other on the calling thread. Destroyed fibers hand their
 * stacks to the host thread's free list, so the second Context runs on
 * stacks the first one left behind, including ones whose fibers were
 * still blocked deep in a recursion when their Context was destroyed.
 */

#ifndef MACH_TESTS_FIBER_WAVES_HH
#define MACH_TESTS_FIBER_WAVES_HH

#include <cstddef>
#include <cstdint>
#include <set>

#include "sim/context.hh"

namespace mach::sim::test
{

/** Frames per fiber; 36 frames of 4 KiB reach 144 KiB deep. */
constexpr unsigned kWaveDepth = 36;
constexpr unsigned kWaveContexts = 2;
constexpr unsigned kWavesPerContext = 3;
constexpr unsigned kFibersPerWave = 8;
/** Every fourth fiber blocks forever and dies with its Context. */
constexpr unsigned kFinishersPerWave = kFibersPerWave * 3 / 4;
/** Frames runFiberWaves() finds intact when every stack is private. */
constexpr unsigned kWaveIntactFrames = kWaveContexts * kWavesPerContext *
                                       kFinishersPerWave * (kWaveDepth + 1);

/**
 * Recurse @p depth more frames, each filling a @p Words-word array from
 * @p salt; block at depth @p block_at (for good if @p park), then check
 * every array on the way back up. Returns the frames found intact.
 */
template <std::size_t Words>
unsigned
deepFrames(Context &ctx, unsigned depth, unsigned block_at, bool park,
           std::uint32_t salt)
{
    // volatile keeps the array in the frame and every access real.
    volatile std::uint32_t frame[Words];
    for (std::size_t i = 0; i < Words; ++i)
        frame[i] = salt * 31 + depth * 7 + static_cast<std::uint32_t>(i);
    if (depth == block_at) {
        if (park)
            ctx.block();
        else
            ctx.sleep(1 + salt % 5);
    }
    const unsigned below =
        depth == 0 ? 0 : deepFrames<Words>(ctx, depth - 1, block_at, park,
                                           salt);
    bool intact = true;
    for (std::size_t i = 0; i < Words; ++i)
        intact = intact && frame[i] == salt * 31 + depth * 7 +
                                           static_cast<std::uint32_t>(i);
    return below + (intact ? 1 : 0);
}

struct FiberWaves
{
    unsigned intact_frames = 0;
    /** Second-Context fibers whose stack a first-Context fiber used. */
    unsigned reused_stacks = 0;
    unsigned second_context_fibers = 0;
};

/**
 * Run kWavesPerContext waves of kFibersPerWave fibers on each of
 * kWaveContexts Contexts in turn. The two Contexts use different frame
 * sizes, so the second one's arrays straddle the first one's old frame
 * boundaries.
 */
inline FiberWaves
runFiberWaves(std::uint32_t salt)
{
    FiberWaves out;
    std::set<const void *> first_context_frames;
    for (unsigned round = 0; round < kWaveContexts; ++round) {
        Context ctx;
        for (unsigned wave = 0; wave < kWavesPerContext; ++wave) {
            for (unsigned i = 0; i < kFibersPerWave; ++i) {
                const bool park = i % 4 == 3;
                const unsigned block_at = (i * 5 + wave) % kWaveDepth;
                const std::uint32_t s = salt + round * 97 + wave * 13 + i;
                ctx.spawn("deep", [&, round, park, block_at, s] {
                    // The entry frame sits at the same offset from the
                    // top of every stack, so it names the stack.
                    const void *top = __builtin_frame_address(0);
                    if (round == 0) {
                        first_context_frames.insert(top);
                    } else {
                        ++out.second_context_fibers;
                        out.reused_stacks +=
                            first_context_frames.count(top) ? 1 : 0;
                    }
                    out.intact_frames +=
                        round == 0
                            ? deepFrames<1024>(ctx, kWaveDepth, block_at,
                                               park, s)
                            : deepFrames<1000>(ctx, kWaveDepth, block_at,
                                               park, s);
                });
            }
            ctx.run();
        }
    }
    return out;
}

} // namespace mach::sim::test

#endif // MACH_TESTS_FIBER_WAVES_HH
