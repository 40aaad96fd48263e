/**
 * @file
 * Ablations of the two policy constants the paper calls out as
 * implementation details of the shootdown algorithm (Section 4,
 * "three important details"):
 *
 *  1. The invalidation threshold: "beyond some threshold it is faster
 *     to flush the entire buffer than to do the individual
 *     invalidates; this threshold depends on hardware factors".
 *     Sweeping it shows the trade: a low threshold over-flushes (TLB
 *     refill traffic), a high threshold spends too long on serial
 *     entry invalidates during large shootdowns.
 *
 *  2. The per-processor update-queue size: "if the initiator detects
 *     overflow, it sets a flag that causes the responder to flush its
 *     entire TLB. The queue size is set so that this only happens in
 *     cases where the responder would flush its entire TLB for
 *     efficiency reasons in the absence of update queue overflow."
 *     Sweeping it shows overflow rates falling as the queue grows.
 */

#include "bench_common.hh"

#include "pmap/shootdown.hh"
#include "xpr/machine_stats.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

struct ThresholdRow
{
    double responder_usec = 0.0;
    std::uint64_t invalidates = 0;
    std::uint64_t misses_after = 0;
};

/**
 * A scenario where the threshold genuinely matters: six readers keep
 * a 12-page shared region hot in their TLBs; the main thread
 * reprotects all 12 pages at once. Below the threshold the
 * responders surgically invalidate 12 entries (slower response, but
 * the rest of their working set survives); above it they flush the
 * whole buffer (fast, but every later access re-misses).
 */
ThresholdRow
measureThreshold(unsigned threshold)
{
    hw::MachineConfig config;
    config.tlb_flush_threshold = threshold;
    config.seed = 0x9010c4;
    vm::Kernel kernel(config);
    kernel.start();
    kernel.machine().xpr().reset();

    std::uint64_t misses_after = 0;
    kernel.spawnThread(nullptr, "drv", [&](kern::Thread &drv) {
        vm::Task *task = kernel.createTask("hot");
        constexpr unsigned kPages = 12;
        VAddr region = 0;
        bool stop = false;

        std::vector<kern::Thread *> readers;
        kern::Thread *main_thread = kernel.spawnThread(
            task, "main",
            [&](kern::Thread &self) {
                bool ok = kernel.vmAllocate(
                    self, *task, &region, kPages * kPageSize, true);
                MACH_ASSERT(ok);
                for (unsigned p = 0; p < kPages; ++p)
                    self.store32(region + p * kPageSize, p);
                for (unsigned r = 0; r < 6; ++r) {
                    readers.push_back(kernel.spawnThread(
                        task, "reader" + std::to_string(r),
                        [&](kern::Thread &reader) {
                            // A private working set that an
                            // over-eager full flush would evict.
                            VAddr mine = 0;
                            const bool got = kernel.vmAllocate(
                                reader, *task, &mine,
                                8 * kPageSize, true);
                            MACH_ASSERT(got);
                            while (!stop) {
                                for (unsigned p = 0; p < kPages;
                                     ++p) {
                                    std::uint32_t v = 0;
                                    reader.load32(
                                        region + p * kPageSize,
                                        &v);
                                }
                                for (unsigned p = 0; p < 8; ++p)
                                    reader.store32(
                                        mine + p * kPageSize, p);
                                reader.cpu().advance(800 * kUsec);
                            }
                        },
                        static_cast<std::int64_t>(r)));
                }
                self.sleep(40 * kMsec); // TLBs hot.
                kernel.vmProtect(self, *task, region,
                                 kPages * kPageSize, ProtRead);
                // Count the refill misses the policy causes.
                std::uint64_t misses0 = 0;
                for (CpuId id = 0;
                     id < kernel.machine().ncpus(); ++id)
                    misses0 +=
                        kernel.machine().cpu(id).tlb().misses;
                self.sleep(40 * kMsec);
                for (CpuId id = 0;
                     id < kernel.machine().ncpus(); ++id)
                    misses_after +=
                        kernel.machine().cpu(id).tlb().misses;
                misses_after -= misses0;
                stop = true;
                for (kern::Thread *reader : readers)
                    self.join(*reader);
            },
            7);
        drv.join(*main_thread);
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();

    const xpr::RunAnalysis analysis =
        xpr::analyze(kernel.machine().xpr());
    ThresholdRow row;
    row.misses_after = misses_after;
    row.responder_usec = analysis.responder.time_usec.mean();
    for (CpuId id = 0; id < kernel.machine().ncpus(); ++id)
        row.invalidates +=
            kernel.machine().cpu(id).tlb().single_invalidates;
    return row;
}

struct DepthRow
{
    std::uint64_t overflows = 0;
    double user_usec = 0.0;
};

DepthRow
measureDepth(unsigned depth)
{
    hw::MachineConfig config;
    config.action_queue_size = depth;
    config.seed = 0x9010c4;
    vm::Kernel kernel(config);
    apps::Camelot app({.transactions = 120});
    const apps::WorkloadResult result = app.execute(kernel);
    return DepthRow{kernel.pmaps().shoot().queue_overflows,
                    result.analysis.user_initiator.time_usec.mean()};
}

} // namespace

int
main()
{
    setLogQuiet(true);

    // Both sweeps are independent machines per config point, so they
    // run on the bench farm (MACH_FARM_JOBS wide) and print after.
    const std::vector<unsigned> thresholds = {4u, 8u, 16u, 64u};
    std::vector<ThresholdRow> threshold_rows(thresholds.size());
    const std::vector<unsigned> depths = {1u, 2u, 4u, 8u, 16u, 32u};
    std::vector<DepthRow> depth_rows(depths.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < thresholds.size(); ++i)
        jobs.push_back([&thresholds, &threshold_rows, i] {
            threshold_rows[i] = measureThreshold(thresholds[i]);
        });
    for (std::size_t i = 0; i < depths.size(); ++i)
        jobs.push_back([&depths, &depth_rows, i] {
            depth_rows[i] = measureDepth(depths[i]);
        });
    runFarmed(std::move(jobs));

    std::printf("Policy ablation 1: TLB invalidation threshold\n");
    std::printf("(six readers keep 12 shared pages hot; one 12-page "
                "reprotect)\n\n");
    std::printf("%10s %10s %16s %14s %14s\n", "threshold", "policy",
                "responder(us)", "invalidates", "misses after");
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        const ThresholdRow &row = threshold_rows[i];
        std::printf("%10u %10s %16.0f %14llu %14llu\n", thresholds[i],
                    thresholds[i] < 12 ? "flush" : "invalidate",
                    row.responder_usec,
                    static_cast<unsigned long long>(row.invalidates),
                    static_cast<unsigned long long>(row.misses_after));
    }

    std::printf("\nPolicy ablation 2: consistency-action queue depth "
                "(Camelot workload)\n\n");
    std::printf("%10s %16s %14s\n", "queue", "overflows", "user "
                                                          "mean(us)");
    for (std::size_t i = 0; i < depths.size(); ++i)
        std::printf("%10u %16llu %14.0f\n", depths[i],
                    static_cast<unsigned long long>(
                        depth_rows[i].overflows),
                    depth_rows[i].user_usec);

    std::printf("\noverflow escalates to a whole-buffer flush, which "
                "is always correct; the paper\nsizes the queue so "
                "overflow coincides with flushes the responder would "
                "do anyway.\n");
    return 0;
}
