#include "apps/serving.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "obs/recorder.hh"

namespace mach::apps
{

namespace
{

/** Parent-image pages every fork copies-on-write. */
constexpr unsigned kImagePages = 8;
/** Never-yet-touched arena per tenant (the fault-mix target). */
constexpr unsigned kColdPages = 48;
/** Small private working set of a sibling thread. */
constexpr unsigned kSiblingPages = 4;
/** Request classes; class k costs ~(k+1)x the base work. */
constexpr unsigned kRequestClasses = 4;
/** Work items per request for class 0. */
constexpr unsigned kWorkItems = 12;
/** Mean compute per work item (usec). */
constexpr double kComputeUsec = 400.0;
/** Chance a request cycles a kernel log buffer (kmem churn). */
constexpr double kKmemChance = 0.25;

/**
 * Cumulative Zipf distribution over the request classes: class k has
 * weight 1/(k+1)^s, so class 0 is the common cheap request and the
 * last class the rare expensive one.
 */
std::vector<double>
zipfCdf(unsigned classes, double s)
{
    std::vector<double> cdf(classes, 0.0);
    double total = 0.0;
    for (unsigned k = 0; k < classes; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[k] = total;
    }
    for (double &c : cdf)
        c /= total;
    return cdf;
}

unsigned
sampleZipf(const std::vector<double> &cdf, Rng &rng)
{
    const double u = rng.uniform();
    for (unsigned k = 0; k < cdf.size(); ++k) {
        if (u < cdf[k])
            return k;
    }
    return static_cast<unsigned>(cdf.size() - 1);
}

} // namespace

std::uint64_t
Serving::framesNeeded(const Params &params, const hw::MachineConfig &cfg)
{
    // A region of n pages spans at most n / 1024 + 2 leaf tables.
    const auto leaves = [](std::uint64_t pages) {
        return pages / (kPageSize / sizeof(std::uint32_t)) + 2;
    };
    const std::uint64_t table_copies =
        cfg.numa_pt_replicas && cfg.numa_nodes > 1 ? cfg.numa_nodes : 1;
    const std::uint64_t siblings =
        std::max(params.threads_per_tenant, 1u) - 1;
    // Every space maps the binary and the image under its own root.
    const std::uint64_t shared_tables =
        1 + leaves(params.binary_pages) + leaves(kImagePages);
    const std::uint64_t tenant_pages =
        std::uint64_t{params.ws_pages} + kColdPages + params.mmap_pages +
        siblings * kSiblingPages + kImagePages + 1;
    const std::uint64_t tenant_tables =
        shared_tables + leaves(std::uint64_t{params.ws_pages} + kColdPages) +
        leaves(params.mmap_pages) + siblings * leaves(kSiblingPages);
    const std::uint64_t live = std::min(params.tenants, params.concurrency);
    // The exec server, and the kernel's tables over the log buffers.
    const std::uint64_t fixed =
        std::uint64_t{params.binary_pages} + kImagePages +
        table_copies * (shared_tables + 1 + leaves(live));
    const std::uint64_t per_tenant =
        tenant_pages + table_copies * tenant_tables;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (live > (kMax - fixed) / per_tenant)
        return kMax;
    return fixed + live * per_tenant;
}

void
Serving::sibling(vm::Kernel &kernel, kern::Thread &self,
                 unsigned tenant, unsigned index, VAddr binary,
                 const bool *stop)
{
    Rng rng(params_.seed + tenant * 7919 + index * 131);
    VAddr ws = 0;
    const bool ok = kernel.vmAllocate(self, *self.task(), &ws,
                                      kSiblingPages * kPageSize, true);
    MACH_ASSERT(ok);

    // Keep the tenant's address space loaded (and its translations
    // cached) on processors other than the server's, so the server's
    // per-request munmaps are honest multi-processor shootdowns.
    unsigned round = 0;
    while (!*stop) {
        std::uint32_t value = 0;
        MACH_ASSERT(self.load32(
            binary + rng.below(params_.binary_pages) * kPageSize,
            &value));
        MACH_ASSERT(self.store32(
            ws + (round++ % kSiblingPages) * kPageSize,
            0x51b00000 + tenant));
        self.compute(Tick(rng.exponential(600.0) * kUsec));
        if (rng.chance(0.2))
            self.sleep(Tick(rng.exponential(1.5) * kMsec));
    }
}

void
Serving::serve(vm::Kernel &kernel, kern::Thread &self, unsigned tenant,
               VAddr binary)
{
    kern::Machine &machine = kernel.machine();
    obs::Recorder &rec = machine.recorder();
    Rng rng(params_.seed + tenant * 7919);
    vm::Task &task = *self.task();
    const std::vector<double> cdf = zipfCdf(kRequestClasses, params_.zipf_s);

    // Hot working set plus the cold arena the fault mix consumes.
    VAddr heap = 0;
    bool ok = kernel.vmAllocate(
        self, task, &heap,
        (params_.ws_pages + kColdPages) * kPageSize, true);
    MACH_ASSERT(ok);
    const VAddr cold = heap + params_.ws_pages * kPageSize;
    unsigned cold_next = 0;
    for (unsigned p = 0; p < params_.ws_pages; ++p)
        MACH_ASSERT(self.store32(heap + p * kPageSize,
                                 0x5e120000 + tenant));

    obs::RequestSlot slot;
    for (unsigned r = 0; r < params_.requests_per_tenant; ++r) {
        slot.begin(machine.now());
        self.obs_request = &slot;
        const unsigned cls = sampleZipf(cdf, rng);

        // Per-request mmap burst: fresh pages, touched immediately
        // (zero-fill faults on the request's critical path).
        VAddr burst = 0;
        ok = kernel.vmAllocate(self, task, &burst,
                               params_.mmap_pages * kPageSize, true);
        MACH_ASSERT(ok);
        for (unsigned p = 0; p < params_.mmap_pages; ++p)
            MACH_ASSERT(self.store32(burst + p * kPageSize,
                                     0x6d6d0000 + r * 64 + p));

        // The request body: class k does (k+1)x the base work, each
        // item an access (cold fault / shared-binary read / hot
        // write, per the fault-mix and sharing knobs) plus compute.
        const unsigned items = kWorkItems * (cls + 1);
        for (unsigned i = 0; i < items; ++i) {
            const double u = rng.uniform();
            if (u < params_.fault_mix) {
                MACH_ASSERT(self.store32(
                    cold + (cold_next++ % kColdPages) * kPageSize,
                    0xc01d0000 + i));
            } else if (u < params_.fault_mix + params_.sharing) {
                std::uint32_t value = 0;
                MACH_ASSERT(self.load32(
                    binary +
                        rng.below(params_.binary_pages) * kPageSize,
                    &value));
            } else {
                MACH_ASSERT(self.store32(
                    heap + rng.below(params_.ws_pages) * kPageSize,
                    0x5e120000 + i));
            }
            self.compute(
                Tick(rng.exponential(kComputeUsec) * kUsec));
        }

        // Kernel log churn: an appended-then-freed kernel buffer is
        // the request's kernel-pmap shootdown source.
        if (rng.chance(kKmemChance)) {
            const VAddr log = kernel.kmemAlloc(self, kPageSize);
            MACH_ASSERT(log != 0);
            MACH_ASSERT(self.store32(log, 0x10900000 + tenant));
            kernel.kmemFree(self, log, kPageSize);
        }

        // The munmap burst: a user shootdown against every processor
        // the siblings keep this space loaded on.
        ok = kernel.vmDeallocate(self, task, burst,
                                 params_.mmap_pages * kPageSize);
        MACH_ASSERT(ok);

        self.obs_request = nullptr;
        const Tick total = slot.finish(machine.now());
        ++requests_completed;
        request_ticks += total;
        for (unsigned c = 0; c < obs::kReqComponents; ++c)
            component_ticks[c] += slot.components()[c];
        if (rec.enabled())
            obs::recordRequest(rec.metrics(), slot, total);
    }
}

void
Serving::run(vm::Kernel &kernel, kern::Thread &driver)
{
    // ---- The exec server: shared binary + per-fork COW image --------
    vm::Task *execd = kernel.createTask("execd");
    VAddr binary = 0;
    VAddr image = 0;
    kern::Thread *init = kernel.spawnThread(
        execd, "execd.init", [&](kern::Thread &self) {
            bool ok = kernel.vmAllocate(
                self, *execd, &binary,
                params_.binary_pages * kPageSize, true);
            MACH_ASSERT(ok);
            for (unsigned p = 0; p < params_.binary_pages; ++p)
                MACH_ASSERT(self.store32(binary + p * kPageSize,
                                         0xb1a40000 + p));
            // The "binary": read-mostly and shared by every tenant.
            ok = kernel.vmProtect(self, *execd, binary,
                                  params_.binary_pages * kPageSize,
                                  ProtRead);
            MACH_ASSERT(ok);
            ok = kernel.vmInherit(self, *execd, binary,
                                  params_.binary_pages * kPageSize,
                                  vm::Inherit::Share);
            MACH_ASSERT(ok);
            // The mutable image tenants inherit Copy: each fork marks
            // it COW and revokes the parent's write access -- fork
            // churn that shoots down the parent's processors.
            ok = kernel.vmAllocate(self, *execd, &image,
                                   kImagePages * kPageSize, true);
            MACH_ASSERT(ok);
            for (unsigned p = 0; p < kImagePages; ++p)
                MACH_ASSERT(self.store32(image + p * kPageSize,
                                         0x1a6e0000 + p));
        });
    driver.join(*init);

    // A resident exec-server thread keeps the parent image warm, so
    // every fork's COW write-revocation finds live mappings (and the
    // parent's next write re-breaks the share).
    bool stop_resident = false;
    kern::Thread *resident = kernel.spawnThread(
        execd, "execd.resident", [&, image](kern::Thread &self) {
            Rng rng(params_.seed ^ 0xe8ecd);
            while (!stop_resident) {
                MACH_ASSERT(self.store32(
                    image + rng.below(kImagePages) * kPageSize,
                    0xe8ec0000));
                self.compute(Tick(rng.exponential(800.0) * kUsec));
                self.sleep(Tick(rng.exponential(2.0) * kMsec));
            }
        });

    // ---- Tenant churn: fork, serve, exit ----------------------------
    struct Tenant
    {
        kern::Thread *server = nullptr;
        std::vector<kern::Thread *> siblings;
        vm::Task *task = nullptr;
        std::unique_ptr<bool> stop;
    };
    std::deque<Tenant> running;

    auto reap_one = [&] {
        Tenant tenant = std::move(running.front());
        running.pop_front();
        driver.join(*tenant.server);
        *tenant.stop = true;
        for (kern::Thread *thread : tenant.siblings)
            driver.join(*thread);
        kernel.destroyTask(driver, tenant.task);
    };

    for (unsigned t = 0; t < params_.tenants; ++t) {
        while (running.size() >= params_.concurrency)
            reap_one();
        Tenant tenant;
        tenant.task = kernel.forkTask(driver, *execd,
                                      "t" + std::to_string(t));
        tenant.stop = std::make_unique<bool>(false);
        const bool *stop = tenant.stop.get();
        for (unsigned w = 1; w < params_.threads_per_tenant; ++w) {
            tenant.siblings.push_back(kernel.spawnThread(
                tenant.task,
                "t" + std::to_string(t) + ".s" + std::to_string(w),
                [this, &kernel, t, w, binary, stop](
                    kern::Thread &self) {
                    sibling(kernel, self, t, w, binary, stop);
                }));
        }
        tenant.server = kernel.spawnThread(
            tenant.task, "t" + std::to_string(t) + ".srv",
            [this, &kernel, t, binary](kern::Thread &self) {
                serve(kernel, self, t, binary);
            });
        running.push_back(std::move(tenant));
    }
    while (!running.empty())
        reap_one();

    stop_resident = true;
    driver.join(*resident);
    kernel.destroyTask(driver, execd);
}

} // namespace mach::apps
