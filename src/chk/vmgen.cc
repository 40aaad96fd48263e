#include "chk/vmgen.hh"

#include <charconv>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "dev/dma_device.hh"
#include "kern/cpu.hh"
#include "kern/thread.hh"
#include "pmap/pmap.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"
#include "vm/task.hh"

namespace mach::chk
{

namespace
{

/** Ops in the generated sequence. */
constexpr unsigned kOps = 160;
/** Liveness bound of the unperturbed run. */
constexpr Tick kBound = 800 * kMsec;

/** Host-side reference model: per-page value and rights. */
struct ModelPage
{
    std::uint32_t value = 0; // Fresh anonymous memory reads zero.
    Prot prot = ProtReadWrite;
};

/**
 * The body thread's op sequence. Serial and self-contained: every
 * model transition is driven by this thread's own deterministic Rng
 * draws, so the predicate is schedule-invariant -- a delay
 * perturbation can move *when* an op runs but never what it must
 * observe.
 */
void
runOps(vm::Kernel &kernel, kern::Thread &self, vm::Task &task,
       const VmGenOptions &o, ScenarioState *state)
{
    Rng rng(o.seed, "chk.vmgen");
    std::map<VAddr, ModelPage> model;

    const auto randomPage = [&]() -> VAddr {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.below(model.size())));
        return it->first;
    };
    const auto check = [&](bool cond, const char *what) {
        if (!cond)
            state->failPredicate(std::string("vmgen: ") + what);
        return cond;
    };

    for (unsigned op = 0; op < kOps && state->predicate_ok; ++op) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 18 || model.empty()) {
            // Allocate 1-3 pages.
            const std::uint32_t pages =
                static_cast<std::uint32_t>(rng.range(1, 3));
            VAddr va = 0;
            if (!check(kernel.vmAllocate(self, task, &va,
                                         pages * kPageSize, true),
                       "vmAllocate failed"))
                return;
            for (std::uint32_t p = 0; p < pages; ++p)
                model[va + p * kPageSize] = ModelPage{};
        } else if (kind < 42) {
            // Write a random page; legality follows the model rights.
            const VAddr page = randomPage();
            const auto value = static_cast<std::uint32_t>(rng.next());
            const bool ok = self.store32(page, value);
            ModelPage &m = model.at(page);
            if (protAllows(m.prot, ProtWrite)) {
                if (!check(ok, "writable page refused a store"))
                    return;
                m.value = value;
            } else if (!check(!ok, "store landed on a read-only page")) {
                return;
            }
        } else if (kind < 64) {
            // Read a random page and compare against the model.
            const VAddr page = randomPage();
            std::uint32_t value = 0;
            const bool ok = self.load32(page, &value);
            const ModelPage &m = model.at(page);
            if (protAllows(m.prot, ProtRead)) {
                if (!check(ok, "readable page refused a load") ||
                    !check(value == m.value, "load saw a stale value"))
                    return;
            } else if (!check(!ok, "load landed on a ProtNone page")) {
                return;
            }
        } else if (kind < 78) {
            // Re-protect a random page.
            const VAddr page = randomPage();
            static const Prot kChoices[] = {ProtNone, ProtRead,
                                            ProtReadWrite};
            const Prot prot = kChoices[rng.below(3)];
            if (!check(kernel.vmProtect(self, task, page, kPageSize,
                                        prot),
                       "vmProtect failed"))
                return;
            model.at(page).prot = prot;
        } else if (kind < 84) {
            // Virtual-copy a readable page; the copy snapshots the
            // source's value and then diverges.
            const VAddr page = randomPage();
            const ModelPage src = model.at(page);
            if (!protAllows(src.prot, ProtRead))
                continue;
            VAddr copy = 0;
            if (!check(kernel.vmCopy(self, task, page, kPageSize,
                                     &copy),
                       "vmCopy failed"))
                return;
            model[copy] = ModelPage{src.value, src.prot};
            if (protAllows(src.prot, ProtWrite)) {
                const auto value =
                    static_cast<std::uint32_t>(rng.next());
                if (!check(self.store32(copy, value),
                           "store to a fresh copy failed"))
                    return;
                model.at(copy).value = value;
            }
            std::uint32_t back = 0;
            if (!check(self.load32(page, &back),
                       "source read-back failed") ||
                !check(back == model.at(page).value,
                       "copy write moved the source"))
                return;
        } else if (kind < 90) {
            // Remap: deallocate a page and re-allocate the same
            // address (anywhere=false). Fresh anonymous memory again.
            const VAddr page = randomPage();
            if (!check(kernel.vmDeallocate(self, task, page,
                                           kPageSize),
                       "vmDeallocate (remap) failed"))
                return;
            VAddr va = page;
            if (!check(kernel.vmAllocate(self, task, &va, kPageSize,
                                         false),
                       "fixed re-allocate failed") ||
                !check(va == page, "fixed re-allocate moved"))
                return;
            model.at(page) = ModelPage{};
        } else if (o.devices && kind < 96) {
            // DMA op against a random page through the device's
            // IOTLB. The model's rights decide legality, with the
            // lazy-repair wrinkle (see the file comment in
            // chk/vmgen.hh): a CPU touch precedes every legal DMA op
            // so the lazily-repaired PTE matches the model rights by
            // the time the IOMMU walks it.
            const VAddr page = randomPage();
            ModelPage &m = model.at(page);
            dev::DmaDevice &device = kernel.device(0);
            pmap::Pmap &pmap = task.pmap();
            if (protAllows(m.prot, ProtWrite)) {
                if (!check(self.store32(page, m.value),
                           "DMA repair store failed"))
                    return;
                const auto value =
                    static_cast<std::uint32_t>(rng.next());
                if (!check(device.dmaWrite(pmap, vaToVpn(page), 0,
                                           value),
                           "DMA write refused on a writable page"))
                    return;
                m.value = value;
                std::uint32_t back = 0;
                if (!check(self.load32(page, &back),
                           "DMA write read-back failed") ||
                    !check(back == value,
                           "CPU read missed a committed DMA write"))
                    return;
            } else if (protAllows(m.prot, ProtRead)) {
                std::uint32_t dummy = 0;
                if (!check(self.load32(page, &dummy),
                           "DMA repair load failed"))
                    return;
                if (!check(device.dmaRead(pmap, vaToVpn(page)),
                           "DMA read refused on a readable page"))
                    return;
                // Write rights were revoked; the revocation must have
                // reached the IOTLB (or its walk must see the PTE),
                // so the DMA write is dropped as a fault.
                if (!check(!device.dmaWrite(pmap, vaToVpn(page), 0, 1),
                           "DMA write landed on a read-only page"))
                    return;
            } else {
                if (!check(!device.dmaRead(pmap, vaToVpn(page)),
                           "DMA read landed on a ProtNone page") ||
                    !check(!device.dmaWrite(pmap, vaToVpn(page), 0, 1),
                           "DMA write landed on a ProtNone page"))
                    return;
            }
        } else {
            // Deallocate a random page; it must then be unmapped.
            const VAddr page = randomPage();
            if (!check(kernel.vmDeallocate(self, task, page,
                                           kPageSize),
                       "vmDeallocate failed"))
                return;
            model.erase(page);
            std::uint32_t value = 0;
            if (!check(!self.load32(page, &value),
                       "load succeeded on an unmapped page"))
                return;
        }
    }

    // Full final sweep against the model.
    for (const auto &[page, m] : model) {
        std::uint32_t value = 0;
        const bool ok = self.load32(page, &value);
        if (protAllows(m.prot, ProtRead)) {
            if (!check(ok, "final sweep load failed") ||
                !check(value == m.value, "final sweep mismatch"))
                return;
        } else if (!check(!ok, "final sweep read a ProtNone page")) {
            return;
        }
    }
}

} // namespace

Scenario
vmgenScenario(const VmGenOptions &opt)
{
    Scenario s;
    s.name = "vmgen-" + std::to_string(opt.seed) +
             (opt.numa_nodes > 1
                  ? "x" + std::to_string(opt.numa_nodes)
                  : "") +
             (opt.devices ? "d" : "");
    s.summary = opt.devices
                    ? "generated VM+DMA op sequence vs the model"
                    : "generated VM-op sequence vs the reference model";
    s.config.ncpus = opt.ncpus;
    s.config.seed = 0x5eed0000ull + opt.seed;
    if (opt.numa_nodes > 1)
        s.config.numa_nodes = opt.numa_nodes;
    if (opt.devices) {
        s.config.devices = 1;
        s.config.iotlb_entries = 4;
    }
    s.bound = kBound;
    s.driver = [o = opt](vm::Kernel &kernel, kern::Thread &drv,
                         ScenarioState *state) {
        vm::Task *task = kernel.createTask("vmgen");
        VAddr anchor = 0;
        if (!kernel.vmAllocate(drv, *task, &anchor, kPageSize, true)) {
            state->failPredicate("vmgen: anchor vmAllocate failed");
            return;
        }
        // Read-only touchers keep the task's pmap live on the other
        // CPUs (spread across nodes when there are several), so every
        // protection reduction the op sequence performs is a real
        // cross-CPU shootdown. They never write, so they cannot
        // perturb the model.
        bool stop = false;
        const unsigned ncpus = kernel.machine().ncpus();
        std::vector<kern::Thread *> touchers;
        const unsigned n_touch = ncpus > 2 ? 2 : (ncpus > 1 ? 1 : 0);
        for (unsigned i = 0; i < n_touch; ++i) {
            const std::int64_t pin =
                i == 0 ? 1 : static_cast<std::int64_t>(ncpus - 1);
            touchers.push_back(kernel.spawnThread(
                task, "vmgen-touch",
                [anchor, &stop](kern::Thread &self) {
                    while (!stop) {
                        self.access(anchor, ProtRead);
                        self.cpu().advance(250 * kUsec);
                    }
                },
                pin));
        }
        // The device joins the task's responder set for the whole op
        // sequence, so every protection reduction and deallocation
        // also queues at its IOTLB.
        if (o.devices)
            kernel.device(0).attachTo(task->pmap());
        kern::Thread *body = kernel.spawnThread(
            task, "vmgen-body",
            [&kernel, state, o, task](kern::Thread &self) {
                runOps(kernel, self, *task, o, state);
            },
            0);
        drv.join(*body);
        stop = true;
        for (kern::Thread *t : touchers)
            drv.join(*t);
        if (o.devices) {
            // Detach from a plain fiber: the final drain consumes
            // simulated time.
            bool detached = false;
            kernel.machine().ctx().spawn(
                "vmgen-detach", [&kernel, task, &detached] {
                    kernel.device(0).detachFrom(task->pmap());
                    detached = true;
                });
            while (!detached)
                drv.sleep(20 * kUsec);
            const dev::DmaDevice &device = kernel.device(0);
            if (device.dma_reads + device.dma_writes == 0 ||
                kernel.pmaps().shoot().device_commands == 0)
                state->failCoverage("vmgen: device path not exercised");
        }
        if (kernel.machine().cfg().shootdown_policy !=
                hw::ShootdownPolicy::DelayedFlush &&
            kernel.pmaps().shoot().initiated == 0)
            state->failCoverage("vmgen: no shootdown ran");
    };
    return s;
}

bool
parseVmgenName(const std::string &name, VmGenOptions *out)
{
    const std::string prefix = "vmgen-";
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    const char *p = name.data() + prefix.size();
    const char *end = name.data() + name.size();
    VmGenOptions o;
    if (p != end && end[-1] == 'd') {
        o.devices = true;
        --end;
    }
    // from_chars fails on overflow, so a number out of range is an
    // unknown name rather than a wrapped alias of a smaller one.
    auto [q, ec] = std::from_chars(p, end, o.seed);
    if (ec != std::errc())
        return false;
    if (q != end) {
        if (*q != 'x')
            return false;
        unsigned nodes = 0;
        auto [r, node_ec] = std::from_chars(q + 1, end, nodes);
        if (node_ec != std::errc() || r != end || nodes < 2)
            return false;
        o.numa_nodes = nodes;
        o.ncpus = 2 * nodes;
    }
    *out = o;
    return true;
}

} // namespace mach::chk
