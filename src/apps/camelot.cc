#include "apps/camelot.hh"

#include <vector>

#include "base/logging.hh"

namespace mach::apps
{

namespace
{
/** Server threads running transactions in parallel. */
constexpr unsigned kServers = 8;
/** Pages of the shared recoverable database region. */
constexpr unsigned kDbPages = 64;
} // namespace

void
Camelot::run(vm::Kernel &kernel, kern::Thread &driver)
{
    vm::Task *task = kernel.createTask("camelot");
    unsigned remaining = params_.transactions;

    kern::Thread *coordinator = kernel.spawnThread(
        task, "camelot-tran-manager", [&](kern::Thread &self) {
            // Build the recoverable database region once.
            VAddr db = 0;
            bool ok = kernel.vmAllocate(self, *task, &db,
                                        kDbPages * kPageSize, true);
            MACH_ASSERT(ok);
            for (unsigned p = 0; p < kDbPages; ++p) {
                ok = self.store32(db + p * kPageSize, 0xdb000000 + p);
                MACH_ASSERT(ok);
            }

            unsigned next_server = 0;
            auto server_body = [&, db](kern::Thread &server) {
                Rng rng(params_.seed + 7919 * ++next_server);
                (void)server;
                for (;;) {
                    if (remaining == 0)
                        break;
                    --remaining;

                    // Begin: virtual-copy a slice of the database.
                    // The copy-on-write protection reduction on this
                    // multi-threaded task's pmap is a user shootdown.
                    const unsigned slice_pages =
                        static_cast<unsigned>(rng.range(1, 4));
                    const VAddr slice =
                        db + pageTrunc(static_cast<VAddr>(rng.below(
                                 (kDbPages - slice_pages) *
                                 kPageSize)));
                    VAddr copy = 0;
                    if (!kernel.vmCopy(server, *task, slice,
                                       slice_pages * kPageSize, &copy))
                        continue;

                    // Modify the copy: COW faults pull private pages.
                    for (unsigned p = 0; p < slice_pages; ++p) {
                        const bool stored = server.store32(
                            copy + p * kPageSize,
                            static_cast<std::uint32_t>(rng.next()));
                        MACH_ASSERT(stored);
                        server.compute(Tick(rng.exponential(14.0) *
                                            kMsec));
                    }

                    // Commit: write the recovery log through a kernel
                    // buffer; its free is a kernel shootdown.
                    const VAddr log =
                        kernel.kmemAlloc(server, 2 * kPageSize);
                    const bool logged = server.store32(log, 0x10c);
                    MACH_ASSERT(logged);
                    kernel.io().request(
                        server, Tick(rng.exponential(20.0) * kMsec));
                    kernel.kmemFree(server, log, 2 * kPageSize);

                    // Cleanup: drop the transaction's private copy
                    // (its touched pages make this a user shootdown).
                    kernel.vmDeallocate(server, *task, copy,
                                        slice_pages * kPageSize);
                    ++commits;

                    // Think time before the next transaction.
                    server.sleep(Tick(rng.exponential(45.0) * kMsec));
                }
            };

            std::vector<kern::Thread *> servers;
            for (unsigned s = 0; s < kServers; ++s) {
                servers.push_back(kernel.spawnThread(
                    task, "camelot-server" + std::to_string(s),
                    server_body));
            }
            for (kern::Thread *server : servers)
                self.join(*server);
        });

    driver.join(*coordinator);
}

} // namespace mach::apps
