/**
 * @file
 * The checker's stale-translation oracle.
 *
 * A TLB consistency bug has exactly one observable signature: at some
 * instant when no pmap operation is in flight, a TLB somewhere on the
 * machine caches a translation granting rights the page tables no
 * longer grant (Section 3's "stale data in the TLB ... used to
 * translate addresses incorrectly"). The oracle installs itself as the
 * pmap system's post-operation hook and re-audits every TLB against
 * the page tables after each completed mapping operation, recording a
 * violation the moment an inconsistent entry is visible.
 *
 * Audits are restricted to quiescent instants:
 *
 *  - While any pmap lock is held another initiator is mid-change, and
 *    remote TLBs legitimately hold entries for the old mapping until
 *    that initiator's invalidation phase runs; auditing there would
 *    flag the algorithm's own (correct) transient.
 *  - CPUs with a pending shootdown action are skipped inside
 *    PmapSystem::auditTlbConsistency() itself: their stale entries are
 *    exactly what the queued invalidation is about to remove, and the
 *    protocol guarantees they are not being used to translate.
 *  - Under ShootdownPolicy::DelayedFlush stale entries persist by
 *    design until the next timer flush, so the per-op audit is
 *    meaningless and the oracle only checks at finalCheck() time,
 *    after the machine has drained.
 *
 * The oracle consumes no simulated time and draws no random numbers,
 * so attaching it never changes machine behaviour -- a run with the
 * oracle produces the same determinism digest as a run without it.
 */

#ifndef MACH_CHK_ORACLE_HH
#define MACH_CHK_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::chk
{

/** Stale-translation oracle attached to one vm::Kernel. */
class Oracle
{
  public:
    /** Installs the post-op hook; @p kernel must outlive the oracle. */
    explicit Oracle(vm::Kernel &kernel);
    ~Oracle();

    Oracle(const Oracle &) = delete;
    Oracle &operator=(const Oracle &) = delete;

    /**
     * End-of-run audit. Call after machine().run() returns; checks
     * once more (even under DelayedFlush, where a drained machine has
     * flushed every buffer) unless a pmap lock is still held, which
     * happens only when the run was cut short mid-operation.
     */
    void finalCheck();

    bool clean() const { return violations_.empty(); }

    /** Human-readable violation reports, capped at kMaxStored. */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    std::uint64_t violationCount() const { return violation_count_; }
    std::uint64_t opsAudited() const { return ops_audited_; }

    static constexpr std::size_t kMaxStored = 16;

  private:
    void audit(const char *where);

    vm::Kernel &kernel_;
    std::vector<std::string> violations_;
    std::uint64_t violation_count_ = 0;
    std::uint64_t ops_audited_ = 0;
};

} // namespace mach::chk

#endif // MACH_CHK_ORACLE_HH
