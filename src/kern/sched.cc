#include "kern/sched.hh"

#include <limits>

#include "base/logging.hh"
#include "kern/machine.hh"
#include "obs/probe.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach::kern
{

Sched::Sched(Machine *machine)
    : machine_(machine), runq_(machine->ncpus())
{
}

Sched::~Sched() = default;

void
Sched::start()
{
    if (started_)
        return;
    started_ = true;
    for (CpuId id = 0; id < machine_->ncpus(); ++id) {
        Cpu &cpu = machine_->cpu(id);
        auto idle = std::make_unique<Thread>(
            machine_, nullptr, "idle" + std::to_string(id),
            [this](Thread &self) { idleLoop(self); });
        Thread *thread = idle.get();
        thread->is_idle_ = true;
        threads_.push_back(std::move(idle));

        thread->state_ = ThreadState::Running;
        thread->cpu_ = &cpu;
        cpu.cur_thread = thread;
        cpu.idle_thread = thread;
        thread->fiber_ = machine_->ctx().spawn(
            thread->name(), [thread] { thread->body_(*thread); });
    }
}

Thread *
Sched::spawn(vm::Task *task, std::string name, Thread::Body body,
             std::int64_t pin)
{
    auto owned = std::make_unique<Thread>(machine_, task, std::move(name),
                                          std::move(body));
    Thread *thread = owned.get();
    thread->affinity_ = pin;
    threads_.push_back(std::move(owned));

    thread->state_ = ThreadState::Runnable;
    enqueue(placeThread(*thread), *thread);
    return thread;
}

void
Sched::wakeup(Thread &thread)
{
    // Tolerate spurious wakeups (e.g. a join completing just before a
    // timed wake fires).
    if (thread.state_ != ThreadState::Blocked)
        return;
    thread.state_ = ThreadState::Runnable;
    enqueue(placeThread(thread), thread);
}

Cpu &
Sched::placeThread(Thread &thread)
{
    if (thread.affinity_ >= 0)
        return machine_->cpu(static_cast<CpuId>(thread.affinity_));

    // Prefer an idle CPU; otherwise the shortest run queue. Ties go to
    // the lowest id, keeping placement deterministic.
    CpuId best = 0;
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (CpuId id = 0; id < machine_->ncpus(); ++id) {
        Cpu &cpu = machine_->cpu(id);
        std::size_t load = runq_[id].size();
        if (!cpu.idle)
            ++load; // The running thread counts.
        if (load < best_load) {
            best_load = load;
            best = id;
        }
    }
    return machine_->cpu(best);
}

void
Sched::enqueue(Cpu &cpu, Thread &thread)
{
    runq_[cpu.id()].push_back(&thread);
    // A parked idle processor must notice new work promptly.
    if (cpu.cur_thread != nullptr && cpu.cur_thread->isIdle())
        cpu.wakeSleeper();
}

void
Sched::dispatchNext(Cpu &cpu)
{
    Thread *prev = cpu.cur_thread;
    MACH_ASSERT(prev != nullptr);

    Thread *next = nullptr;
    auto &queue = runq_[cpu.id()];
    if (!queue.empty()) {
        next = queue.front();
        queue.pop_front();
    } else {
        next = cpu.idle_thread;
    }

    if (next == prev) {
        prev->state_ = ThreadState::Running;
        return;
    }

    obs::Recorder &rec = machine_->recorder();
    if (rec.enabled()) {
        // Thread names are owned by the scheduler and outlive the run.
        rec.instant(rec.cpuTrack(cpu.id()), obs::kSchedDispatch, {}, {},
                    next->name().c_str());
    }
    // A task switch deactivates the outgoing pmap (which flushes the
    // TLB on hardware without address-space tags) and activates the
    // incoming one.
    vm::Task *from = prev->task();
    vm::Task *to = next->task();
    if (from != to) {
        if (from != nullptr)
            from->pmap().deactivate(cpu);
        if (to != nullptr)
            to->pmap().activate(cpu);
    }
    cpu.cur_thread = next;
    next->cpu_ = &cpu;
    next->state_ = ThreadState::Running;
    next->quantum_used_ = 0;
    makeRunning(cpu, *next);
}

void
Sched::makeRunning(Cpu &cpu, Thread &thread)
{
    // The context-switch cost is charged on the incoming edge (the
    // wake/spawn delay) so that the deschedule path itself never
    // consumes time: state transitions and dispatch bookkeeping are
    // atomic with respect to the simulation, which is what keeps
    // wakeups from racing a half-descheduled thread.
    (void)cpu;
    const Tick delay = hw::kCtxSwitchCost;
    if (thread.fiber_ == 0) {
        Thread *tp = &thread;
        thread.fiber_ = machine_->ctx().spawn(
            thread.name(),
            [this, tp] {
                tp->body_(*tp);
                Cpu &last = *tp->cpu_;
                tp->state_ = ThreadState::Done;
                for (Thread *joiner : tp->joiners_)
                    wakeup(*joiner);
                tp->joiners_.clear();
                dispatchNext(last);
            },
            delay);
    } else {
        machine_->ctx().scheduleWake(thread.fiber_,
                                     machine_->now() + delay);
    }
}

void
Sched::parkUntilRunning(Thread &thread)
{
    while (thread.state_ != ThreadState::Running)
        machine_->ctx().block();
}

void
Sched::blockCurrent(Cpu &cpu)
{
    Thread *current = cpu.cur_thread;
    MACH_ASSERT(current != nullptr && !current->isIdle());
    current->state_ = ThreadState::Blocked;
    dispatchNext(cpu);
    parkUntilRunning(*current);
}

void
Sched::yieldCurrent(Cpu &cpu)
{
    Thread *current = cpu.cur_thread;
    MACH_ASSERT(current != nullptr && !current->isIdle());
    if (runq_[cpu.id()].empty())
        return; // Nothing else to run; keep going.
    current->state_ = ThreadState::Runnable;
    runq_[cpu.id()].push_back(current);
    dispatchNext(cpu);
    parkUntilRunning(*current);
}

void
Sched::idleLoop(Thread &self)
{
    Cpu &cpu = *self.cpu_;
    for (;;) {
        // Join the idle set: no translations are performed here, so the
        // processor leaves the active set and stops taking shootdown
        // interrupts (initiators skip idle processors, Section 4).
        cpu.idle = true;
        cpu.active = false;
        obs::Recorder &rec = machine_->recorder();
        if (rec.enabled())
            rec.begin(rec.cpuTrack(cpu.id()), obs::kIdle);
        if (machine_->cfg().shootdown_policy ==
            hw::ShootdownPolicy::DelayedFlush) {
            // Under technique 2 idle processors take no timer ticks,
            // so they flush on entry to (and exit from) the idle loop
            // instead; a parked TLB is then always clean.
            cpu.tlb().flushAll();
        }
        while (runq_[cpu.id()].empty())
            cpu.idleWait();

        if (machine_->cfg().shootdown_policy ==
            hw::ShootdownPolicy::DelayedFlush) {
            cpu.tlb().flushAll();
        }
        // Leaving idle: execute queued consistency actions *before*
        // becoming active -- the idle-processor rule of Section 4.
        machine_->kernel().pmaps().shoot().idleExit(cpu);
        if (rec.enabled())
            rec.end(rec.cpuTrack(cpu.id()), obs::kIdle);
        cpu.idle = false;
        cpu.active = true;

        self.state_ = ThreadState::Runnable;
        dispatchNext(cpu);
        parkUntilRunning(self);
    }
}

} // namespace mach::kern
