#include "farm/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "base/logging.hh"

namespace mach::farm
{

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = 1;
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        shutdown_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(Job job)
{
    MACH_ASSERT(job != nullptr);
    unsigned target;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        MACH_ASSERT(!shutdown_);
        target = next_deque_;
        next_deque_ = (next_deque_ + 1) % workers_.size();
    }
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->jobs.push_back(std::move(job));
    }
    // Publish the ticket only after the job is visible in a deque:
    // every claimed ticket then has a job waiting somewhere, so
    // workers never sleep while work is pending (no missed wakeups).
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++pending_;
        ++available_;
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(state_mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
}

bool
ThreadPool::takeJob(unsigned self, Job *out)
{
    // Own deque first (back = most recently pushed, cache-warm)...
    {
        Worker &mine = *workers_[self];
        std::lock_guard<std::mutex> lock(mine.mutex);
        if (!mine.jobs.empty()) {
            *out = std::move(mine.jobs.back());
            mine.jobs.pop_back();
            return true;
        }
    }
    // ...then steal from a victim's front (oldest job: the one its
    // owner would get to last).
    for (std::size_t i = 1; i < workers_.size(); ++i) {
        Worker &victim = *workers_[(self + i) % workers_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.jobs.empty()) {
            *out = std::move(victim.jobs.front());
            victim.jobs.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(state_mutex_);
            work_ready_.wait(lock, [this] {
                return shutdown_ || available_ > 0;
            });
            if (available_ == 0)
                return; // shutdown with no work left
            --available_; // claim a ticket; a job is waiting somewhere
        }
        Job job;
        // One scan can miss: another claimant may take the job it was
        // heading for while a newer job lands in a deque it already
        // passed. Deques never hold fewer jobs than there are claimed
        // tickets, so a rescan finds one.
        while (!takeJob(self, &job))
            std::this_thread::yield();
        job();
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            MACH_ASSERT(pending_ > 0);
            --pending_;
            if (pending_ == 0)
                all_done_.notify_all();
        }
    }
}

void
runMany(std::vector<std::function<void()>> jobs, unsigned workers)
{
    if (workers <= 1 || jobs.size() <= 1) {
        for (auto &job : jobs)
            job();
        return;
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(workers, jobs.size())));
    for (auto &job : jobs)
        pool.submit(std::move(job));
    pool.wait();
}

unsigned
defaultJobs(unsigned fallback)
{
    if (const char *env = std::getenv("MACH_FARM_JOBS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    if (fallback == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }
    return fallback;
}

} // namespace mach::farm
