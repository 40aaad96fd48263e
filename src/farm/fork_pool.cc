#include "farm/fork_pool.hh"

#include <utility>

#include "obs/recorder.hh"

#if defined(__unix__) || defined(__APPLE__)
#define MACH_FARM_HAVE_FORK 1
#include <cerrno>
#include <cstdio>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define MACH_FARM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MACH_FARM_TSAN 1
#endif
#endif

namespace mach::farm
{

bool
forkAvailable()
{
#if defined(MACH_FARM_HAVE_FORK) && !defined(MACH_FARM_TSAN)
    return true;
#else
    return false;
#endif
}

#ifdef MACH_FARM_HAVE_FORK

namespace
{

/** One forked probe the parent is still collecting. */
struct LiveChild
{
    pid_t pid;
    int fd; ///< Read end of the child's result pipe.
    std::size_t idx;
    std::string buf;
};

/** Fork one child running fn(i); parent keeps the pipe's read end. */
bool
spawnChild(std::size_t i,
           const std::function<std::string(std::size_t)> &fn,
           std::vector<LiveChild> &live)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    // Flush stdio so buffered output is not replayed by the child.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        // Children share the parent's stderr: the process file tag
        // prefixes every text-trace line with the child id, and
        // stderr flushes whole lines (an explicit buffer: unbuffered
        // stderr's one-byte buffer would survive a null one and split
        // each line's first byte off) so concurrent children cannot
        // shear each other's output. Trace-JSON dumps get a per-child
        // file suffix for the same reason.
        char tag[32];
        std::snprintf(tag, sizeof(tag), "child%zu", i);
        static char stderr_line[BUFSIZ];
        std::setvbuf(stderr, stderr_line, _IOLBF, sizeof(stderr_line));
        obs::setProcessFileTag(tag);
        std::string payload;
        try {
            payload = fn(i);
        } catch (...) {
            _exit(1);
        }
        const char *p = payload.data();
        std::size_t left = payload.size();
        while (left > 0) {
            const ssize_t w = write(fds[1], p, left);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                _exit(1);
            }
            p += w;
            left -= static_cast<std::size_t>(w);
        }
        // _exit, not exit: the child shares the parent's atexit hooks,
        // open streams, and live objects; none of them may run here.
        _exit(0);
    }
    close(fds[1]);
    live.push_back(LiveChild{pid, fds[0], i, {}});
    return true;
}

} // namespace

std::vector<std::optional<std::string>>
forkMany(std::size_t n, unsigned jobs,
         const std::function<std::string(std::size_t)> &fn)
{
    std::vector<std::optional<std::string>> results(n);
    if (n == 0)
        return results;
    if (jobs == 0)
        jobs = 1;

    std::vector<LiveChild> live;
    std::size_t next = 0;
    while (next < n || !live.empty()) {
        while (next < n && live.size() < jobs) {
            // A failed spawn leaves its slot nullopt; the caller
            // re-runs that probe without the snapshot.
            spawnChild(next, fn, live);
            ++next;
        }
        if (live.empty())
            break;

        std::vector<pollfd> pfds(live.size());
        for (std::size_t k = 0; k < live.size(); ++k)
            pfds[k] = pollfd{live[k].fd, POLLIN, 0};
        const int rc = poll(pfds.data(),
                            static_cast<nfds_t>(pfds.size()), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        // Walk backwards so erase() does not shift unvisited entries.
        for (std::size_t k = live.size(); k-- > 0;) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char tmp[4096];
            const ssize_t r = read(live[k].fd, tmp, sizeof tmp);
            if (r > 0) {
                live[k].buf.append(tmp, static_cast<std::size_t>(r));
                continue;
            }
            if (r < 0 && errno == EINTR)
                continue;
            // EOF (or error): the child is done writing; reap it.
            close(live[k].fd);
            int status = 0;
            while (waitpid(live[k].pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
                results[live[k].idx] = std::move(live[k].buf);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(k));
        }
    }
    // Drain anything left (poll failure path): reap without results.
    for (LiveChild &child : live) {
        close(child.fd);
        int status = 0;
        while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    return results;
}

#else // !MACH_FARM_HAVE_FORK

std::vector<std::optional<std::string>>
forkMany(std::size_t n, unsigned,
         const std::function<std::string(std::size_t)> &)
{
    return std::vector<std::optional<std::string>>(n);
}

#endif

} // namespace mach::farm
