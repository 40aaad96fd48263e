/**
 * @file
 * Shared helpers for the table-reproduction benchmark binaries.
 */

#ifndef MACH_BENCH_BENCH_COMMON_HH
#define MACH_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "apps/workload.hh"
#include "base/logging.hh"
#include "farm/farm.hh"
#include "vm/kernel.hh"

namespace mach::bench
{

/** One evaluation application run on a fresh kernel. */
struct AppRun
{
    std::string label;
    apps::WorkloadResult result;
    Tick runtime = 0;
};

/**
 * Workload scale factor from the MACH_BENCH_SCALE environment variable
 * (default 1). The default runs are time-compressed relative to the
 * paper's 7.5-60 minute applications; a larger scale multiplies the
 * work (jobs, transactions, successive runs) for event counts closer
 * to the paper's, at proportionally longer host time.
 */
inline unsigned
benchScale()
{
    const char *env = std::getenv("MACH_BENCH_SCALE");
    if (env == nullptr)
        return 1;
    const int value = std::atoi(env);
    return value >= 1 ? static_cast<unsigned>(value) : 1;
}

/** Factory for the four Section 5.2 applications by index 0..3. */
inline std::unique_ptr<apps::Workload>
makeApp(unsigned index)
{
    const unsigned scale = benchScale();
    switch (index) {
      case 0: {
        apps::MachBuild::Params params;
        params.jobs *= scale;
        return std::make_unique<apps::MachBuild>(params);
      }
      case 1: {
        apps::Parthenon::Params params;
        params.runs *= scale;
        return std::make_unique<apps::Parthenon>(params);
      }
      case 2: {
        apps::Agora::Params params;
        params.runs *= scale;
        params.regions *= scale;
        return std::make_unique<apps::Agora>(params);
      }
      case 3: {
        apps::Camelot::Params params;
        params.transactions *= scale;
        return std::make_unique<apps::Camelot>(params);
      }
    }
    fatal("makeApp: bad index %u", index);
}

inline const char *
appLabel(unsigned index)
{
    static const char *labels[] = {"Mach", "Parthenon", "Agora",
                                   "Camelot"};
    return labels[index];
}

/** Run application @p index on a fresh machine with @p config. */
inline AppRun
runApp(unsigned index, const hw::MachineConfig &config)
{
    vm::Kernel kernel(config);
    std::unique_ptr<apps::Workload> app = makeApp(index);
    AppRun run;
    run.label = appLabel(index);
    run.result = app->execute(kernel);
    run.runtime = run.result.virtual_runtime;
    return run;
}

/**
 * Run every measurement job concurrently on farm::defaultJobs(1)
 * workers -- MACH_FARM_JOBS wide, serial by default -- or on
 * @p jobs_override when nonzero, and return when all are done. Each
 * job is one independent machine, so any width produces the same
 * numbers; width only changes the wall clock. Jobs must write results
 * into their own indexed slots and must not print -- collect first,
 * then report serially so tables stay ordered.
 */
inline void
runFarmed(std::vector<std::function<void()>> jobs, unsigned jobs_override = 0)
{
    farm::runMany(std::move(jobs),
                  jobs_override != 0 ? jobs_override : farm::defaultJobs(1));
}

inline void
printRuntime(const AppRun &run)
{
    std::printf("  %-10s virtual runtime %6.1f s\n", run.label.c_str(),
                static_cast<double>(run.runtime) / kSec);
}

/**
 * A committed BENCH_*.json table: {"bench", "scale", "results": {key:
 * {field: value, ...}, ...}}, one result cell per line. Integers print
 * verbatim and reals as %.3f, so a table regenerates byte-identical and
 * CI can `cmp` it against the committed copy.
 */
class JsonTable
{
  public:
    JsonTable(std::string bench, unsigned scale)
        : bench_(std::move(bench)), scale_(scale)
    {
    }

    /** Start the result cell @p key; field() fills it in order. */
    void
    cell(const std::string &key)
    {
        cells_.push_back("\"" + key + "\": {");
    }

    void
    field(const std::string &name, std::uint64_t value)
    {
        add(name, std::to_string(value));
    }

    void
    field(const std::string &name, double value)
    {
        char text[64];
        std::snprintf(text, sizeof(text), "%.3f", value);
        add(name, text);
    }

    /** Write the table to @p path, or fatal() when it cannot. */
    void
    write(const char *path) const
    {
        std::FILE *out = std::fopen(path, "w");
        if (out == nullptr)
            fatal("%s: cannot write %s", bench_.c_str(), path);
        std::fprintf(out,
                     "{\n  \"bench\": \"%s\",\n  \"scale\": %u,\n"
                     "  \"results\": {\n",
                     bench_.c_str(), scale_);
        for (std::size_t i = 0; i < cells_.size(); ++i)
            std::fprintf(out, "    %s}%s\n", cells_[i].c_str(),
                         i + 1 == cells_.size() ? "" : ",");
        std::fprintf(out, "  }\n}\n");
        std::fclose(out);
    }

  private:
    void
    add(const std::string &name, const std::string &value)
    {
        std::string &cell = cells_.back();
        if (cell.back() != '{')
            cell += ", ";
        cell += "\"" + name + "\": " + value;
    }

    std::string bench_;
    unsigned scale_;
    std::vector<std::string> cells_;
};

} // namespace mach::bench

#endif // MACH_BENCH_BENCH_COMMON_HH
