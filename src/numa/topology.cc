#include "numa/topology.hh"

#include <algorithm>
#include <cstdlib>

#include "base/logging.hh"

namespace mach::numa
{

Topology::Topology(const hw::MachineConfig *config)
    : nodes_(config->numa_nodes),
      cpus_per_node_(config->cpusPerNode())
{
    const bool ok = parseDistance(config->numa_distance_spec, nodes_,
                                  &distance_, nullptr);
    MACH_ASSERT(ok);
}

bool
Topology::parseDistance(const std::string &spec, unsigned nodes,
                        std::vector<unsigned> *out, std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    const auto in_range = [](long v) {
        return v >= static_cast<long>(kLocalDistance) && v <= 255;
    };

    if (spec.find_first_not_of("0123456789") == std::string::npos) {
        // Empty or a bare number: one remote distance, 10 on the
        // diagonal.
        const long remote = spec.empty()
                                ? long{kDefaultRemoteDistance}
                                : std::strtol(spec.c_str(), nullptr, 10);
        if (!in_range(remote))
            return fail("distance out of range [10,255]");
        out->assign(std::size_t{nodes} * nodes,
                    static_cast<unsigned>(remote));
        for (unsigned n = 0; n < nodes; ++n)
            (*out)[n * nodes + n] = kLocalDistance;
        return true;
    }

    std::vector<unsigned> matrix;
    std::size_t pos = 0;
    unsigned rows = 0;
    while (pos <= spec.size()) {
        const std::size_t row_end = std::min(spec.find(';', pos),
                                             spec.size());
        unsigned cols = 0;
        std::size_t p = pos;
        while (p <= row_end) {
            const std::size_t ent_end = std::min(spec.find(',', p),
                                                 row_end);
            if (ent_end == p)
                return fail("empty entry");
            // Named, so `end` still points into it after strtol.
            const std::string entry = spec.substr(p, ent_end - p);
            char *end = nullptr;
            const long v = std::strtol(entry.c_str(), &end, 10);
            if (end == nullptr || *end != '\0')
                return fail("non-numeric entry");
            if (!in_range(v))
                return fail("entry out of range [10,255]");
            matrix.push_back(static_cast<unsigned>(v));
            ++cols;
            if (ent_end >= row_end)
                break;
            p = ent_end + 1;
        }
        if (cols != nodes)
            return fail("row has wrong width");
        ++rows;
        if (row_end >= spec.size())
            break;
        pos = row_end + 1;
    }
    if (rows != nodes)
        return fail("wrong number of rows");

    for (unsigned a = 0; a < nodes; ++a) {
        if (matrix[a * nodes + a] != kLocalDistance)
            return fail("diagonal must be 10");
        for (unsigned b = 0; b < nodes; ++b) {
            if (matrix[a * nodes + b] != matrix[b * nodes + a])
                return fail("matrix must be symmetric");
        }
    }
    *out = std::move(matrix);
    return true;
}

} // namespace mach::numa
