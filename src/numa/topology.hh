/**
 * @file
 * NUMA topology: nodes, distance matrix, interconnect cost model.
 *
 * The paper's machine is one 16-processor bus; this layer composes N
 * such machines (each a bus + a local slice of physical memory + up to
 * 16 CPUs) over a simulated interconnect so one kern::Machine can model
 * 2-8 sockets / 32-128 CPUs deterministically. Distances use the
 * ACPI SLIT convention: the diagonal is 10, a remote entry d means a
 * remote access costs d/10 of the local one. The extra (d-10)/10 share
 * is charged as a deterministic flat penalty on top of the local bus
 * price -- no RNG draws, so enabling NUMA never shifts the per-bus
 * jitter streams the determinism goldens pin.
 */

#ifndef MACH_NUMA_TOPOLOGY_HH
#define MACH_NUMA_TOPOLOGY_HH

#include <string>
#include <vector>

#include "base/types.hh"
#include "hw/machine_config.hh"

namespace mach::numa
{

/** Node layout and distances for one machine (immutable after build). */
class Topology
{
  public:
    /** Local (diagonal) SLIT distance, as in ACPI. */
    static constexpr unsigned kLocalDistance = 10;
    /** Remote distance of an empty numa_distance_spec. */
    static constexpr unsigned kDefaultRemoteDistance = 25;

    /** Build from a config whose numa_distance_spec validate() took. */
    explicit Topology(const hw::MachineConfig *config);

    unsigned nodes() const { return nodes_; }
    unsigned cpusPerNode() const { return cpus_per_node_; }

    /** Node owning processor @p id (contiguous blocks). */
    unsigned nodeOfCpu(CpuId id) const { return id / cpus_per_node_; }

    /** SLIT distance between two nodes. */
    unsigned distance(unsigned a, unsigned b) const
    {
        return distance_[a * nodes_ + b];
    }

    /**
     * Extra ticks a node-@p from CPU pays, on top of the local price
     * @p base, to reach node @p to: base * (distance - 10) / 10.
     * Zero when local or when the machine has one node.
     */
    Tick remoteCost(unsigned from, unsigned to, Tick base) const
    {
        const unsigned d = distance(from, to);
        return d <= kLocalDistance
                   ? 0
                   : base * (d - kLocalDistance) / kLocalDistance;
    }

    /**
     * Parse a numa_distance_spec into @p out (row-major, nodes x
     * nodes). Empty is a uniform kDefaultRemoteDistance, a bare number
     * a uniform remote distance, and anything else a "10,25;25,10"-
     * style matrix (rows ';'-separated, entries ','-separated).
     * Returns false with a message in @p error when a distance lies
     * outside [10, 255] or the matrix is not a symmetric nodes x nodes
     * one with diagonal 10.
     */
    static bool parseDistance(const std::string &spec, unsigned nodes,
                              std::vector<unsigned> *out,
                              std::string *error);

  private:
    unsigned nodes_;
    unsigned cpus_per_node_;
    std::vector<unsigned> distance_;
};

} // namespace mach::numa

#endif // MACH_NUMA_TOPOLOGY_HH
