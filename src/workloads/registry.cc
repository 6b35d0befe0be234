#include "workloads/registry.hh"

#include <algorithm>
#include <iterator>

#include "common/host_profiler.hh"
#include "common/logging.hh"
#include "workloads/btree_wl.hh"
#include "workloads/hashmap_wl.hh"
#include "workloads/queue_wl.hh"
#include "workloads/rbtree_wl.hh"
#include "workloads/interference_wl.hh"
#include "workloads/tpcc.hh"
#include "workloads/vector_wl.hh"
#include "workloads/ycsb.hh"

namespace hoopnvm
{

namespace
{

TxContext
contextFor(System &sys, CoreId core)
{
    return TxContext(sys, core,
                     sys.config().seed * 7919 + core * 104729 + 1);
}

} // namespace

WorkloadFactory
makeWorkload(const std::string &name, const WorkloadParams &p)
{
    if (name == "vector") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<VectorWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "hashmap") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<HashmapWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "queue") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<QueueWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "rbtree") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<RbTreeWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale * 4);
        };
    }
    if (name == "btree") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<BTreeWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale * 4);
        };
    }
    if (name == "ycsb") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<YcsbWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "interference") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<InterferenceWorkload>(
                contextFor(sys, core), p);
        };
    }
    if (name == "tpcc") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<TpccWorkload>(
                contextFor(sys, core), p.scale, p.scale);
        };
    }
    // lint: fatal-in-txpath-ok (config-time lookup of a workload name, not an admission path; see the logging.hh fatal audit)
    HOOP_FATAL("unknown workload '%s'", name.c_str());
}

bool
workloadKnown(const std::string &name)
{
    return name == "interference" ||
           std::find(std::begin(kTableIIIWorkloads),
                     std::end(kTableIIIWorkloads),
                     name) != std::end(kTableIIIWorkloads);
}

RunOutcome
runWorkload(System &sys, const WorkloadFactory &factory,
            std::uint64_t tx_per_core)
{
    const unsigned n_cores = sys.config().numCores;
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        workloads.push_back(factory(sys, c));
        workloads.back()->setup();
    }

    sys.beginMeasurement();
    std::vector<std::uint64_t> done(n_cores, 0);
    std::uint64_t remaining = tx_per_core * n_cores;

    while (remaining > 0) {
        // Run the unfinished core furthest behind in simulated time,
        // ties to the lowest index.
        unsigned next = n_cores;
        Tick best = kNeverTick;
        for (unsigned c = 0; c < n_cores; ++c) {
            if (done[c] < tx_per_core && sys.core(c).clock() < best) {
                best = sys.core(c).clock();
                next = c;
            }
        }
        HOOP_ASSERT(next < n_cores, "no runnable core");
        {
            HostTimer ht(HostProfiler::kExecute);
            workloads[next]->runTransaction(done[next]);
        }
        ++done[next];
        --remaining;
        {
            HostTimer ht(HostProfiler::kMaintenance);
            sys.maintenance();
        }
    }
    {
        HostTimer ht(HostProfiler::kDrain);
        sys.finalize();
    }

    RunOutcome out;
    out.metrics = sys.metrics();
    out.verified = true;
    {
        HostTimer ht(HostProfiler::kVerify);
        // The run is finalized: nothing mutates simulated state during
        // verification, so batched debug reads are safe.
        sys.caches().beginDebugBatch();
        for (const auto &wl : workloads)
            out.verified = out.verified && wl->verify();
        sys.caches().endDebugBatch();
    }
    return out;
}

} // namespace hoopnvm
