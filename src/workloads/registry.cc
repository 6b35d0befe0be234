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

RunDriver::RunDriver(System &sys, const WorkloadFactory &factory)
    : sys_(sys), done_(sys.config().numCores, 0)
{
    for (unsigned c = 0; c < sys.config().numCores; ++c) {
        wls_.push_back(factory(sys, c));
        wls_.back()->setup();
    }
}

void
RunDriver::runMinClock(std::uint64_t tx_per_core)
{
    const unsigned n_cores = numCores();
    std::vector<std::uint64_t> left(n_cores, tx_per_core);
    std::uint64_t remaining = tx_per_core * n_cores;

    while (remaining > 0) {
        // Run the unfinished core furthest behind in simulated time,
        // ties to the lowest index.
        unsigned next = n_cores;
        Tick best = kNeverTick;
        for (unsigned c = 0; c < n_cores; ++c) {
            if (left[c] > 0 && sys_.core(c).clock() < best) {
                best = sys_.core(c).clock();
                next = c;
            }
        }
        HOOP_ASSERT(next < n_cores, "no runnable core");
        {
            HostTimer ht(HostProfiler::kExecute);
            wls_[next]->runTransaction(done_[next]++);
        }
        --left[next];
        --remaining;
        {
            HostTimer ht(HostProfiler::kMaintenance);
            sys_.maintenance();
        }
    }
}

void
RunDriver::runRounds(std::uint64_t rounds, const TxHook &hook)
{
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (unsigned c = 0; c < numCores(); ++c) {
            try {
                wls_[c]->runTransaction(done_[c]++);
            } catch (const TxRejected &rj) {
                if (!hook)
                    throw;
                if (!hook(c, &rj))
                    return;
                continue;
            }
            if (hook && !hook(c, nullptr))
                return;
        }
        sys_.maintenance();
    }
}

bool
RunDriver::verify()
{
    HostTimer ht(HostProfiler::kVerify);
    // Nothing mutates simulated state during verification, so batched
    // debug reads are safe.
    sys_.caches().beginDebugBatch();
    bool ok = true;
    for (const auto &wl : wls_)
        ok = ok && wl->verify();
    sys_.caches().endDebugBatch();
    return ok;
}

RunOutcome
runWorkload(System &sys, const WorkloadFactory &factory,
            std::uint64_t tx_per_core)
{
    RunDriver driver(sys, factory);
    sys.beginMeasurement();
    driver.runMinClock(tx_per_core);
    {
        HostTimer ht(HostProfiler::kDrain);
        sys.finalize();
    }

    return {sys.metrics(), driver.verify()};
}

} // namespace hoopnvm
