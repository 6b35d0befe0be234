/**
 * @file
 * NVM timing parameters (paper Table II defaults).
 *
 * The paper models a PCM-like device with 50 ns read and 150 ns write
 * latency; the recovery experiment (Fig. 11) additionally varies channel
 * bandwidth between 10 and 25 GB/s, and the sensitivity study (Fig. 12)
 * sweeps read latency 50-250 ns and write latency 150-350 ns.
 */

#ifndef HOOPNVM_NVM_NVM_TIMING_HH
#define HOOPNVM_NVM_NVM_TIMING_HH

#include "common/types.hh"

namespace hoopnvm
{

/** Bank occupancy of a read beyond its data transfer (see
 *  NvmTiming::writeBusy). */
inline constexpr Tick kReadBusy = nsToTicks(5);

/** Timing parameters of the simulated NVM device. */
struct NvmTiming
{
    /** Device read access latency. */
    Tick readLatency = nsToTicks(50);

    /** Device write access latency. */
    Tick writeLatency = nsToTicks(150);

    /** Channel bandwidth in bytes per second. */
    double bandwidthBytesPerSec = 25.0 * 1e9;

    /**
     * Bank occupancy of a write beyond the data transfer. PCM-class
     * cells hold the bank busy for much of the array write, so
     * effective write bandwidth is far below the channel rate — the
     * pressure that throttles double-writing schemes in the paper's
     * Fig. 7/8.
     */
    Tick writeBusy = nsToTicks(20);

    /** Ticks the channel is occupied transferring @p bytes. */
    Tick
    transferTicks(std::size_t bytes) const
    {
        const double ns =
            static_cast<double>(bytes) * 1e9 / bandwidthBytesPerSec;
        return nsToTicks(ns);
    }
};

} // namespace hoopnvm

#endif // HOOPNVM_NVM_NVM_TIMING_HH
