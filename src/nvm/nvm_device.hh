/**
 * @file
 * Byte-addressable NVM device model.
 *
 * The device is both *functional* (it stores real bytes, sparsely backed
 * so a 512 GB simulated capacity costs only what is touched) and *timed*
 * (each accounted access reserves the channel, so background traffic such
 * as garbage collection or asynchronous log checkpointing contends with
 * foreground fills exactly as it would on real hardware).
 *
 * Timing model: an access starting at time `now` begins transferring at
 * `start = max(now, channel_free)`; the channel is occupied for the
 * transfer time (bytes / bandwidth) and the access completes at
 * `start + device_latency + transfer`. Device latency is pipelined, so
 * multiple outstanding accesses overlap their latencies but serialize on
 * channel bandwidth — the behaviour the recovery experiment (Fig. 11)
 * depends on.
 *
 * Accounting discipline: read()/write() move bytes *and* charge
 * time/energy/traffic. peek()/poke() move bytes silently and exist for
 * test verification and pre-simulation state setup only.
 *
 * Fault injection: every device owns a FaultModel (disabled by
 * default). Timed writes register with it so a crash can tear the
 * in-flight suffix at 8-byte word granularity, and every byte leaving
 * the device through peek()/read() passes through its scheduled
 * media-fault filter (see fault_model.hh).
 */

#ifndef HOOPNVM_NVM_NVM_DEVICE_HH
#define HOOPNVM_NVM_NVM_DEVICE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "nvm/energy_model.hh"
#include "nvm/fault_model.hh"
#include "nvm/nvm_timing.hh"
#include "nvm/write_observer.hh"
#include "stats/stat_set.hh"

namespace hoopnvm
{

/** Sparse, timed, byte-addressable non-volatile memory device. */
class NvmDevice
{
  public:
    /**
     * @param capacity Total device capacity in bytes.
     * @param timing   Latency and bandwidth parameters.
     * @param energy   Per-bit energy parameters.
     */
    NvmDevice(std::uint64_t capacity, NvmTiming timing,
              EnergyParams energy = EnergyParams{});

    /**
     * Timed read: copies bytes out and returns the completion tick.
     *
     * When a read-retry policy is configured (setReadRetryPolicy) and
     * media faults are scheduled, the read is ECC-filtered: correctable
     * words are delivered clean (charging the per-word correction
     * surcharge), an uncorrectable first attempt is retried up to the
     * bounded attempt budget with modelled backoff (each retry
     * re-occupies the channel), and a read that stays uncorrectable
     * is delivered as-is with @p rf reporting the damage — the caller's
     * CRC machinery sees a structured ReadFault instead of silent
     * corruption. A null @p rf discards the report.
     */
    Tick read(Tick now, Addr addr, void *buf, std::size_t len,
              ReadFaultInfo *rf = nullptr);

    /** Timed write: copies bytes in and returns the completion tick. */
    Tick write(Tick now, Addr addr, const void *buf, std::size_t len);

    /**
     * Timed write that stores all @p len bytes but charges
     * time/energy/traffic for only @p accounted of them. Models
     * appends into shared structures (e.g. commit records packed into
     * address slices) whose full slot the simulator materializes but
     * whose incremental cost is smaller. The stored bytes still flow
     * through the fault model, so the append can tear on crash.
     */
    Tick write(Tick now, Addr addr, const void *buf, std::size_t len,
               std::size_t accounted);

    /**
     * Timed write without data movement, for modelled traffic whose
     * payload the functional state does not need (e.g. log metadata
     * padding). Charges time, energy and traffic only.
     */
    Tick writeAccounting(Tick now, std::size_t len);

    /** Timed read without data movement (see writeAccounting). */
    Tick readAccounting(Tick now, std::size_t len);

    /** Untimed read for verification / recovery replay inspection. */
    void peek(Addr addr, void *buf, std::size_t len) const;

    /** Untimed write for pre-simulation state setup. */
    void poke(Addr addr, const void *buf, std::size_t len);

    /** Untimed 8-byte convenience peek. */
    std::uint64_t peekWord(Addr addr) const;

    /** Untimed 8-byte convenience poke. */
    void pokeWord(Addr addr, std::uint64_t value);

    std::uint64_t capacity() const { return capacity_; }
    const NvmTiming &timing() const { return timing_; }

    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }
    std::uint64_t readAccesses() const { return readAccesses_; }
    std::uint64_t writeAccesses() const { return writeAccesses_; }
    const EnergyModel &energy() const { return energy_; }

    /** First tick at which the channel is free. */
    Tick channelFree() const { return channelFree_; }

    /**
     * Drain fence: returns the earliest tick by which every write
     * issued so far is durable on media — `max(now, channel_free +
     * write_latency)` — and *holds the channel* until that bound, so
     * accesses issued afterwards at earlier core clocks queue behind
     * the drain instead of slipping into the window. Controllers use
     * this for log truncation / GC watermark barriers; pair it with
     * `faults().settleUpTo(bound)` to retire scheduled media faults
     * up to the same point.
     */
    Tick drainFence(Tick now);

    /** Ticks the channel spent occupied (transfer + bank busy). */
    std::uint64_t channelBusyTicks() const { return channelBusyTicks_; }

    /** Ticks accesses spent queued behind a busy channel. */
    std::uint64_t channelWaitTicks() const { return channelWaitTicks_; }

    /** Drain fences issued since the last counter reset. */
    std::uint64_t drainFences() const { return drainFences_; }

    /** Reset traffic/energy counters (not the stored bytes). */
    void resetCounters();

    /** Drop all stored bytes and counters (fresh device). */
    void clear();

    // ---- Fault injection ----

    /** The device's fault injector (disabled until configured). */
    FaultModel &faults() { return faults_; }
    const FaultModel &faults() const { return faults_; }

    /**
     * Power failure at @p tick: tear every write still in flight per
     * the fault model (no-op unless torn writes were enabled).
     */
    void applyCrashFaults(Tick tick);

    /**
     * Attach an observer of timed writes, durability fences and
     * crashes (nullptr detaches). Used by the persistency-ordering
     * analyzer; accounting-only traffic and untimed peek/poke are not
     * reported (they carry no durability obligation).
     */
    void setWriteObserver(NvmWriteObserver *obs);

    // ---- Media tolerance (runtime fault-tolerance subsystem) ----

    /**
     * Configure the timed-read retry policy: up to @p max_retries
     * re-reads after an uncorrectable attempt, each adding
     * @p backoff of modelled delay before re-occupying the channel,
     * plus @p ecc_cost of latency surcharge per ECC-corrected word.
     * All zero by default (reads never retry, corrections are free) —
     * the pre-subsystem behaviour.
     */
    void
    setReadRetryPolicy(unsigned max_retries, Tick backoff, Tick ecc_cost)
    {
        readRetryMax_ = max_retries;
        readRetryBackoff_ = backoff;
        eccCorrectCost_ = ecc_cost;
    }

    /** Retry attempts spent by timed reads since the last reset. */
    std::uint64_t readRetries() const { return readRetries_; }

    /** Timed reads that stayed uncorrectable after the retry budget. */
    std::uint64_t uncorrectableReads() const { return uncorrectableReads_; }

  private:
    static constexpr std::uint64_t kPageBytes = 4096;
    using Page = std::array<std::uint8_t, kPageBytes>;

    /**
     * Pages are found through a two-level table: the top level has one
     * slot per 2 MiB span of the address space, and each slot holds
     * the span's 512 page pointers. Both levels fill in on first
     * write, so construction allocates nothing and a lookup is two
     * indexed loads.
     */
    static constexpr std::uint64_t kTableBytes = miB(2);
    static constexpr std::size_t kPagesPerTable = kTableBytes / kPageBytes;
    using PageTable = std::array<std::unique_ptr<Page>, kPagesPerTable>;

    /** Backing page for @p addr, created zero-filled on demand. */
    Page &pageFor(Addr addr);

    /** Backing page for @p addr if it exists, else nullptr. */
    const Page *pageIfPresent(Addr addr) const;

    /** peek() without the media-fault filter (pre-image capture). */
    void peekRaw(Addr addr, void *buf, std::size_t len) const;

    /** Common channel-reservation timing for one access. */
    Tick reserve(Tick now, std::size_t len, bool is_write);

    std::uint64_t capacity_;
    NvmTiming timing_;
    EnergyModel energy_;
    FaultModel faults_;

    /** Top level of the page table, grown to the highest span written
     *  so far (never past capacity). */
    std::vector<std::unique_ptr<PageTable>> tables_;

    NvmWriteObserver *observer_ = nullptr;
    Tick channelFree_ = 0;
    std::uint64_t channelBusyTicks_ = 0;
    std::uint64_t channelWaitTicks_ = 0;
    std::uint64_t drainFences_ = 0;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t readAccesses_ = 0;
    std::uint64_t writeAccesses_ = 0;

    unsigned readRetryMax_ = 0;
    Tick readRetryBackoff_ = 0;
    Tick eccCorrectCost_ = 0;
    std::uint64_t readRetries_ = 0;
    std::uint64_t uncorrectableReads_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_NVM_NVM_DEVICE_HH
