/**
 * @file
 * Fundamental types and constants shared by every hoopnvm module.
 *
 * All simulated time is kept in integer picoseconds (Tick) so that cache
 * and NVM latencies derived from a 2.5 GHz core clock (0.4 ns/cycle) stay
 * exact. All simulated memory locations are physical addresses (Addr) in
 * a flat simulated physical address space that spans the NVM home region
 * and the out-of-place (OOP) region.
 */

#ifndef HOOPNVM_COMMON_TYPES_HH
#define HOOPNVM_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace hoopnvm
{

/** Simulated physical byte address. */
using Addr = std::uint64_t;

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Core (hardware thread) identifier. */
using CoreId = std::uint32_t;

/** Transaction identifier assigned by the memory controller. */
using TxId = std::uint64_t;

/** An address value that never names a real location. */
constexpr Addr kInvalidAddr = ~static_cast<Addr>(0);

/** Transaction id meaning "no transaction". */
constexpr TxId kInvalidTxId = ~static_cast<TxId>(0);

/** A tick later than any the simulation can reach ("never"). */
constexpr Tick kNeverTick = ~static_cast<Tick>(0);

/** Cache line size used throughout the memory hierarchy (bytes). */
constexpr std::size_t kCacheLineSize = 64;

/** Machine word size; HOOP tracks updates at this granularity (bytes). */
constexpr std::size_t kWordSize = 8;

/** Number of words in one cache line. */
constexpr std::size_t kWordsPerLine = kCacheLineSize / kWordSize;

/** Per-line word mask with every word present (bit w = word w). */
constexpr std::uint8_t kWholeLineMask = 0xff;

/** Picoseconds per nanosecond. */
constexpr Tick kTicksPerNs = 1000;

/** Convert nanoseconds to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs));
}

/** Convert ticks to (fractional) nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

/** Convert ticks to (fractional) milliseconds. */
constexpr double
ticksToMs(Tick t)
{
    return ticksToNs(t) / 1e6;
}

/** Round @p a down to a multiple of @p align (power of two). */
constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** Round @p a up to a multiple of @p align (power of two). */
constexpr Addr
alignUp(Addr a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

/** Address of the cache line containing @p a. */
constexpr Addr
lineAddr(Addr a)
{
    return alignDown(a, kCacheLineSize);
}

/** Address of the word containing @p a. */
constexpr Addr
wordAddr(Addr a)
{
    return alignDown(a, kWordSize);
}

/** True if @p a is a multiple of @p align (power of two). */
constexpr bool
isAligned(Addr a, std::uint64_t align)
{
    return (a & (align - 1)) == 0;
}

/** Kibibytes to bytes. */
constexpr std::uint64_t
kiB(std::uint64_t n)
{
    return n << 10;
}

/** Mebibytes to bytes. */
constexpr std::uint64_t
miB(std::uint64_t n)
{
    return n << 20;
}

/** Gibibytes to bytes. */
constexpr std::uint64_t
giB(std::uint64_t n)
{
    return n << 30;
}

} // namespace hoopnvm

#endif // HOOPNVM_COMMON_TYPES_HH
