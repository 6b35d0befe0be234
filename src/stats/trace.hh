/**
 * @file
 * Chrome trace-event tracer (Perfetto / chrome://tracing loadable).
 *
 * Each System owns a TraceBuffer; components append complete ("ph":"X")
 * spans for transactions, GC steps, migrations and recovery phases with
 * timestamps taken from the simulated clock. Buffers are single-threaded
 * (one per simulated System, matching the bench harness's
 * one-cell-per-thread model) and render events to JSON eagerly so the
 * global sink only concatenates strings under a mutex.
 *
 * Tracing is off unless the HOOP_TRACE environment variable names an
 * output file (or a tool calls Trace::setPath()). When off, no
 * TraceBuffer exists and the hot-path check is a single null-pointer
 * test — zero allocation, zero formatting.
 *
 * Timestamps: the trace-event format wants microseconds; the simulator
 * clock is ticks (integer picoseconds). Events are emitted with
 * fractional-microsecond precision (3 decimals = nanoseconds) so short
 * spans stay visible.
 */

#ifndef HOOPNVM_STATS_TRACE_HH
#define HOOPNVM_STATS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hoopnvm
{

/** Per-System collector of Chrome trace events. */
class TraceBuffer
{
  public:
    /**
     * @param processName Label shown for this System in the trace UI
     *                    (e.g. "hoop/updates-heavy").
     */
    explicit TraceBuffer(std::string processName);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /**
     * Append a complete span.
     *
     * @param name  Event name ("tx", "gc", "recovery.scan", ...).
     * @param cat   Category ("tx", "gc", "recovery", "migration").
     * @param tid   Simulated thread id (core id, or a synthetic lane).
     * @param start Span start, in ticks.
     * @param end   Span end, in ticks (clamped to >= start).
     */
    void span(const char *name, const char *cat, unsigned tid,
              Tick start, Tick end);

    /** Append a counter event (one numeric series) at @p at ticks. */
    void counter(const char *name, Tick at, std::uint64_t value);

    /** Flush this buffer's events into the global sink. */
    void flush();

  private:
    std::string processName_;
    int pid_;
    std::vector<std::string> events_;
};

/** Process-wide trace sink. */
namespace Trace
{

/** True when a trace file is armed (env HOOP_TRACE or setPath()). */
bool enabled();

/** Arm (or, with an empty path, disarm) tracing programmatically. */
void setPath(const std::string &path);

/** Path the trace will be written to, empty when disabled. */
std::string path();

/**
 * Write all flushed events as one Chrome trace JSON object. Called
 * automatically at process exit; tools may call it earlier. Returns
 * false if the file could not be written. Safe to call when disabled
 * (no-op, returns true).
 */
bool write();

/** Drop all flushed events (tests). */
void clearForTest();

} // namespace Trace

} // namespace hoopnvm

#endif // HOOPNVM_STATS_TRACE_HH
