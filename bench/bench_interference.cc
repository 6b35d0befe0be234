/**
 * @file
 * Interference & bandwidth-saturation sweep (ROADMAP item 3, beyond
 * the paper's evaluation).
 *
 * Every core runs one of four traffic roles (log_append, point_read,
 * seq_scan, gc_pressure — see workloads/interference_wl.hh); the
 * sweep crosses target channel saturation x read/write core mix x
 * persistence scheme and reports per-role throughput and tail
 * latency plus the NVM channel-occupancy gauges. The interesting
 * question is the one homogeneous workloads cannot ask: how does each
 * scheme's *tail* degrade as mixed traffic fills the channel, and
 * does HOOP's out-of-place batching hold its ordering against the
 * log-based baselines once readers fight the persistence stream?
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "interference",
                "Interference - mixed-role saturation sweep", cfg,
                benchTxPerCore());

    // The six durable schemes, in figure order.
    std::vector<Scheme> schemes;
    for (const Scheme s : kAllSchemes) {
        if (s != Scheme::Native)
            schemes.push_back(s);
    }

    // Saturation is the duty-cycle target (1 = flat out); the read
    // mix is the fraction of cores running reader roles. Values are
    // percent in the labels so they parse as identifiers.
    const double saturations[] = {0.25, 0.5, 1.0};
    const double read_mixes[] = {0.25, 0.75};

    for (const Scheme s : schemes) {
        for (const double sat : saturations) {
            for (const double mix : read_mixes) {
                WorkloadParams params = paperParams(64);
                params.scale = 1024;
                params.interferenceSaturation = sat;
                params.interferenceReadMix = mix;
                bench.add(std::string(schemeName(s)) + "/s" +
                              TablePrinter::num(sat * 100, 0) + "/r" +
                              TablePrinter::num(mix * 100, 0),
                          s, "interference", params, cfg,
                          bench.txPerCore());
            }
        }
    }
    bench.run();

    const char *roles[] = {"log_append", "point_read", "seq_scan",
                           "gc_pressure"};
    auto p99 = [](const RunMetrics &m, const char *role) {
        std::string v = "-";
        for (const RoleMetrics &rm : m.roles) {
            if (rm.name == role) {
                v = TablePrinter::num(rm.latency.p99Ns / 1e3, 2);
                if (rm.latency.p99Saturated)
                    v += "*";
            }
        }
        return v;
    };
    for (std::size_t mix = 0; mix < std::size(read_mixes); ++mix) {
        TablePrinter t("Saturation sweep, read mix " +
                       TablePrinter::num(read_mixes[mix] * 100, 0) +
                       "% (per-role p99 in us; channel util)");
        std::vector<std::string> header{"scheme", "saturation",
                                        "tx/s (M)", "util"};
        for (const char *r : roles)
            header.push_back(std::string(r) + " p99");
        t.setHeader(header);
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            for (std::size_t sat = 0; sat < std::size(saturations);
                 ++sat) {
                // Cells run scheme-major, then saturation, then mix.
                const RunMetrics &m = bench.metrics(
                    (s * std::size(saturations) + sat) *
                        std::size(read_mixes) +
                    mix);
                std::vector<std::string> row{
                    schemeName(schemes[s]),
                    TablePrinter::num(saturations[sat] * 100, 0) + "%",
                    TablePrinter::num(m.txPerSecond / 1e6, 3),
                    TablePrinter::num(m.channelUtilization, 3)};
                for (const char *r : roles)
                    row.push_back(p99(m, r));
                t.addRow(row);
            }
        }
        t.print();
    }
    std::printf("(* = under-populated quantile: exact max reported)\n");

    bench.write();
    return 0;
}
