/**
 * @file
 * The command-line layer shared by the check tools (hoop_crashcheck,
 * hoop_soak, hoop_ordercheck, hoop_trace).
 *
 * Each tool declares one flag table; the table drives both parsing
 * and --help. Setters reject malformed or out-of-range values, so bad
 * input of any kind ends in exit code 2 with a message before any
 * System is built. The spec-driven tools (hoop_crashcheck, hoop_soak)
 * also share the reproducer plumbing here: the --out directory,
 * reproducer names and --replay loading.
 *
 * Exit codes, for every tool: 0 = clean, 1 = violation found (for
 * hoop_trace: the run or the trace write failed), 2 = usage error,
 * 3 = watchdog budget exceeded (Watchdog::kExitCode).
 */

#ifndef HOOPNVM_TOOLS_CLI_HH
#define HOOPNVM_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/watchdog.hh"
#include "common/json.hh"
#include "sim/system_config.hh"

namespace hoopnvm::cli
{

inline constexpr int kExitClean = 0;
inline constexpr int kExitViolation = 1;
inline constexpr int kExitUsage = 2;

/** Stores a flag's value; false rejects it as malformed. */
using Setter = std::function<bool(const std::string &value)>;

/** One command-line flag. */
struct Flag
{
    /** "--name" for a switch, "--name ARG" for a flag with a value. */
    std::string spec;

    /** Help text; each '\n' continues under the help column. */
    std::string help;

    Setter set;
};

/** Any string. */
Setter text(std::string *dst);

/** A switch: sets @p dst. */
Setter on(bool *dst);

/** A finite, non-negative number. */
Setter real(double *dst);

/** One of @p allowed. */
Setter oneOf(std::string *dst, std::vector<std::string> allowed);

/** A scheme token, or "all" for every durable scheme. */
Setter schemes(std::vector<Scheme> *dst);

/** A workload name, or "all" for the Table III list. */
Setter workloads(std::vector<std::string> *dst);

/** One workload name. */
Setter workload(std::string *dst);

/** A decimal integer in [@p lo, @p hi]. */
template <typename T>
Setter
count(T *dst, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<T>::max())
{
    return [dst, lo, hi](const std::string &v) {
        std::uint64_t x = 0;
        if (!parseUint(v, &x) || x < lo || x > hi)
            return false;
        *dst = static_cast<T>(x);
        return true;
    };
}

/** Every durable scheme, in sweep order. */
std::vector<Scheme> allSchemes();

/** A tool's name and flag table. */
class Tool
{
  public:
    Tool(std::string name, std::vector<Flag> flags);

    /**
     * Apply @p argv to the flag table. @return nothing to go on, or
     * the exit code to return now: 0 after --help, 2 after a usage
     * error (reported on stderr).
     */
    std::optional<int> parse(int argc, char **argv) const;

    /** Create the reproducer directory @p dir (and its parents). */
    std::optional<int> makeOutDir(const std::string &dir) const;

    /** Read @p path and decode it with Spec::fromJson. */
    template <typename Spec>
    std::optional<int>
    loadSpec(const std::string &path, Spec *out) const
    {
        std::string text;
        std::string err;
        if (!readFile(path, &text))
            return usageError("cannot open replay file " + path);
        if (!Spec::fromJson(text, out, &err))
            return usageError("malformed spec " + path + ": " + err);
        return std::nullopt;
    }

  private:
    /** Report @p msg and the usage on stderr. @return kExitUsage. */
    int usageError(const std::string &msg) const;

    static bool readFile(const std::string &path, std::string *text);
    std::string usage() const;

    std::string name_;
    std::vector<Flag> flags_;
};

/** "<dir>/<prefix>_violation_<scheme>_<cell>_<idx>.json" */
std::string reproducerPath(const std::string &dir, const char *prefix,
                           Scheme scheme, const std::string &cell,
                           std::size_t idx);

/** Write @p text to @p path; complain on stderr if that fails. */
void writeFile(const std::string &path, const std::string &text);

} // namespace hoopnvm::cli

#endif // HOOPNVM_TOOLS_CLI_HH
