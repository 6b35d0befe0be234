#include "cli.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "workloads/registry.hh"

namespace hoopnvm::cli
{

namespace
{

/** Column where help text starts. */
constexpr std::size_t kHelpColumn = 18;

} // namespace

Setter
text(std::string *dst)
{
    return [dst](const std::string &v) {
        *dst = v;
        return true;
    };
}

Setter
on(bool *dst)
{
    return [dst](const std::string &) {
        *dst = true;
        return true;
    };
}

Setter
real(double *dst)
{
    return [dst](const std::string &v) {
        double x = 0;
        if (!parseReal(v, &x) || x < 0)
            return false;
        *dst = x;
        return true;
    };
}

Setter
oneOf(std::string *dst, std::vector<std::string> allowed)
{
    return [dst, allowed = std::move(allowed)](const std::string &v) {
        if (std::find(allowed.begin(), allowed.end(), v) == allowed.end())
            return false;
        *dst = v;
        return true;
    };
}

std::vector<Scheme>
allSchemes()
{
    // push_back rather than assign(first, last): GCC's UBSan build
    // flags the range-assign growth path with a spurious
    // -Warray-bounds on the 6-element source array.
    std::vector<Scheme> out;
    for (Scheme s : kDurableSchemes)
        out.push_back(s);
    return out;
}

Setter
schemes(std::vector<Scheme> *dst)
{
    return [dst](const std::string &v) {
        Scheme s;
        if (v == "all")
            *dst = allSchemes();
        else if (schemeFromToken(v, &s) && s != Scheme::Native)
            *dst = {s};
        else
            return false;
        return true;
    };
}

Setter
workloads(std::vector<std::string> *dst)
{
    return [dst](const std::string &v) {
        if (v == "all")
            dst->assign(std::begin(kTableIIIWorkloads),
                        std::end(kTableIIIWorkloads));
        else if (workloadKnown(v))
            *dst = {v};
        else
            return false;
        return true;
    };
}

Setter
workload(std::string *dst)
{
    return [dst](const std::string &v) {
        if (!workloadKnown(v))
            return false;
        *dst = v;
        return true;
    };
}

Tool::Tool(std::string name, std::vector<Flag> flags)
    : name_(std::move(name)), flags_(std::move(flags))
{
}

std::optional<int>
Tool::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::fputs(usage().c_str(), stdout);
            return kExitClean;
        }
        const auto f = std::find_if(
            flags_.begin(), flags_.end(), [&a](const Flag &fl) {
                return fl.spec.substr(0, fl.spec.find(' ')) == a;
            });
        if (f == flags_.end())
            return usageError("unknown option " + a);
        std::string value;
        if (f->spec.find(' ') != std::string::npos) {
            if (i + 1 >= argc)
                return usageError(a + " needs a value");
            value = argv[++i];
        }
        if (!f->set(value))
            return usageError("invalid value '" + value + "' for " + a);
    }
    return std::nullopt;
}

std::string
Tool::usage() const
{
    std::string out = "usage: " + name_ + " [options]\n";
    for (const Flag &f : flags_) {
        std::string line = "  " + f.spec;
        line.append(line.size() + 2 <= kHelpColumn
                        ? kHelpColumn - line.size()
                        : 2,
                    ' ');
        for (char c : f.help) {
            line += c;
            if (c == '\n')
                line.append(kHelpColumn, ' ');
        }
        out += line + "\n";
    }
    return out;
}

int
Tool::usageError(const std::string &msg) const
{
    std::fprintf(stderr, "%s: %s\n%s", name_.c_str(), msg.c_str(),
                 usage().c_str());
    return kExitUsage;
}

std::optional<int>
Tool::makeOutDir(const std::string &dir) const
{
    // Reproducers are written with plain ofstream, which silently
    // drops the file if the directory is missing — create it up front.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec)
        return std::nullopt;
    std::fprintf(stderr, "%s: cannot create --out %s: %s\n", name_.c_str(),
                 dir.c_str(), ec.message().c_str());
    return kExitUsage;
}

bool
Tool::readFile(const std::string &path, std::string *text)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    *text = ss.str();
    return true;
}

std::string
reproducerPath(const std::string &dir, const char *prefix, Scheme scheme,
               const std::string &cell, std::size_t idx)
{
    return dir + "/" + prefix + "_violation_" + schemeToken(scheme) + "_" +
           cell + "_" + std::to_string(idx) + ".json";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
    if (!f)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

} // namespace hoopnvm::cli
