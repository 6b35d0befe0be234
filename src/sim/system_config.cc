#include "sim/system_config.hh"

#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

struct SchemeNames
{
    Scheme scheme;
    const char *token;
    const char *name;
};

constexpr SchemeNames kSchemeNames[] = {
    {Scheme::Native, "native", "Ideal"},
    {Scheme::Hoop, "hoop", "HOOP"},
    {Scheme::OptRedo, "redo", "Opt-Redo"},
    {Scheme::OptUndo, "undo", "Opt-Undo"},
    {Scheme::Osp, "osp", "OSP"},
    {Scheme::Lsm, "lsm", "LSM"},
    {Scheme::Lad, "lad", "LAD"},
};

const SchemeNames &
namesOf(Scheme s)
{
    for (const auto &n : kSchemeNames) {
        if (n.scheme == s)
            return n;
    }
    HOOP_PANIC("unknown scheme");
}

} // namespace

const char *
schemeName(Scheme s)
{
    return namesOf(s).name;
}

const char *
schemeToken(Scheme s)
{
    return namesOf(s).token;
}

bool
schemeFromToken(const std::string &token, Scheme *out)
{
    for (const auto &n : kSchemeNames) {
        if (token == n.token) {
            *out = n.scheme;
            return true;
        }
    }
    return false;
}

} // namespace hoopnvm
