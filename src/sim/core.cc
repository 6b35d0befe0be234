#include "sim/core.hh"

#include "common/logging.hh"

namespace hoopnvm
{

Core::Core(CoreId id)
    : id_(id)
{
}

void
Core::advanceTo(Tick t)
{
    if (t > clock_)
        clock_ = t;
}

void
Core::reset()
{
    inTx_ = false;
    txStart_ = 0;
}

} // namespace hoopnvm
