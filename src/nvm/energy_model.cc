#include "nvm/energy_model.hh"

namespace hoopnvm
{

void
EnergyModel::charge(std::size_t bytes, bool is_write)
{
    const double bits = static_cast<double>(bytes) * 8.0;
    if (is_write) {
        writePj += bits * (kRowBufferWritePjPerBit + kArrayWritePjPerBit);
    } else {
        readPj += bits * (kRowBufferReadPjPerBit + kArrayReadPjPerBit);
    }
}

void
EnergyModel::reset()
{
    readPj = 0.0;
    writePj = 0.0;
}

} // namespace hoopnvm
