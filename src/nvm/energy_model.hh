/**
 * @file
 * NVM access energy model (paper Table II).
 *
 * Energy is charged per bit transferred: a row-buffer component plus an
 * array component, with separate read/write costs. Writes are an order
 * of magnitude more expensive than reads (16.82 vs 2.47 pJ/bit at the
 * array), which is why write-traffic reduction dominates the energy
 * results in the paper's Figure 9.
 */

#ifndef HOOPNVM_NVM_ENERGY_MODEL_HH
#define HOOPNVM_NVM_ENERGY_MODEL_HH

#include <cstddef>

namespace hoopnvm
{

/** Per-bit access energies in picojoules. */
inline constexpr double kRowBufferReadPjPerBit = 0.93;
inline constexpr double kRowBufferWritePjPerBit = 1.02;
inline constexpr double kArrayReadPjPerBit = 2.47;
inline constexpr double kArrayWritePjPerBit = 16.82;

/** Accumulates access energy from byte counts. */
class EnergyModel
{
  public:
    /** Charge one access of @p bytes; @p is_write selects the cost. */
    void charge(std::size_t bytes, bool is_write);

    double readEnergyPj() const { return readPj; }
    double writeEnergyPj() const { return writePj; }
    double totalEnergyPj() const { return readPj + writePj; }

    void reset();

  private:
    double readPj = 0.0;
    double writePj = 0.0;
};

} // namespace hoopnvm

#endif // HOOPNVM_NVM_ENERGY_MODEL_HH
