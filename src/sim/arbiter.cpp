#include "sim/arbiter.hpp"

#include "common/log.hpp"

namespace warpcomp {

BankArbiter::BankArbiter(u32 num_banks) : numBanks_(num_banks)
{
    WC_ASSERT(num_banks >= 1 && num_banks <= kMaxArbiterBanks,
              "arbiter supports 1.." << kMaxArbiterBanks << " banks, got "
                                     << num_banks);
}

} // namespace warpcomp
