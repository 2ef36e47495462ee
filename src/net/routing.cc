#include "routing.h"

#include "common/log.h"

namespace ultra::net
{

OmegaTopology::OmegaTopology(std::uint32_t n, unsigned k)
    : n_(n), k_(k)
{
    ULTRA_ASSERT(isPowerOfTwo(k) && k >= 2, "switch degree must be a "
                 "power of two >= 2, got ", k);
    ULTRA_ASSERT(isPowerOfTwo(n) && n >= k, "port count must be a power "
                 "of two >= k, got ", n);
    kBits_ = log2Exact(k);
    stages_ = logBase(n, k);
    ULTRA_ASSERT(stages_ * kBits_ == log2Exact(n),
                 "port count ", n, " is not a power of the degree ", k);
    mask_ = n - 1;
}

void
OmegaTopology::tracePath(std::uint32_t pe, std::uint32_t mm,
                         std::uint32_t *lines_out) const
{
    lines_out[0] = pe;
    for (unsigned s = 0; s < stages_; ++s)
        lines_out[s + 1] = forwardHop(lines_out[s], s, mm);
}

} // namespace ultra::net
