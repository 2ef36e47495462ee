#include "traffic.h"

#include "common/log.h"

namespace ultra::net
{

TrafficGenerator::TrafficGenerator(const TrafficConfig &cfg,
                                   PniArray &pni, Network &network)
    : cfg_(cfg), pni_(pni), network_(network)
{
    ULTRA_ASSERT(cfg_.activePes <= network.config().numPorts);
    ULTRA_ASSERT(cfg_.rate >= 0.0);
    ULTRA_ASSERT(cfg_.loadFraction + cfg_.storeFraction <= 1.0 + 1e-12);
    ULTRA_ASSERT(cfg_.addrSpaceWords > 0);
    Rng parent(cfg_.seed);
    rngs_.reserve(cfg_.activePes);
    for (std::uint32_t pe = 0; pe < cfg_.activePes; ++pe)
        rngs_.push_back(parent.split());
}

void
TrafficGenerator::generateOne(PEId pe)
{
    Rng &rng = rngs_[pe];
    Op op;
    Addr vaddr;
    Word data = 1;
    if (cfg_.hotFraction > 0.0 && rng.bernoulli(cfg_.hotFraction)) {
        op = Op::FetchAdd;
        vaddr = cfg_.hotAddr;
    } else {
        const double pick = rng.uniformDouble();
        if (pick < cfg_.loadFraction)
            op = Op::Load;
        else if (pick < cfg_.loadFraction + cfg_.storeFraction)
            op = Op::Store;
        else
            op = Op::FetchAdd;
        vaddr = rng.uniformInt(cfg_.addrSpaceWords);
        data = static_cast<Word>(rng.uniformInt(1000));
    }
    pni_.request(pe, op, vaddr, data);
    ++generated_;
}

void
TrafficGenerator::tick()
{
    for (PEId pe = 0; pe < cfg_.activePes; ++pe) {
        if (cfg_.closedLoop) {
            while (pni_.pendingCount(pe) < cfg_.window)
                generateOne(pe);
        } else if (rngs_[pe].bernoulli(cfg_.rate)) {
            generateOne(pe);
        }
    }
}

void
TrafficGenerator::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i) {
        tick();
        pni_.tick();
        network_.tick();
    }
}

bool
TrafficGenerator::drain(Cycle max_cycles)
{
    for (Cycle i = 0; i < max_cycles; ++i) {
        if (network_.inFlight() == 0) {
            bool all_idle = true;
            for (PEId pe = 0; pe < cfg_.activePes && all_idle; ++pe)
                all_idle = pni_.idle(pe);
            if (all_idle)
                return true;
        }
        pni_.tick();
        network_.tick();
    }
    return false;
}

} // namespace ultra::net
