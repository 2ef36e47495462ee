/**
 * @file
 * Synthetic traffic sources for the network experiments of section 4.
 *
 * The analytic model assumes requests generated at each PE by
 * independent identically distributed time-invariant random processes
 * with MMs equally likely to be referenced; the open-loop generator
 * reproduces exactly that.  The hot-spot generator directs a fraction
 * of the traffic at one shared address (fetch-and-add on a coordination
 * variable), the workload the combining network exists to absorb.
 * Closed-loop mode bounds each PE to a window of outstanding requests,
 * which is how real PEs behave and what the saturation benches use.
 */

#ifndef ULTRA_NET_TRAFFIC_H
#define ULTRA_NET_TRAFFIC_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/pni.h"

namespace ultra::net
{

/** Traffic-source parameters. */
struct TrafficConfig
{
    /** PEs generating traffic (the first activePes ports). */
    std::uint32_t activePes = 64;
    /** Open loop: Bernoulli(rate) new requests per PE per cycle. */
    double rate = 0.05;
    /** Closed loop instead: keep @ref window requests in flight. */
    bool closedLoop = false;
    unsigned window = 1;
    /** Fraction of requests aimed at the single hot address. */
    double hotFraction = 0.0;
    Addr hotAddr = 0;
    /** Op mix for background (non-hot) traffic; must sum to <= 1, the
     *  remainder are fetch-and-adds. */
    double loadFraction = 0.4;
    double storeFraction = 0.4;
    /** Hot requests are always fetch-and-adds (coordination traffic). */
    /** Virtual addresses drawn uniformly from [0, addrSpaceWords). */
    std::uint64_t addrSpaceWords = 1 << 20;
    std::uint64_t seed = 1;
};

/** Drives a PniArray with random requests and tracks completions. */
class TrafficGenerator
{
  public:
    TrafficGenerator(const TrafficConfig &cfg, PniArray &pni,
                     Network &network);

    /** Generate this cycle's requests, in PE-id order; call before
     *  PniArray::tick(). */
    void tick();

    std::uint64_t generated() const { return generated_; }

    /**
     * Run the system for @p cycles: generator, PNIs and network each
     * tick once per cycle.
     */
    void run(Cycle cycles);

    /**
     * Stop generating and run until everything completes (or
     * @p max_cycles pass).  @return true when fully drained.
     */
    bool drain(Cycle max_cycles);

  private:
    void generateOne(PEId pe);

    TrafficConfig cfg_;
    PniArray &pni_;
    Network &network_;
    /** One independent stream per active PE: the paper's model wants
     *  i.i.d. per-PE processes, and per-PE streams make the draws
     *  independent of the order PEs are visited in. */
    std::vector<Rng> rngs_;
    std::uint64_t generated_ = 0;
};

} // namespace ultra::net

#endif // ULTRA_NET_TRAFFIC_H
