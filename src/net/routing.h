/**
 * @file
 * Omega-network topology and routing (section 3.1.1, Figure 2).
 *
 * An n-port network (n a power of k, k a power of two) has
 * D = log_k(n) stages of n/k switches.  A perfect k-shuffle of the n
 * lines precedes every stage.  A message from PE p to MM m leaves the
 * stage-s switch (s = 0 at the PE side) on output port m_{D-1-s}, the
 * s-th most significant base-k digit of m; a returning message leaves on
 * port p_{D-1-s}.  The forward pass consumes destination digits and
 * replaces them with input-port digits, so after D stages the address
 * amalgam holds the return address (section 3.1.2).
 */

#ifndef ULTRA_NET_ROUTING_H
#define ULTRA_NET_ROUTING_H

#include <cstdint>

#include "common/log.h"
#include "common/types.h"

namespace ultra::net
{

/** Static topology helper for one Omega network. */
class OmegaTopology
{
  public:
    /** @param n ports per side; @param k switch degree.  n = k^D. */
    OmegaTopology(std::uint32_t n, unsigned k);

    std::uint32_t numPorts() const { return n_; }
    unsigned degree() const { return k_; }
    unsigned stages() const { return stages_; }
    std::uint32_t switchesPerStage() const { return n_ / k_; }

    // The hop arithmetic below runs on every arrival and departure, so
    // it is defined here where the hop functions can inline it.

    /** Perfect k-shuffle: rotate the base-k digits left by one. */
    std::uint32_t
    shuffle(std::uint32_t line) const
    {
        const unsigned total_bits = stages_ * kBits_;
        return ((line << kBits_) & mask_) | (line >> (total_bits - kBits_));
    }

    /** Inverse shuffle: rotate the base-k digits right by one. */
    std::uint32_t
    unshuffle(std::uint32_t line) const
    {
        const unsigned total_bits = stages_ * kBits_;
        return (line >> kBits_) |
               ((line & (k_ - 1)) << (total_bits - kBits_));
    }

    /** Base-k digit of @p x used for routing at stage @p s. */
    unsigned
    routeDigit(std::uint32_t x, unsigned s) const
    {
        ULTRA_ASSERT(s < stages_);
        return (x >> ((stages_ - 1 - s) * kBits_)) & (k_ - 1);
    }

    /**
     * Switch and input port reached at stage @p s by a message on line
     * @p line (the line between stage s-1 and s; the PE id for s = 0).
     */
    struct Port { std::uint32_t sw; unsigned port; };
    Port
    intoStage(std::uint32_t line, unsigned s) const
    {
        (void)s; // the wiring is the same shuffle before every stage
        const std::uint32_t y = shuffle(line);
        return {y >> kBits_, static_cast<unsigned>(y & (k_ - 1))};
    }

    /**
     * Line leaving stage @p s from switch @p sw, output port @p out.
     * After the final stage this is the MM id.
     */
    std::uint32_t lineFrom(std::uint32_t sw, unsigned out) const
    {
        return sw * k_ + out;
    }

    /**
     * Forward hop: message on @p line entering stage @p s bound for MM
     * @p dest leaves on the returned line.
     */
    std::uint32_t
    forwardHop(std::uint32_t line, unsigned s, std::uint32_t dest) const
    {
        const Port port = intoStage(line, s);
        return lineFrom(port.sw, routeDigit(dest, s));
    }

    /**
     * Reverse hop: reply on @p line on the MM side of stage @p s bound
     * for PE @p origin; returns the line on the PE side of stage @p s.
     */
    std::uint32_t
    reverseHop(std::uint32_t line, unsigned s, std::uint32_t origin) const
    {
        const std::uint32_t sw = line >> kBits_;
        return unshuffle(lineFrom(sw, routeDigit(origin, s)));
    }

    /** The full forward path of lines: element s is the line into
     *  stage s; element D is the MM reached. */
    void tracePath(std::uint32_t pe, std::uint32_t mm,
                   std::uint32_t *lines_out) const;

  private:
    std::uint32_t n_;
    unsigned k_;
    unsigned kBits_;
    unsigned stages_;
    std::uint32_t mask_;
};

} // namespace ultra::net

#endif // ULTRA_NET_ROUTING_H
