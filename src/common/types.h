/**
 * @file
 * Fundamental scalar types shared by every ultra subsystem.
 *
 * The simulator is cycle-stepped: every component advances in units of one
 * network cycle (the switch cycle time of section 3.1.2 of the paper).
 * Processor instruction time and memory-module access time are expressed
 * as multiples of this cycle: the paper simulates one timing, "PE
 * instruction time = MM access time = 2 network cycles" (Table 1).
 */

#ifndef ULTRA_COMMON_TYPES_H
#define ULTRA_COMMON_TYPES_H

#include <cstdint>
#include <limits>

namespace ultra
{

/** Simulated time, in network cycles. */
using Cycle = std::uint64_t;

/** A machine word stored in central memory (64-bit data, section 4.0). */
using Word = std::int64_t;

/** Address of a word in central (shared) memory. */
using Addr = std::uint64_t;

/** Index of a processing element (0 .. N-1). */
using PEId = std::uint32_t;

/** Index of a memory module (0 .. N-1). */
using MMId = std::uint32_t;

/** Cycles per PE instruction (Table 1). */
inline constexpr Cycle kInstrTime = 2;

/** Cycles a memory module takes to service one request (Table 1). */
inline constexpr Cycle kMmAccessTime = 2;

/** Sentinel for "no cycle" / "not yet scheduled". */
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for an invalid address. */
inline constexpr Addr kBadAddr = std::numeric_limits<Addr>::max();

/** True iff @p x is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Base-2 logarithm of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t x)
{
    unsigned lg = 0;
    while (x > 1) {
        x >>= 1;
        ++lg;
    }
    return lg;
}

/** Integer ceil(log_k(n)) for k a power of two; n, k >= 2. */
constexpr unsigned
logBase(std::uint64_t n, std::uint64_t k)
{
    unsigned stages = 0;
    std::uint64_t reach = 1;
    while (reach < n) {
        reach *= k;
        ++stages;
    }
    return stages;
}

} // namespace ultra

#endif // ULTRA_COMMON_TYPES_H
