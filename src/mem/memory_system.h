/**
 * @file
 * Central shared memory: N memory modules behind memory-network
 * interfaces (sections 3.1.3, 3.5).
 *
 * The MMs are "standard components"; the MNI adds the adder needed by
 * fetch-and-add.  Requests to one MM are serviced one at a time with a
 * fixed access latency; the module owning a physical word address is its
 * low lg N bits (hashing at the PNI keeps modules equally loaded).
 *
 * All MM execution happens via the MNI service inside Network::tick,
 * in the serial cycle loop (DESIGN.md "The cycle loop") --
 * MemorySystem itself needs no synchronization.
 */

#ifndef ULTRA_MEM_MEMORY_SYSTEM_H
#define ULTRA_MEM_MEMORY_SYSTEM_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/fetch_phi.h"

namespace ultra::obs
{
class Registry;
} // namespace ultra::obs

namespace ultra::mem
{

/** Parameters of the central memory. */
struct MemoryConfig
{
    /** Number of memory modules (matches the PE count). */
    std::uint32_t numModules = 64;
    /** Words of storage per module. */
    std::size_t wordsPerModule = 1 << 16;
    /** Cycles one module needs to service one request. */
    Cycle accessTime = 2;
};

/**
 * The array of memory modules with per-module fetch-and-phi service.
 *
 * This class holds only the *storage and functional* behaviour; the
 * timing (per-module service queue and busy time) lives in the MNI model
 * inside ultra::net so the network can exert backpressure on it.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryConfig &cfg);

    /** Memory module that owns physical address @p paddr. */
    MMId moduleOf(Addr paddr) const
    {
        return static_cast<MMId>(paddr % cfg_.numModules);
    }

    /** Word offset of @p paddr within its module. */
    std::size_t offsetOf(Addr paddr) const
    {
        return static_cast<std::size_t>(paddr / cfg_.numModules);
    }

    /** Total addressable words. */
    std::size_t totalWords() const
    {
        return cfg_.wordsPerModule * cfg_.numModules;
    }

    /**
     * Functionally execute one request at its owning module: returns the
     * old value and applies phi.  This is the MNI adder of section 3.1.3.
     */
    Word execute(Op op, Addr paddr, Word operand);

    /** Direct read for checkers, loaders and tests (no timing). */
    Word peek(Addr paddr) const;

    /** Direct write for initialization (no timing). */
    void poke(Addr paddr, Word value);

    /** Per-module count of executed requests (for load-balance studies). */
    const std::vector<std::uint64_t> &moduleLoad() const
    {
        return moduleLoad_;
    }

    /** Per-module count of fetch-and-phi executions (ops with an MNI
     *  adder cycle: everything but plain Load / Store). */
    const std::vector<std::uint64_t> &moduleFaOps() const
    {
        return faOps_;
    }

    /** Requests executed across all modules. */
    std::uint64_t totalExecuted() const;

    /** Hottest module's load as a multiple of the mean (1.0 = perfectly
     *  balanced, 0.0 with no load yet). */
    double loadImbalance() const;

    /**
     * Register totals, the imbalance gauge, and -- for machines small
     * enough to keep the dump readable -- per-module loads
     * ("<prefix>.module12.load", "<prefix>.module12.fa_ops") under
     * "<prefix>." (see Network::registerStats).
     */
    void registerStats(obs::Registry &registry,
                       const std::string &prefix) const;

    void resetStats();

    const MemoryConfig &config() const { return cfg_; }

  private:
    std::size_t index(Addr paddr) const;

    MemoryConfig cfg_;
    std::vector<Word> words_;
    std::vector<std::uint64_t> moduleLoad_;
    std::vector<std::uint64_t> faOps_;
};

} // namespace ultra::mem

#endif // ULTRA_MEM_MEMORY_SYSTEM_H
