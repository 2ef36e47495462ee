#include "memory_system.h"

#include <algorithm>

#include "common/log.h"
#include "obs/registry.h"

namespace ultra::mem
{

MemorySystem::MemorySystem(const MemoryConfig &cfg)
    : cfg_(cfg),
      words_(cfg.numModules * cfg.wordsPerModule, 0),
      moduleLoad_(cfg.numModules, 0), faOps_(cfg.numModules, 0)
{
    ULTRA_ASSERT(cfg.numModules >= 1);
    ULTRA_ASSERT(cfg.wordsPerModule >= 1);
}

std::size_t
MemorySystem::index(Addr paddr) const
{
    const std::size_t idx = static_cast<std::size_t>(paddr);
    ULTRA_ASSERT(idx < words_.size(), "physical address ", paddr,
                 " out of range (", words_.size(), " words)");
    return idx;
}

Word
MemorySystem::execute(Op op, Addr paddr, Word operand)
{
    const std::size_t idx = index(paddr);
    const Word old_value = words_[idx];
    words_[idx] = applyPhi(op, old_value, operand);
    const MMId mm = moduleOf(paddr);
    ++moduleLoad_[mm];
    if (op != Op::Load && op != Op::Store)
        ++faOps_[mm];
    return old_value;
}

Word
MemorySystem::peek(Addr paddr) const
{
    return words_[index(paddr)];
}

void
MemorySystem::poke(Addr paddr, Word value)
{
    words_[index(paddr)] = value;
}

void
MemorySystem::resetStats()
{
    std::fill(moduleLoad_.begin(), moduleLoad_.end(), 0);
    std::fill(faOps_.begin(), faOps_.end(), 0);
}

std::uint64_t
MemorySystem::totalExecuted() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t l : moduleLoad_)
        total += l;
    return total;
}

double
MemorySystem::loadImbalance() const
{
    const std::uint64_t total = totalExecuted();
    if (total == 0)
        return 0.0;
    const std::uint64_t peak =
        *std::max_element(moduleLoad_.begin(), moduleLoad_.end());
    return static_cast<double>(peak) *
           static_cast<double>(moduleLoad_.size()) /
           static_cast<double>(total);
}

void
MemorySystem::registerStats(obs::Registry &registry,
                            const std::string &prefix) const
{
    registry.addScalar(prefix + ".executed",
                       [this] {
                           return static_cast<double>(totalExecuted());
                       },
                       "requests executed across all modules");
    registry.addScalar(prefix + ".fa_ops",
                       [this] {
                           std::uint64_t total = 0;
                           for (const std::uint64_t n : faOps_)
                               total += n;
                           return static_cast<double>(total);
                       },
                       "fetch-and-phi executions (all modules)");
    registry.addScalar(prefix + ".imbalance",
                       [this] { return loadImbalance(); },
                       "hottest module load / mean load");

    // Per-module series are precious for hashing studies but would
    // swamp the dump on the 4096-module machine; register them only
    // when the module count is modest.
    constexpr std::uint32_t kPerModuleLimit = 256;
    if (cfg_.numModules > kPerModuleLimit)
        return;
    for (MMId mm = 0; mm < cfg_.numModules; ++mm) {
        const std::string base =
            prefix + ".module" + std::to_string(mm) + ".";
        registry.addScalar(base + "load",
                           [this, mm] {
                               return static_cast<double>(
                                   moduleLoad_[mm]);
                           });
        registry.addScalar(base + "fa_ops",
                           [this, mm] {
                               return static_cast<double>(faOps_[mm]);
                           });
    }
}

} // namespace ultra::mem
