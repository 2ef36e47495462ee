#include "cache.h"

#include "common/log.h"

namespace ultra::cache
{

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    ULTRA_ASSERT(isPowerOfTwo(cfg.numSets), "numSets must be 2^i");
    ULTRA_ASSERT(isPowerOfTwo(cfg.blockWords), "blockWords must be 2^i");
    ULTRA_ASSERT(cfg.associativity >= 1);
    lines_.resize(static_cast<std::size_t>(cfg.numSets) *
                  cfg.associativity);
    for (auto &line : lines_) {
        line.data.assign(cfg.blockWords, 0);
        line.dirty.assign(cfg.blockWords, false);
    }
}

Addr
Cache::blockBase(Addr vaddr) const
{
    return vaddr & ~static_cast<Addr>(cfg_.blockWords - 1);
}

std::uint32_t
Cache::setOf(Addr vaddr) const
{
    return static_cast<std::uint32_t>(
        (vaddr / cfg_.blockWords) & (cfg_.numSets - 1));
}

Cache::Line *
Cache::find(Addr vaddr)
{
    const Addr base = blockBase(vaddr);
    Line *set = &lines_[static_cast<std::size_t>(setOf(vaddr)) *
                        cfg_.associativity];
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
        if (set[w].valid && set[w].base == base)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr vaddr) const
{
    return const_cast<Cache *>(this)->find(vaddr);
}

void
Cache::collectDirty(Line &line, std::vector<WriteBack> &out,
                    bool mark_clean)
{
    for (std::uint32_t w = 0; w < cfg_.blockWords; ++w) {
        if (line.dirty[w]) {
            out.push_back({line.base + w, line.data[w]});
            if (mark_clean)
                line.dirty[w] = false;
        }
    }
}

Cache::Line &
Cache::evictFor(Addr vaddr, std::vector<WriteBack> &write_backs)
{
    Line *set = &lines_[static_cast<std::size_t>(setOf(vaddr)) *
                        cfg_.associativity];
    Line *victim = &set[0];
    for (std::uint32_t w = 1; w < cfg_.associativity; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    if (victim->valid) {
        ++stats_.evictions;
        // Write-back policy: updated words within the evicted block are
        // written to central memory (section 3.4).
        const std::size_t before = write_backs.size();
        collectDirty(*victim, write_backs, true);
        stats_.wordsWrittenBack += write_backs.size() - before;
        victim->valid = false;
    }
    return *victim;
}

Cache::Access
Cache::read(Addr vaddr)
{
    Access result;
    if (Line *line = find(vaddr)) {
        line->lastUse = ++useClock_;
        result.hit = true;
        result.value = line->data[vaddr - line->base];
        ++stats_.readHits;
        return result;
    }
    ++stats_.readMisses;
    evictFor(vaddr, result.writeBacks);
    return result;
}

Cache::Access
Cache::write(Addr vaddr, Word value)
{
    Access result;
    if (Line *line = find(vaddr)) {
        line->lastUse = ++useClock_;
        line->data[vaddr - line->base] = value;
        line->dirty[vaddr - line->base] = true;
        result.hit = true;
        ++stats_.writeHits;
        return result;
    }
    ++stats_.writeMisses;
    evictFor(vaddr, result.writeBacks);
    return result;
}

void
Cache::installBlock(Addr base, const Word *words)
{
    ULTRA_ASSERT(base == blockBase(base), "installBlock needs an "
                 "aligned base address");
    ULTRA_ASSERT(find(base) == nullptr, "block already cached");
    std::vector<WriteBack> spill;
    Line &line = evictFor(base, spill);
    ULTRA_ASSERT(spill.empty(),
                 "installBlock found a dirty victim; probe with "
                 "read()/write() first and write back its words");
    line.valid = true;
    line.base = base;
    line.lastUse = ++useClock_;
    for (std::uint32_t w = 0; w < cfg_.blockWords; ++w) {
        line.data[w] = words[w];
        line.dirty[w] = false;
    }
}

void
Cache::release(Addr lo, Addr hi)
{
    for (auto &line : lines_) {
        if (!line.valid)
            continue;
        const Addr last = line.base + cfg_.blockWords - 1;
        if (line.base > hi || last < lo)
            continue;
        for (std::uint32_t w = 0; w < cfg_.blockWords; ++w) {
            if (line.dirty[w])
                ++stats_.releasedDirtyWords;
        }
        line.valid = false;
    }
}

std::vector<WriteBack>
Cache::flush(Addr lo, Addr hi)
{
    std::vector<WriteBack> out;
    for (auto &line : lines_) {
        if (!line.valid)
            continue;
        const Addr last = line.base + cfg_.blockWords - 1;
        if (line.base > hi || last < lo)
            continue;
        collectDirty(line, out, true);
    }
    stats_.flushedWords += out.size();
    return out;
}

std::vector<WriteBack>
Cache::flushAll()
{
    return flush(0, ~Addr{0});
}

bool
Cache::contains(Addr vaddr) const
{
    return find(vaddr) != nullptr;
}

bool
Cache::probe(Addr vaddr, Word *value_out) const
{
    const Line *line = find(vaddr);
    if (!line)
        return false;
    *value_out = line->data[vaddr - line->base];
    return true;
}

} // namespace ultra::cache
