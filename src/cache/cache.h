/**
 * @file
 * The PE-local cache (sections 3.2 and 3.4).
 *
 * Local memory is implemented as a cache over central memory.  Private
 * variables and read-only shared data (program text) are cacheable;
 * read-write shared data must not be cached, or stale copies would
 * violate the serialization principle.  The paper chooses a write-back
 * update policy -- writes are not written through; dirty words are
 * written to central memory on eviction -- and adds two
 * explicitly-requested operations:
 *
 *   release -- mark entries available *without* a central-memory
 *              update, for virtual addresses that will no longer be
 *              referenced (e.g. block-scoped private variables at block
 *              exit), reducing write-back traffic at task switches;
 *   flush   -- force a write-back of cached values, needed before a
 *              blocked task is rescheduled on a different PE and in the
 *              share/re-privatize protocol of section 3.4.
 *
 * Both operate on an address range ("segment level") or the whole
 * cache.  Dirty-word write-backs are returned to the caller (the PE
 * model), which turns them into pipelined store messages -- "cache
 * generated traffic can always be pipelined".
 */

#ifndef ULTRA_CACHE_CACHE_H
#define ULTRA_CACHE_CACHE_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ultra::cache
{

/** Geometry and policy of one PE's cache. */
struct CacheConfig
{
    std::uint32_t numSets = 64;     //!< power of two
    std::uint32_t associativity = 2;
    std::uint32_t blockWords = 4;   //!< power of two
};

/** One dirty word to be written back to central memory. */
struct WriteBack
{
    Addr vaddr;
    Word value;
};

/** Statistics for one cache. */
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t wordsWrittenBack = 0;
    std::uint64_t releasedDirtyWords = 0; //!< write-backs saved by release
    std::uint64_t flushedWords = 0;

    double
    hitRate() const
    {
        const std::uint64_t total =
            readHits + readMisses + writeHits + writeMisses;
        return total ? static_cast<double>(readHits + writeHits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Set-associative write-back cache with release and flush. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Result of a read or write probe. */
    struct Access
    {
        bool hit = false;
        Word value = 0; //!< reads: the cached value when hit
        /** Dirty words evicted to make room (misses only). */
        std::vector<WriteBack> writeBacks;
    };

    /**
     * Read @p vaddr.  On a miss the caller must fetch the block from
     * central memory and installBlock() it; the returned write-backs
     * (from the evicted victim) must be sent to central memory.
     */
    Access read(Addr vaddr);

    /**
     * Write @p value to @p vaddr.  Write-allocate: on a miss the caller
     * fetches and installs the block, then re-issues the write.
     */
    Access write(Addr vaddr, Word value);

    /** Install a block fetched from central memory (block-aligned
     *  @p base; @p words has blockWords entries). */
    void installBlock(Addr base, const Word *words);

    /** Mark entries overlapping [lo, hi] available without write-back. */
    void release(Addr lo, Addr hi);

    /** Write back (and keep, now clean) dirty words in [lo, hi]. */
    std::vector<WriteBack> flush(Addr lo, Addr hi);

    /** Flush the entire cache. */
    std::vector<WriteBack> flushAll();

    /** True when @p vaddr is currently cached. */
    bool contains(Addr vaddr) const;

    /** Non-counting lookup (no statistics, no LRU update). */
    bool probe(Addr vaddr, Word *value_out) const;

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }
    const CacheConfig &config() const { return cfg_; }

  private:
    struct Line
    {
        bool valid = false;
        Addr base = 0; //!< block-aligned virtual address
        std::uint64_t lastUse = 0;
        std::vector<Word> data;
        std::vector<bool> dirty;
    };

    Addr blockBase(Addr vaddr) const;
    std::uint32_t setOf(Addr vaddr) const;
    Line *find(Addr vaddr);
    const Line *find(Addr vaddr) const;
    /** Victim line in the set of @p vaddr; collects its dirty words. */
    Line &evictFor(Addr vaddr, std::vector<WriteBack> &write_backs);
    void collectDirty(Line &line, std::vector<WriteBack> &out,
                      bool mark_clean);

    CacheConfig cfg_;
    std::vector<Line> lines_; //!< numSets * associativity
    CacheStats stats_;
    std::uint64_t useClock_ = 0;
};

} // namespace ultra::cache

#endif // ULTRA_CACHE_CACHE_H
