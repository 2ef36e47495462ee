/**
 * @file
 * The work set of every sweep: the network keeps one per (copy, stage)
 * for its inboxes and ready ports, and the PNI array one of the PEs
 * with queued requests.
 */

#ifndef ULTRA_NET_WORK_SET_H
#define ULTRA_NET_WORK_SET_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ultra::net
{

/**
 * A set of small indices as a bitset: membership is O(1) and
 * iteration visits members in ascending order, the canonical
 * order of every sweep.
 */
struct WorkSet
{
    std::vector<std::uint64_t> words;
    std::uint32_t size = 0; //!< indices run over [0, size)

    explicit WorkSet(std::uint32_t n) : words((n + 63) / 64, 0), size(n) {}

    void set(std::uint32_t idx) { words[idx >> 6] |= bit(idx); }
    void clear(std::uint32_t idx) { words[idx >> 6] &= ~bit(idx); }
    bool test(std::uint32_t idx) const
    {
        return (words[idx >> 6] & bit(idx)) != 0;
    }
    static std::uint64_t bit(std::uint32_t idx)
    {
        return std::uint64_t{1} << (idx & 63);
    }

    /** The least member in [from, to), or @p to if there is none. */
    std::uint32_t
    next(std::uint32_t from, std::uint32_t to) const
    {
        if (from >= to)
            return to;
        std::size_t w = from >> 6;
        std::uint64_t bits = words[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w * 64 >= to)
                return to;
            bits = words[w];
        }
        const auto idx = static_cast<std::uint32_t>(
            w * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
        return std::min(idx, to);
    }

    /** Call @p fn(idx) for every member, ascending; @p fn may
     *  clear the member it is handed. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t i = next(0, size); i < size;
             i = next(i + 1, size)) {
            fn(i);
        }
    }

    /**
     * Members read as (column, port) bits, column * k + port for a
     * power of two k: call @p fn(column, port) for every member,
     * columns ascending and each column's ports in the rotation
     * that starts at @p start (start .. k - 1, then 0 .. start - 1).
     * @p fn may clear the member it is handed.
     */
    template <typename Fn>
    void
    forEachPort(unsigned k, unsigned start, Fn &&fn) const
    {
        const auto shift = static_cast<unsigned>(__builtin_ctz(k));
        for (std::uint32_t base = next(0, size); base < size;
             base = next(base + k, size)) {
            base &= ~(k - 1);
            const std::uint32_t column = base >> shift;
            const std::uint32_t mid = base + start;
            const std::uint32_t end = base + k;
            for (std::uint32_t b = next(mid, end); b < end;
                 b = next(b + 1, end)) {
                fn(column, b - base);
            }
            for (std::uint32_t b = next(base, mid); b < mid;
                 b = next(b + 1, mid)) {
                fn(column, b - base);
            }
        }
    }
};

} // namespace ultra::net

#endif // ULTRA_NET_WORK_SET_H
