/**
 * @file
 * Packet-lifecycle latency observatory (ultra::obs v2).
 *
 * Every request injected into the network (and every combined-away
 * sub-request) carries a LatencyRecord stamped at each lifecycle event:
 * PNI issue, injection, per-stage queue entry/exit in both directions,
 * combine/decombine, full receipt at the MNI, memory service start and
 * final delivery.  The observatory folds closed records into
 *
 *   - per-stage wait histograms and a stage x switch congestion heatmap
 *     (forward and reverse directions separately),
 *   - a combining-effectiveness report: combine rate, fan-in
 *     distribution, wait-buffer residence, and the MM service cycles
 *     combining saved versus replaying every request uncombined,
 *   - a check-style decomposition invariant: for every delivered
 *     request the per-stage waits + wire hops + pipe fill + memory
 *     service must sum exactly to the observed end-to-end round trip.
 *     Violations are counted (lat.violations) and the first few are
 *     reported with full stamp detail.
 *
 * Every hook runs in the network's serial tick (DESIGN.md "The serial
 * network tick").  Hooks are free of allocation in steady state:
 * records are pooled and recycled on close.
 *
 * The observatory is opt-in.  With no observatory attached each network
 * hook is a single null-pointer test, and no lat.* statistics are
 * registered, so default stat/golden output is byte-identical.
 */

#ifndef ULTRA_OBS_LATENCY_H
#define ULTRA_OBS_LATENCY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace ultra::obs
{

class Registry;

/** "This event never happened" stamp value. */
inline constexpr Cycle kNoStamp = kNeverCycle;

/** The lifecycle stamps of one request (or combined sub-request). */
struct LatencyRecord
{
    std::uint64_t msgId = 0;
    Cycle requestAt = kNoStamp; //!< queued at the PNI (may be unknown)
    Cycle injectAt = kNoStamp;  //!< accepted by the network
    Cycle combineAt = kNoStamp; //!< absorbed into a matching request
    Cycle decombineAt = kNoStamp; //!< reply fissioned back out
    Cycle mniArriveAt = kNoStamp; //!< full receipt at the MNI
    Cycle serviceStartAt = kNoStamp; //!< MM access began
    Cycle deliverAt = kNoStamp; //!< reply receipt at the PE
    int combineStage = -1;      //!< stage absorbed at, -1 = direct
    std::uint32_t reqPackets = 0;   //!< length on arrival at the MNI
    std::uint32_t replyPackets = 0; //!< length on delivery to the PE
    std::uint32_t fanIn = 1;    //!< requests served by this MM access

    /** Per-stage queue entry/exit times; kNoStamp = never visited. */
    std::vector<Cycle> fwdArrive;
    std::vector<Cycle> fwdDepart;
    std::vector<Cycle> revArrive;
    std::vector<Cycle> revDepart;
};

/** Topology facts the decomposition check needs (keeps ultra::obs free
 *  of any dependency on ultra::net). */
struct LatencyShape
{
    unsigned stages = 1;
    std::uint32_t switchesPerStage = 1;
};

/** Pools records, receives lifecycle stamps, folds closed records into
 *  aggregate statistics.  One instance per network. */
class LatencyObservatory
{
  public:
    explicit LatencyObservatory(const LatencyShape &shape);

    const LatencyShape &shape() const { return shape_; }

    // --- lifecycle hooks ----------------------------------------------

    /** A request entered the network; returns its (pooled) record. */
    LatencyRecord *open(std::uint64_t msg_id, Cycle request_at,
                        Cycle inject_at);

    void
    noteFwdArrive(LatencyRecord *rec, unsigned s, Cycle now)
    {
        rec->fwdArrive[s] = now;
    }

    /** Absorbed by combining at stage @p s, switch @p sw. */
    void noteCombined(LatencyRecord *rec, unsigned s, std::uint32_t sw,
                      Cycle now);

    /** Left a ToMM queue; @p final_stage means toward the MNI. */
    void noteFwdDepart(LatencyRecord *rec, unsigned s, std::uint32_t sw,
                       Cycle now, std::uint32_t packets,
                       bool final_stage);

    void
    noteMniArrive(LatencyRecord *rec, Cycle at)
    {
        rec->mniArriveAt = at;
    }

    /** MM access began; @p fan_in requests are answered by it and each
     *  absorbed one saved a @p service_slot-cycle MM serialization. */
    void noteServiceStart(LatencyRecord *rec, Cycle now,
                          std::uint32_t fan_in, Cycle service_slot);

    /** A reply was fissioned for this combined-away record at stage
     *  @p s; the spawned reply enters that stage's ToPE queue now. */
    void noteDecombine(LatencyRecord *rec, unsigned s, Cycle now);

    void
    noteRevArrive(LatencyRecord *rec, unsigned s, Cycle now)
    {
        rec->revArrive[s] = now;
    }

    /** Left a ToPE queue; @p last_stage means toward the PE. */
    void noteRevDepart(LatencyRecord *rec, unsigned s, std::uint32_t sw,
                       Cycle now, std::uint32_t packets, bool last_stage);

    /** Fold one queue wait into the stage histogram and heat cell (the
     *  aggregate half of noteFwdDepart / noteRevDepart). */
    void
    foldDepartWait(bool forward, unsigned s, std::uint32_t sw,
                   Cycle wait)
    {
        (forward ? fwdWaitHist_ : revWaitHist_)[s].add(wait);
        HeatCell &c = cell(forward, s, sw);
        ++c.visits;
        c.waitCycles += wait;
    }

    /** Reply delivered: run the decomposition check, fold aggregates,
     *  recycle the record. */
    void closeDelivered(LatencyRecord *rec, Cycle deliver_at);

    /** Burroughs-mode kill: recycle the record without aggregating. */
    void closeKilled(LatencyRecord *rec);

    // --- results ------------------------------------------------------

    std::uint64_t opened() const { return opened_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t killed() const { return killed_; }
    /** Delivered records that had been combined away. */
    std::uint64_t combinedDelivered() const { return combinedDelivered_; }
    std::uint64_t decombines() const { return decombines_; }
    /** MM service cycles combining eliminated. */
    std::uint64_t mmCyclesSaved() const { return mmCyclesSaved_; }
    /** Decomposition-invariant failures among delivered records. */
    std::uint64_t violations() const { return violations_; }
    /** Records still in flight. */
    std::uint64_t liveRecords() const
    {
        return opened_ - delivered_ - killed_;
    }

    const Accumulator &endToEnd() const { return endToEnd_; }
    const Accumulator &mmWait() const { return mmWait_; }
    const Accumulator &wbWait() const { return wbWait_; }
    const Histogram &fanInHist() const { return fanInHist_; }

    /** One stage x switch congestion-heatmap cell. */
    struct HeatCell
    {
        std::uint64_t visits = 0;
        std::uint64_t waitCycles = 0;
        std::uint64_t combines = 0;
    };
    const HeatCell &heatCell(bool forward, unsigned s,
                             std::uint32_t sw) const;

    /**
     * Register everything under "<prefix>." (lat.opened,
     * lat.end_to_end, lat.stage2.fwd_wait_hist, ...).  Call only when
     * the observatory is enabled: registering adds lines to every
     * subsequent registry dump.
     */
    void registerStats(Registry &registry,
                       const std::string &prefix) const;

    /** The congestion heatmap as CSV:
     *  direction,stage,switch,visits,wait_cycles,mean_wait,combines. */
    std::string heatmapCsv() const;

  private:
    HeatCell &cell(bool forward, unsigned s, std::uint32_t sw);
    void resetRecord(LatencyRecord &rec);
    /** The component sum of the decomposition invariant, or kNoStamp
     *  when a required stamp is missing. */
    Cycle componentSum(const LatencyRecord &rec) const;
    void reportViolation(const LatencyRecord &rec, Cycle expected,
                         Cycle observed);

    LatencyShape shape_;

    std::vector<std::unique_ptr<LatencyRecord>> slab_;
    std::vector<LatencyRecord *> freeList_;

    std::uint64_t opened_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t killed_ = 0;
    std::uint64_t combinedDelivered_ = 0;
    std::uint64_t decombines_ = 0;
    std::uint64_t mmCyclesSaved_ = 0;
    std::uint64_t violations_ = 0;

    Accumulator pniWait_;   //!< PNI queue -> network acceptance
    Accumulator endToEnd_;  //!< inject -> reply receipt
    Histogram endToEndHist_{2, 256};
    Accumulator mmWait_;    //!< MNI receipt -> service start
    Accumulator wbWait_;    //!< combine -> decombine residence
    Histogram fanInHist_{1, 16};
    std::vector<Histogram> fwdWaitHist_; //!< [stage], ToMM queue waits
    std::vector<Histogram> revWaitHist_; //!< [stage], ToPE queue waits
    std::vector<HeatCell> heat_; //!< [direction][stage][switch]
};

} // namespace ultra::obs

#endif // ULTRA_OBS_LATENCY_H
