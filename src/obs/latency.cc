#include "latency.h"

#include <sstream>

#include "common/log.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace ultra::obs
{

LatencyObservatory::LatencyObservatory(const LatencyShape &shape)
    : shape_(shape)
{
    ULTRA_ASSERT(shape.stages > 0 && shape.switchesPerStage > 0,
                 "degenerate latency shape");
    fwdWaitHist_.assign(shape_.stages, Histogram{1, 64});
    revWaitHist_.assign(shape_.stages, Histogram{1, 64});
    heat_.assign(std::size_t{2} * shape_.stages * shape_.switchesPerStage,
                 HeatCell{});
}

LatencyObservatory::HeatCell &
LatencyObservatory::cell(bool forward, unsigned s, std::uint32_t sw)
{
    const std::size_t dir = forward ? 0 : 1;
    return heat_[(dir * shape_.stages + s) * shape_.switchesPerStage +
                 sw];
}

const LatencyObservatory::HeatCell &
LatencyObservatory::heatCell(bool forward, unsigned s,
                             std::uint32_t sw) const
{
    const std::size_t dir = forward ? 0 : 1;
    return heat_[(dir * shape_.stages + s) * shape_.switchesPerStage +
                 sw];
}

void
LatencyObservatory::resetRecord(LatencyRecord &rec)
{
    rec.requestAt = kNoStamp;
    rec.injectAt = kNoStamp;
    rec.combineAt = kNoStamp;
    rec.decombineAt = kNoStamp;
    rec.mniArriveAt = kNoStamp;
    rec.serviceStartAt = kNoStamp;
    rec.deliverAt = kNoStamp;
    rec.combineStage = -1;
    rec.reqPackets = 0;
    rec.replyPackets = 0;
    rec.fanIn = 1;
    rec.fwdArrive.assign(shape_.stages, kNoStamp);
    rec.fwdDepart.assign(shape_.stages, kNoStamp);
    rec.revArrive.assign(shape_.stages, kNoStamp);
    rec.revDepart.assign(shape_.stages, kNoStamp);
}

LatencyRecord *
LatencyObservatory::open(std::uint64_t msg_id, Cycle request_at,
                         Cycle inject_at)
{
    LatencyRecord *rec;
    if (freeList_.empty()) {
        slab_.push_back(std::make_unique<LatencyRecord>());
        rec = slab_.back().get();
    } else {
        rec = freeList_.back();
        freeList_.pop_back();
    }
    resetRecord(*rec);
    rec->msgId = msg_id;
    rec->requestAt = request_at;
    rec->injectAt = inject_at;
    ++opened_;
    if (request_at != kNoStamp) {
        pniWait_.add(static_cast<double>(inject_at - request_at));
    }
    return rec;
}

void
LatencyObservatory::noteCombined(LatencyRecord *rec, unsigned s,
                                 std::uint32_t sw, Cycle now)
{
    rec->combineAt = now;
    rec->combineStage = static_cast<int>(s);
    ++cell(true, s, sw).combines;
}

void
LatencyObservatory::noteFwdDepart(LatencyRecord *rec, unsigned s,
                                  std::uint32_t sw, Cycle now,
                                  std::uint32_t packets, bool final_stage)
{
    foldDepartWait(true, s, sw, now - rec->fwdArrive[s]);
    rec->fwdDepart[s] = now;
    if (final_stage)
        rec->reqPackets = packets;
}

void
LatencyObservatory::noteServiceStart(LatencyRecord *rec, Cycle now,
                                     std::uint32_t fan_in,
                                     Cycle service_slot)
{
    rec->serviceStartAt = now;
    rec->fanIn = fan_in;
    fanInHist_.add(fan_in);
    mmWait_.add(static_cast<double>(now - rec->mniArriveAt));
    if (fan_in > 1)
        mmCyclesSaved_ += (fan_in - 1) * service_slot;
}

void
LatencyObservatory::noteDecombine(LatencyRecord *rec, unsigned s,
                                  Cycle now)
{
    // Record-only: the decombine counter and wait-buffer accumulator
    // are folded at closeDelivered.
    rec->decombineAt = now;
    // The spawned reply enters this stage's ToPE queue immediately.
    rec->revArrive[s] = now;
}

void
LatencyObservatory::noteRevDepart(LatencyRecord *rec, unsigned s,
                                  std::uint32_t sw, Cycle now,
                                  std::uint32_t packets, bool last_stage)
{
    foldDepartWait(false, s, sw, now - rec->revArrive[s]);
    rec->revDepart[s] = now;
    if (last_stage)
        rec->replyPackets = packets;
}

Cycle
LatencyObservatory::componentSum(const LatencyRecord &rec) const
{
    // The decomposition invariant (see DESIGN.md "Packet-lifecycle
    // stamps"): injection hop + per-stage forward waits + forward wire
    // hops + [pipe fill + MM queue wait + MM access + return hop |
    // wait-buffer residence] + per-stage reverse waits + reverse wire
    // hops + delivery pipe fill == end-to-end round trip.
    auto have = [](Cycle c) { return c != kNoStamp; };
    Cycle sum = 1; // inject -> stage-0 arrival
    if (rec.combineStage >= 0) {
        const auto cs = static_cast<unsigned>(rec.combineStage);
        for (unsigned s = 0; s < cs; ++s) {
            if (!have(rec.fwdArrive[s]) || !have(rec.fwdDepart[s]))
                return kNoStamp;
            sum += rec.fwdDepart[s] - rec.fwdArrive[s];
        }
        if (!have(rec.combineAt) || !have(rec.decombineAt))
            return kNoStamp;
        sum += cs;                               // forward wire hops
        sum += rec.decombineAt - rec.combineAt;  // wait-buffer residence
        for (unsigned s = 0; s <= cs; ++s) {
            if (!have(rec.revArrive[s]) || !have(rec.revDepart[s]))
                return kNoStamp;
            sum += rec.revDepart[s] - rec.revArrive[s];
        }
        sum += cs;                               // reverse wire hops
        sum += rec.replyPackets;                 // delivery pipe fill
        return sum;
    }
    const unsigned stages = shape_.stages;
    for (unsigned s = 0; s < stages; ++s) {
        if (!have(rec.fwdArrive[s]) || !have(rec.fwdDepart[s]))
            return kNoStamp;
        sum += rec.fwdDepart[s] - rec.fwdArrive[s];
    }
    if (!have(rec.mniArriveAt) || !have(rec.serviceStartAt))
        return kNoStamp;
    sum += stages - 1;                             // forward wire hops
    sum += rec.reqPackets;                         // MNI pipe fill
    sum += rec.serviceStartAt - rec.mniArriveAt;   // MM queue wait
    sum += kMmAccessTime + 1;                      // access + return hop
    for (unsigned s = 0; s < stages; ++s) {
        if (!have(rec.revArrive[s]) || !have(rec.revDepart[s]))
            return kNoStamp;
        sum += rec.revDepart[s] - rec.revArrive[s];
    }
    sum += stages - 1;                             // reverse wire hops
    sum += rec.replyPackets;                       // delivery pipe fill
    return sum;
}

void
LatencyObservatory::reportViolation(const LatencyRecord &rec,
                                    Cycle expected, Cycle observed)
{
    if (violations_ > 5)
        return; // first few carry all the signal
    std::ostringstream os;
    os << "latency decomposition violation for msg " << rec.msgId
       << ": components sum to "
       << (expected == kNoStamp ? std::string("<missing stamps>")
                                : std::to_string(expected))
       << " but end-to-end is " << observed << " (inject "
       << rec.injectAt << ", deliver " << rec.deliverAt
       << ", combine stage " << rec.combineStage << ")";
    warn(os.str());
}

void
LatencyObservatory::closeDelivered(LatencyRecord *rec, Cycle deliver_at)
{
    rec->deliverAt = deliver_at;
    const Cycle observed = deliver_at - rec->injectAt;
    endToEnd_.add(static_cast<double>(observed));
    endToEndHist_.add(observed);
    ++delivered_;
    if (rec->combineStage >= 0)
        ++combinedDelivered_;
    if (rec->decombineAt != kNoStamp) {
        ++decombines_;
        if (rec->combineAt != kNoStamp) {
            wbWait_.add(static_cast<double>(rec->decombineAt -
                                            rec->combineAt));
        }
    }

    const Cycle expected = componentSum(*rec);
    if (expected != observed) {
        ++violations_;
        reportViolation(*rec, expected, observed);
    }
    freeList_.push_back(rec);
}

void
LatencyObservatory::closeKilled(LatencyRecord *rec)
{
    ++killed_;
    freeList_.push_back(rec);
}

void
LatencyObservatory::registerStats(Registry &registry,
                                  const std::string &prefix) const
{
    auto count = [&](const char *leaf,
                     const std::uint64_t LatencyObservatory::*f) {
        registry.addScalar(prefix + "." + leaf,
                           [this, f] {
                               return static_cast<double>(this->*f);
                           });
    };
    count("opened", &LatencyObservatory::opened_);
    count("delivered", &LatencyObservatory::delivered_);
    count("killed", &LatencyObservatory::killed_);
    count("combined_delivered", &LatencyObservatory::combinedDelivered_);
    count("decombines", &LatencyObservatory::decombines_);
    count("mm_cycles_saved", &LatencyObservatory::mmCyclesSaved_);
    count("violations", &LatencyObservatory::violations_);

    registry.addAccumulator(prefix + ".pni_wait", &pniWait_);
    registry.addAccumulator(prefix + ".end_to_end", &endToEnd_);
    registry.addHistogram(prefix + ".end_to_end_hist", &endToEndHist_);
    registry.addAccumulator(prefix + ".mm_wait", &mmWait_);
    registry.addAccumulator(prefix + ".wb_wait", &wbWait_);
    registry.addHistogram(prefix + ".fanin_hist", &fanInHist_);
    for (unsigned s = 0; s < shape_.stages; ++s) {
        const std::string stage =
            prefix + ".stage" + std::to_string(s) + ".";
        registry.addHistogram(stage + "fwd_wait_hist", &fwdWaitHist_[s]);
        registry.addHistogram(stage + "rev_wait_hist", &revWaitHist_[s]);
    }
}

std::string
LatencyObservatory::heatmapCsv() const
{
    std::ostringstream os;
    os << "direction,stage,switch,visits,wait_cycles,mean_wait,"
          "combines\n";
    for (unsigned dir = 0; dir < 2; ++dir) {
        for (unsigned s = 0; s < shape_.stages; ++s) {
            for (std::uint32_t sw = 0; sw < shape_.switchesPerStage;
                 ++sw) {
                const HeatCell &c = heatCell(dir == 0, s, sw);
                const double mean =
                    c.visits > 0
                        ? static_cast<double>(c.waitCycles) /
                              static_cast<double>(c.visits)
                        : 0.0;
                os << (dir == 0 ? "fwd" : "rev") << "," << s << ","
                   << sw << "," << c.visits << "," << c.waitCycles
                   << ",";
                writeJsonNumber(os, mean);
                os << "," << c.combines << "\n";
            }
        }
    }
    return os.str();
}

} // namespace ultra::obs
