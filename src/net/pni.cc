#include "pni.h"

#include <algorithm>

#include "common/log.h"
#include "obs/registry.h"

namespace ultra::net
{

PniArray::PniArray(const PniConfig &cfg, Network &network,
                   const mem::AddressHash &hash)
    : cfg_(cfg), network_(network), hash_(hash),
      pes_(network.config().numPorts)
{
    network_.setDeliverCallback(
        [this](PEId pe, std::uint64_t ticket, Word value) {
            onDeliver(pe, ticket, value);
        });
    network_.setKillCallback([this](PEId pe, std::uint64_t ticket) {
        onKill(pe, ticket);
    });
}

void
PniArray::activate(PEId pe)
{
    PeState &state = pes_[pe];
    if (!state.inActiveList) {
        state.inActiveList = true;
        pendingActive_.push_back(pe);
    }
}

std::uint64_t
PniArray::request(PEId pe, Op op, Addr vaddr, Word data)
{
    ULTRA_ASSERT(pe < pes_.size());
    PeState &state = pes_[pe];
    QueuedReq req;
    req.ticket = state.nextTicket++;
    req.op = op;
    req.paddr = hash_.toPhysical(vaddr);
    req.data = data;
    req.queuedAt = network_.now();
    req.notBefore = 0;
    state.issueQueue.push_back(req);
    activate(pe);
    ++state.requested;
    if (requestProbe_)
        requestProbe_(pe, op, vaddr, data);
    return req.ticket;
}

void
PniArray::tick()
{
    // Merge new activations, then sort so the network sees injection
    // attempts in PE-id order.  Delivery and kill-retry activations
    // arrive in network order, so the sort is needed even though PEs
    // step in id order.
    activePes_.insert(activePes_.end(), pendingActive_.begin(),
                      pendingActive_.end());
    pendingActive_.clear();
    std::sort(activePes_.begin(), activePes_.end());

    const Cycle now = network_.now();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < activePes_.size(); ++i) {
        const PEId pe = activePes_[i];
        PeState &state = pes_[pe];

        // FIFO issue: push the head into the network while constraints
        // allow.  A PE has at most d injection links, so a handful of
        // issues per cycle at most; the loop exits on the first stall.
        while (!state.issueQueue.empty()) {
            QueuedReq &head = state.issueQueue.front();
            if (head.notBefore > now)
                break;
            if (cfg_.maxOutstanding != 0 &&
                state.outstanding.size() >= cfg_.maxOutstanding) {
                break;
            }
            if (cfg_.enforceUniqueLocation &&
                std::any_of(state.outstanding.begin(),
                            state.outstanding.end(),
                            [&head](const QueuedReq &req) {
                                return req.paddr == head.paddr;
                            })) {
                break;
            }
            if (!network_.tryInject(pe, head.op, head.paddr, head.data,
                                    head.ticket, head.queuedAt)) {
                break;
            }
            stats_.issueWait.add(
                static_cast<double>(now - head.queuedAt));
            state.outstanding.push_back(head);
            state.issueQueue.pop_front();
        }

        if (state.issueQueue.empty()) {
            state.inActiveList = false;
        } else {
            activePes_[keep++] = pe;
        }
    }
    activePes_.resize(keep);
}

void
PniArray::resetStats()
{
    stats_ = PniStats{};
    for (PeState &state : pes_)
        state.requested = 0;
}

std::uint64_t
PniArray::requestedCount() const
{
    std::uint64_t total = 0;
    for (const PeState &state : pes_)
        total += state.requested;
    return total;
}

std::size_t
PniArray::pendingCount(PEId pe) const
{
    const PeState &state = pes_[pe];
    return state.issueQueue.size() + state.outstanding.size();
}

std::size_t
PniArray::outstandingCount() const
{
    std::size_t total = 0;
    for (const PeState &state : pes_)
        total += state.outstanding.size();
    return total;
}

std::size_t
PniArray::queuedCount() const
{
    std::size_t total = 0;
    for (const PeState &state : pes_)
        total += state.issueQueue.size();
    return total;
}

void
PniArray::registerStats(obs::Registry &registry,
                        const std::string &prefix) const
{
    registry.addScalar(prefix + ".requested",
                       [this] {
                           return static_cast<double>(requestedCount());
                       },
                       "requests enqueued by PEs");
    registry.addScalar(prefix + ".completed",
                       [this] {
                           return static_cast<double>(stats_.completed);
                       },
                       "requests completed");
    registry.addScalar(prefix + ".retries",
                       [this] {
                           return static_cast<double>(stats_.retries);
                       },
                       "Burroughs-mode re-issues");
    registry.addScalar(prefix + ".outstanding",
                       [this] {
                           return static_cast<double>(
                               outstandingCount());
                       },
                       "requests in the network (gauge)");
    registry.addScalar(prefix + ".issue_queued",
                       [this] {
                           return static_cast<double>(queuedCount());
                       },
                       "requests awaiting issue (gauge)");
    registry.addAccumulator(prefix + ".access_time",
                            &stats_.accessTime,
                            "request() -> completion, cycles");
    registry.addAccumulator(prefix + ".issue_wait", &stats_.issueWait,
                            "request() -> network acceptance, cycles");
}

PniArray::QueuedReq
PniArray::takeOutstanding(PEId pe, std::uint64_t ticket, const char *what)
{
    std::vector<QueuedReq> &out = pes_[pe].outstanding;
    auto it = std::find_if(out.begin(), out.end(),
                           [ticket](const QueuedReq &req) {
                               return req.ticket == ticket;
                           });
    ULTRA_ASSERT(it != out.end(), what, " for unknown ticket ", ticket,
                 " at PE ", pe);
    const QueuedReq req = *it;
    *it = out.back();
    out.pop_back();
    return req;
}

void
PniArray::onDeliver(PEId pe, std::uint64_t ticket, Word value)
{
    PeState &state = pes_[pe];
    const QueuedReq req = takeOutstanding(pe, ticket, "reply");
    ++stats_.completed;
    stats_.accessTime.add(
        static_cast<double>(network_.now() - req.queuedAt));
    // The issue queue may have been blocked on this completion.
    if (!state.issueQueue.empty())
        activate(pe);
    if (completeFn_)
        completeFn_(pe, ticket, value);
}

void
PniArray::onKill(PEId pe, std::uint64_t ticket)
{
    PeState &state = pes_[pe];
    QueuedReq req = takeOutstanding(pe, ticket, "kill");
    req.notBefore = network_.now() + cfg_.killRetryDelay;
    state.issueQueue.push_front(req);
    activate(pe);
    ++stats_.retries;
}

} // namespace ultra::net
