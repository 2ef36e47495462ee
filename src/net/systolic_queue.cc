#include "systolic_queue.h"

#include "common/log.h"

namespace ultra::net
{

SystolicQueue::SystolicQueue(unsigned height, bool combining)
    : height_(height), combining_(combining),
      matchCol_(height), middleCol_(height), rightCol_(height)
{
    ULTRA_ASSERT(height >= 2, "systolic queue needs at least 2 slots");
}

SystolicQueue::StepResult
SystolicQueue::step(const std::optional<SystolicItem> &input,
                    bool receiver_ready)
{
    StepResult result;

    // 1. Exit from the bottom of the right column; a matched partner in
    //    the match column leaves in the same cycle (they "enter the
    //    combining unit simultaneously").
    if (receiver_ready && rightCol_[0].full) {
        result.exited = rightCol_[0].item;
        rightCol_[0].full = false;
        --occupancy_;
        if (matchCol_[0].full) {
            result.partner = matchCol_[0].item;
            matchCol_[0].full = false;
            --occupancy_;
        }
    }

    // 2. Right (and match) columns shift down into empty slots.  The
    //    match slot is rigidly paired with its right-column partner.
    for (unsigned i = 1; i < height_; ++i) {
        if (rightCol_[i].full && !rightCol_[i - 1].full) {
            rightCol_[i - 1] = rightCol_[i];
            rightCol_[i].full = false;
            if (matchCol_[i].full) {
                ULTRA_ASSERT(!matchCol_[i - 1].full);
                matchCol_[i - 1] = matchCol_[i];
                matchCol_[i].full = false;
            }
        }
    }

    // 3. Middle-column items: match against the adjacent right slot,
    //    else hop right into an empty slot, else climb.  Top-down order
    //    lets a climbing item move into the slot vacated by the one
    //    above it in the same cycle.
    for (unsigned i = height_; i-- > 0;) {
        if (!middleCol_[i].full)
            continue;
        Slot &mid = middleCol_[i];
        if (combining_ && rightCol_[i].full && !matchCol_[i].full &&
            rightCol_[i].item.key == mid.item.key) {
            matchCol_[i] = mid;
            mid.full = false;
        } else if (!rightCol_[i].full) {
            // An item may only hop right if no older item sits higher in
            // the right column (preserves FIFO across drain stalls).
            bool older_above = false;
            for (unsigned j = i + 1; j < height_ && !older_above; ++j)
                older_above = rightCol_[j].full;
            if (!older_above) {
                rightCol_[i] = mid;
                mid.full = false;
            } else if (i + 1 < height_ && !middleCol_[i + 1].full) {
                middleCol_[i + 1] = mid;
                mid.full = false;
            }
        } else if (i + 1 < height_ && !middleCol_[i + 1].full) {
            middleCol_[i + 1] = mid;
            mid.full = false;
        }
        // Otherwise the item stalls in place (queue congested).
    }

    // 4. Accept the new item at the bottom of the middle column.
    if (input && !middleCol_[0].full) {
        middleCol_[0].full = true;
        middleCol_[0].item = *input;
        ++occupancy_;
        result.accepted = true;
    }

    return result;
}

} // namespace ultra::net
