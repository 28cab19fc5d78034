#include "hw/replacement.hh"

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::hw
{

Replacement::Replacement(PolicyKind kind, std::size_t sets,
                         std::size_t ways, u64 seed)
    : sets_(sets), ways_(ways), lru_(kind == PolicyKind::Lru),
      listed_(lru_ && ways >= kWideSetWays && ways < kNil), rng_(seed)
{
    if (!lru_)
        return;
    stamps_.assign(sets * ways, 0);
    if (listed_) {
        prev_.resize(sets * ways);
        next_.resize(sets * ways);
        head_.resize(sets);
        tail_.resize(sets);
        buildWayOrder();
    }
}

void
Replacement::reset()
{
    if (!lru_)
        return;
    std::fill(stamps_.begin(), stamps_.end(), 0);
    clock_ = 0;
    if (listed_)
        buildWayOrder();
}

void
Replacement::save(snap::SnapWriter &w) const
{
    if (!lru_) {
        rng_.save(w);
        return;
    }
    w.putTag("stamps");
    w.put64(stamps_.size());
    for (u64 stamp : stamps_)
        w.put64(stamp);
    w.put64(clock_);
}

void
Replacement::load(snap::SnapReader &r)
{
    if (!lru_) {
        rng_.load(r);
        return;
    }
    r.expectTag("stamps");
    const u64 count = r.getCount(8);
    if (count != stamps_.size())
        SASOS_FATAL("corrupt snapshot: replacement state carries ", count,
                    " stamps, this geometry has ", stamps_.size());
    for (auto &stamp : stamps_)
        stamp = r.get64();
    clock_ = r.get64();
    // The next stamp must exceed every loaded one, or the recency
    // list (which puts each new stamp at the head) and the stamp
    // minimum would disagree about the victim.
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
        if (stamps_[i] > clock_)
            SASOS_FATAL("corrupt snapshot: replacement stamp ", stamps_[i],
                        " at slot ", i, " is ahead of the clock ", clock_);
    }
    if (listed_)
        buildStampOrder();
}

/** All stamps equal: descending way order, way 0 at the tail. */
void
Replacement::buildWayOrder()
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const std::size_t base = set * ways_;
        for (std::size_t way = 0; way < ways_; ++way) {
            prev_[base + way] =
                way + 1 == ways_ ? kNil : static_cast<u16>(way + 1);
            next_[base + way] = way == 0 ? kNil : static_cast<u16>(way - 1);
        }
        head_[set] = static_cast<u16>(ways_ - 1);
        tail_[set] = 0;
    }
}

/**
 * Loaded stamps: sort each set's ways by (stamp, way) descending in
 * its prev_ lane, link next_ in that order, then walk the list to
 * fill prev_ in. Restores build many caches, and a temporary buffer
 * per cache measurably raised peak RSS, so none is used.
 */
void
Replacement::buildStampOrder()
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const std::size_t base = set * ways_;
        const u64 *stamps = &stamps_[base];
        u16 *order = &prev_[base];
        for (std::size_t i = 0; i < ways_; ++i)
            order[i] = static_cast<u16>(i);
        std::sort(order, order + ways_, [&](u16 a, u16 b) {
            return stamps[a] != stamps[b] ? stamps[a] > stamps[b] : a > b;
        });
        head_[set] = order[0];
        tail_[set] = order[ways_ - 1];
        for (std::size_t i = 0; i < ways_; ++i)
            next_[base + order[i]] = i + 1 == ways_ ? kNil : order[i + 1];
        u16 before = kNil;
        for (u16 way = head_[set]; way != kNil; way = next_[base + way]) {
            prev_[base + way] = before;
            before = way;
        }
    }
}

} // namespace sasos::hw
