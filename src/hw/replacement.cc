#include "hw/replacement.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::hw
{

namespace
{

/**
 * LRU and FIFO: per-way timestamps from a structure-wide clock, the
 * victim being the way with the smallest stamp (lowest way on a tie).
 * The two differ only in whether a hit refreshes the stamp.
 *
 * Stamps are the saved state. Sets of at least kWideSetWays ways also
 * keep an intrusive recency list (u16 way links, largest stamp at the
 * head) so the victim is the tail, read in O(1) instead of an O(ways)
 * scan. The list is always the ways sorted by (stamp, way), both
 * descending: every fill or touch takes a stamp above all others and
 * moves its way to the head, so the tail is exactly min_element's
 * choice. Narrow sets keep the plain scan and pay no link memory.
 */
class StampPolicy : public ReplacementPolicy
{
  public:
    StampPolicy(std::size_t sets, std::size_t ways, bool refresh_on_touch)
        : sets_(sets), ways_(ways), refreshOnTouch_(refresh_on_touch),
          listed_(ways >= kWideSetWays && ways < kNil),
          stamps_(sets * ways, 0)
    {
        if (listed_) {
            prev_.resize(sets * ways);
            next_.resize(sets * ways);
            head_.resize(sets);
            tail_.resize(sets);
            buildWayOrder();
        }
    }

    void
    touch(std::size_t set, std::size_t way) override
    {
        if (refreshOnTouch_)
            stamp(set, way);
    }

    bool needsTouch() const override { return refreshOnTouch_; }

    void fill(std::size_t set, std::size_t way) override { stamp(set, way); }

    std::size_t
    victim(std::size_t set) override
    {
        if (listed_)
            return tail_[set];
        const u64 *base = &stamps_[set * ways_];
        return static_cast<std::size_t>(
            std::min_element(base, base + ways_) - base);
    }

    void
    reset() override
    {
        std::fill(stamps_.begin(), stamps_.end(), 0);
        clock_ = 0;
        if (listed_)
            buildWayOrder();
    }

    void
    save(snap::SnapWriter &w) const override
    {
        w.putTag("stamps");
        w.put64(stamps_.size());
        for (u64 stamp : stamps_)
            w.put64(stamp);
        w.put64(clock_);
    }

    void
    load(snap::SnapReader &r) override
    {
        r.expectTag("stamps");
        const u64 count = r.getCount(8);
        if (count != stamps_.size())
            SASOS_FATAL("corrupt snapshot: replacement state carries ",
                        count, " stamps, this geometry has ",
                        stamps_.size());
        for (auto &stamp : stamps_)
            stamp = r.get64();
        clock_ = r.get64();
        // The next stamp must exceed every loaded one, or the recency
        // list (which puts each new stamp at the head) and the stamp
        // minimum would disagree about the victim.
        for (std::size_t i = 0; i < stamps_.size(); ++i) {
            if (stamps_[i] > clock_)
                SASOS_FATAL("corrupt snapshot: replacement stamp ",
                            stamps_[i], " at slot ", i,
                            " is ahead of the clock ", clock_);
        }
        if (listed_)
            buildStampOrder();
    }

  private:
    /** Null link; also bounds the ways a listed set may have. */
    static constexpr u16 kNil = 0xFFFF;

    void
    stamp(std::size_t set, std::size_t way)
    {
        stamps_[set * ways_ + way] = ++clock_;
        if (listed_)
            moveToHead(set, way);
    }

    void
    moveToHead(std::size_t set, std::size_t way)
    {
        if (head_[set] == way)
            return;
        const std::size_t base = set * ways_;
        const u16 before = prev_[base + way];
        const u16 after = next_[base + way];
        // `way` is not the head, so it has a predecessor.
        next_[base + before] = after;
        if (after == kNil)
            tail_[set] = before;
        else
            prev_[base + after] = before;
        prev_[base + way] = kNil;
        next_[base + way] = head_[set];
        prev_[base + head_[set]] = static_cast<u16>(way);
        head_[set] = static_cast<u16>(way);
    }

    /** All stamps equal: descending way order, way 0 at the tail. */
    void
    buildWayOrder()
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            const std::size_t base = set * ways_;
            for (std::size_t way = 0; way < ways_; ++way) {
                prev_[base + way] =
                    way + 1 == ways_ ? kNil : static_cast<u16>(way + 1);
                next_[base + way] =
                    way == 0 ? kNil : static_cast<u16>(way - 1);
            }
            head_[set] = static_cast<u16>(ways_ - 1);
            tail_[set] = 0;
        }
    }

    /**
     * Loaded stamps: sort each set's ways by (stamp, way) descending
     * in its prev_ lane, link next_ in that order, then walk the list
     * to fill prev_ in. Restores build many caches, and a temporary
     * buffer per cache measurably raised peak RSS, so none is used.
     */
    void
    buildStampOrder()
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            const std::size_t base = set * ways_;
            const u64 *stamps = &stamps_[base];
            u16 *order = &prev_[base];
            for (std::size_t i = 0; i < ways_; ++i)
                order[i] = static_cast<u16>(i);
            std::sort(order, order + ways_, [&](u16 a, u16 b) {
                return stamps[a] != stamps[b] ? stamps[a] > stamps[b]
                                              : a > b;
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

    std::size_t sets_;
    std::size_t ways_;
    bool refreshOnTouch_;
    bool listed_;
    std::vector<u64> stamps_;
    u64 clock_ = 0;
    /** @name Recency list (listed_ only), way numbers within a set */
    /// @{
    std::vector<u16> prev_;
    std::vector<u16> next_;
    std::vector<u16> head_;
    std::vector<u16> tail_;
    /// @}
};

/** Uniformly random victim (deterministic via seeded Rng). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::size_t ways, u64 seed) : ways_(ways), rng_(seed) {}

    void touch(std::size_t, std::size_t) override {}
    bool needsTouch() const override { return false; }
    void fill(std::size_t, std::size_t) override {}

    std::size_t
    victim(std::size_t) override
    {
        return static_cast<std::size_t>(rng_.nextBelow(ways_));
    }

    void reset() override {}

    void save(snap::SnapWriter &w) const override { rng_.save(w); }
    void load(snap::SnapReader &r) override { rng_.load(r); }

  private:
    std::size_t ways_;
    Rng rng_;
};

/**
 * Tree pseudo-LRU: one bit per internal node of a binary tree over
 * the ways. Requires a power-of-two way count; falls back to LRU for
 * other geometries (callers get told via makePolicy's choice).
 */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    TreePlruPolicy(std::size_t sets, std::size_t ways)
        : ways_(ways), bits_(sets * (ways - 1), 0)
    {
    }

    void
    touch(std::size_t set, std::size_t way) override
    {
        // Walk from root to the leaf, pointing each node away from
        // the touched way.
        char *tree = treeFor(set);
        std::size_t node = 0;
        std::size_t lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::size_t mid = lo + (hi - lo) / 2;
            const bool right = way >= mid;
            tree[node] = !right; // point away from the used half
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
    }

    void
    fill(std::size_t set, std::size_t way) override
    {
        touch(set, way);
    }

    std::size_t
    victim(std::size_t set) override
    {
        char *tree = treeFor(set);
        std::size_t node = 0;
        std::size_t lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::size_t mid = lo + (hi - lo) / 2;
            const bool right = tree[node];
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }

    void
    reset() override
    {
        std::fill(bits_.begin(), bits_.end(), 0);
    }

    void save(snap::SnapWriter &w) const override
    {
        w.putTag("plru");
        w.put64(bits_.size());
        for (char bit : bits_)
            w.putBool(bit != 0);
    }

    void load(snap::SnapReader &r) override
    {
        r.expectTag("plru");
        const u64 count = r.getCount();
        if (count != bits_.size())
            SASOS_FATAL("corrupt snapshot: plru state carries ", count,
                        " bits, this geometry has ", bits_.size());
        for (auto &bit : bits_)
            bit = r.getBool() ? 1 : 0;
    }

  private:
    char *treeFor(std::size_t set) { return &bits_[set * (ways_ - 1)]; }

    std::size_t ways_;
    std::vector<char> bits_;
};

} // namespace

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "lru";
      case PolicyKind::Fifo:
        return "fifo";
      case PolicyKind::Random:
        return "random";
      case PolicyKind::TreePlru:
        return "plru";
    }
    return "?";
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    if (name == "lru")
        return PolicyKind::Lru;
    if (name == "fifo")
        return PolicyKind::Fifo;
    if (name == "random")
        return PolicyKind::Random;
    if (name == "plru")
        return PolicyKind::TreePlru;
    SASOS_FATAL("unknown replacement policy '", name, "'");
}

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::size_t sets, std::size_t ways, u64 seed)
{
    SASOS_ASSERT(sets > 0 && ways > 0, "degenerate geometry");
    switch (kind) {
      case PolicyKind::Lru:
        return std::make_unique<StampPolicy>(sets, ways, true);
      case PolicyKind::Fifo:
        return std::make_unique<StampPolicy>(sets, ways, false);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(ways, seed);
      case PolicyKind::TreePlru:
        if ((ways & (ways - 1)) != 0 || ways == 1)
            return std::make_unique<StampPolicy>(sets, ways, true);
        return std::make_unique<TreePlruPolicy>(sets, ways);
    }
    SASOS_PANIC("unreachable");
}

} // namespace sasos::hw
