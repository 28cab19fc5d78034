/**
 * @file
 * Replacement policies for set-associative hardware structures.
 *
 * One policy object serves a whole structure; state is kept per
 * (set, way). The structure asks for a victim only when every way in
 * the set is valid -- invalid ways are always filled first by the
 * caller.
 */

#ifndef SASOS_HW_REPLACEMENT_HH
#define SASOS_HW_REPLACEMENT_HH

#include <memory>
#include <string>

#include "sim/random.hh"
#include "sim/types.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::hw
{

/** Selectable replacement policies. */
enum class PolicyKind
{
    Lru,
    Fifo,
    Random,
    TreePlru,
};

const char *toString(PolicyKind kind);

/**
 * Sets with at least this many ways get O(1) bookkeeping: a tag index
 * in AssocCache and a recency list in the LRU/FIFO policy. The fully
 * associative TLBs, PLBs and page-group/key caches (128-512 ways) need
 * it; the direct-mapped L1, the 4-way L2 and the 4-register PID file
 * scan at most four ways, and giving every data-cache line links and
 * index slots would cost memory and set-up time for nothing.
 */
constexpr std::size_t kWideSetWays = 16;

/** Parse "lru" / "fifo" / "random" / "plru" (fatal on other input). */
PolicyKind parsePolicyKind(const std::string &name);

/** Per-structure replacement state. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Record a hit on (set, way). */
    virtual void touch(std::size_t set, std::size_t way) = 0;

    /**
     * Whether touch() has any effect. FIFO and Random ignore hits, so
     * the structure's lookup path can skip the virtual call entirely;
     * recency-based policies return true.
     */
    virtual bool needsTouch() const { return true; }

    /** Record a fill of (set, way). */
    virtual void fill(std::size_t set, std::size_t way) = 0;

    /** Choose the way to evict in a full set. */
    virtual std::size_t victim(std::size_t set) = 0;

    /** Forget all history (e.g. after a full purge). */
    virtual void reset() = 0;

    /** @name Snapshot hooks
     * Replacement history decides every future victim, so it is part
     * of the deterministic state; load() is called on a policy built
     * with the same (kind, sets, ways, seed) and fails cleanly on a
     * shape mismatch. */
    /// @{
    virtual void save(snap::SnapWriter &w) const = 0;
    virtual void load(snap::SnapReader &r) = 0;
    /// @}
};

/**
 * Build a policy instance.
 * @param seed only used by PolicyKind::Random.
 */
std::unique_ptr<ReplacementPolicy> makePolicy(PolicyKind kind,
                                              std::size_t sets,
                                              std::size_t ways,
                                              u64 seed = 1);

} // namespace sasos::hw

#endif // SASOS_HW_REPLACEMENT_HH
