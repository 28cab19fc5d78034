/**
 * @file
 * OS management of PA-RISC style page-groups.
 *
 * Under the page-group model a page belongs to exactly one group, a
 * domain is the set of groups it may access, and a page has a single
 * Rights field shared by all domains (with the per-domain D bit able
 * to disable writes group-wide). The kernel's canonical protection
 * state, however, is per-(domain, page). This manager derives a
 * grouping from the canonical state:
 *
 *  - pages of a segment whose rights vector equals the segment's
 *    default vector (the attach grants) share the segment's default
 *    group -- attach/detach stay O(1), the paper's headline advantage;
 *  - pages whose vector diverges (per-page overrides, paging masks)
 *    move to groups keyed by their exact rights vector -- the paper's
 *    group *splitting* (Section 4.1.2);
 *  - vectors not expressible as one (Rights, D-bit) combination (e.g.
 *    one domain read-only, another write-only) get a group favoring
 *    one domain; the others take faults and the page hops groups,
 *    reproducing the paper's alternation pathology.
 *
 * The manager is pure bookkeeping: the page-group hardware model owns
 * the TLB/PID-cache manipulation and charges the costs.
 */

#ifndef SASOS_OS_PAGE_GROUP_MANAGER_HH
#define SASOS_OS_PAGE_GROUP_MANAGER_HH

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "os/vm_state.hh"
#include "sim/stats.hh"

namespace sasos::os
{

using hw::GroupId;

/**
 * The group of pages no domain may access (e.g. during paging).
 * Never allocated to a segment; membership checks always fail.
 */
constexpr GroupId kNullGroup = 0xFFFF;

/** What the page-group TLB entry for a page should contain. */
struct PageGroupState
{
    GroupId aid = hw::kGlobalGroup;
    vm::Access rights = vm::Access::None;

    bool operator==(const PageGroupState &) const = default;
};

/** Derives and tracks the page -> group assignment. */
class PageGroupManager
{
  public:
    PageGroupManager(VmState &state, stats::Group *parent);

    /** @name Segment lifecycle */
    /// @{
    void registerSegment(vm::SegmentId seg);
    void releaseSegment(vm::SegmentId seg);
    /// @}

    /** The default group of a segment (creating it on first use). */
    GroupId defaultGroupOf(vm::SegmentId seg);

    /** The Rights field pages of the default group carry right now
     * (the expressible union of the attach grants). */
    vm::Access defaultRightsOf(vm::SegmentId seg) const;

    /**
     * The (group, rights) the page's TLB entry should carry right
     * now, deriving (and caching) from canonical state on first use.
     */
    PageGroupState pageState(vm::Vpn vpn);

    /**
     * Recompute a page's group after a canonical rights change.
     * @return the new state; callers compare with the previous state
     *         to decide whether hardware needs a group move.
     */
    PageGroupState regroupPage(vm::Vpn vpn);

    /**
     * Recompute favoring `domain` when the page's vector is not
     * expressible as a single group: the chosen representative
     * rights are the favored domain's, and only conforming domains
     * become members. Counts an alternation when this displaces a
     * previously favored domain.
     */
    PageGroupState regroupPageFor(vm::Vpn vpn, DomainId domain);

    /** @name Membership (derived from group records) */
    /// @{
    bool domainHasGroup(DomainId domain, GroupId aid) const;
    bool writeDisabled(DomainId domain, GroupId aid) const;
    /** All groups a domain can currently access, for eager reload. */
    std::vector<GroupId> groupsOf(DomainId domain) const;
    /** Groups carved out of one segment (default + splits). */
    std::vector<GroupId> groupsOfSegment(vm::SegmentId seg) const;

    /** Pages in [first, first+pages) currently assigned away from
     * their segment's default group. Segment-wide rights changes must
     * regroup these as well as pages with canonical per-page state
     * (a fault-driven favored group can hold stateless pages). */
    std::vector<vm::Vpn> assignedPagesIn(vm::Vpn first, u64 pages) const;
    /// @}

    /** Live (allocated) group count. */
    std::size_t liveGroups() const { return groups_.size(); }

    /** @name Snapshot hooks
     * The full derived grouping is serialized (AID recycling order
     * included) so restored runs regroup identically; byKey_ is
     * rebuilt from the group records. The onGroupFreed callback is
     * runtime wiring, re-set by the owning model. */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /**
     * Invoked whenever a group is freed (its AID may be recycled).
     * The hardware model uses this to evict the stale PID from the
     * page-group cache.
     */
    std::function<void(GroupId)> onGroupFreed;

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar groupsCreated;
    stats::Scalar groupsFreed;
    stats::Scalar pageMoves;
    stats::Scalar splits;
    stats::Scalar inexpressible;
    stats::Scalar alternations;
    /// @}

  private:
    /** Canonical group identity: the segment it is carved from, the
     * exact rights vector it encodes, and the representative rights
     * (which differ from the vector when inexpressible). */
    struct GroupKey
    {
        vm::SegmentId segment = vm::kInvalidSegment;
        RightsVector vector;
        u8 rights = 0;

        bool
        operator<(const GroupKey &other) const
        {
            if (segment != other.segment)
                return segment < other.segment;
            if (rights != other.rights)
                return rights < other.rights;
            return vector < other.vector;
        }
    };

    struct GroupInfo
    {
        vm::SegmentId segment = vm::kInvalidSegment;
        /** Group-wide Rights field. */
        vm::Access rights = vm::Access::None;
        /** Members and their D bits. */
        std::map<DomainId, bool> members;
        /** Pages currently assigned (default groups track only
         * explicitly reassigned counts and may be zero). */
        u64 pageCount = 0;
        bool isDefault = false;
        /** False when the group under-approximates its vector. */
        bool exact = true;
        std::optional<GroupKey> key;
    };

    /** Representative rights + membership for a vector. */
    struct Expressed
    {
        vm::Access rights = vm::Access::None;
        std::map<DomainId, bool> members;
        bool exact = false; // every domain in the vector is a member
    };

    static Expressed expressVector(const RightsVector &vector,
                                   std::optional<DomainId> favored);

    GroupId allocateAid();
    void freeGroup(GroupId aid);
    GroupId findOrCreateGroup(vm::SegmentId seg, const GroupKey &key,
                              const Expressed &expressed);
    PageGroupState assignPage(vm::Vpn vpn, std::optional<DomainId> favored);
    void dropAssignment(vm::Vpn vpn);

    VmState &state_;
    GroupId nextAid_ = 1;
    std::vector<GroupId> freeAids_;
    std::map<GroupId, GroupInfo> groups_;
    std::map<vm::SegmentId, GroupId> defaultGroups_;
    std::map<GroupKey, GroupId> byKey_;
    /** Pages assigned away from their segment's default group. */
    std::map<vm::Vpn, PageGroupState> assignments_;
    /** domain -> non-default groups it belongs to. */
    std::map<DomainId, std::set<GroupId>> domainGroups_;
};

} // namespace sasos::os

#endif // SASOS_OS_PAGE_GROUP_MANAGER_HH
