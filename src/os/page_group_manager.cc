#include "os/page_group_manager.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::os
{

PageGroupManager::PageGroupManager(VmState &state, stats::Group *parent)
    : statsGroup(parent, "pgman"),
      groupsCreated(&statsGroup, "groupsCreated", "page-groups allocated"),
      groupsFreed(&statsGroup, "groupsFreed", "page-groups recycled"),
      pageMoves(&statsGroup, "pageMoves",
                "pages moved between page-groups"),
      splits(&statsGroup, "splits",
             "non-default groups created by rights divergence"),
      inexpressible(&statsGroup, "inexpressible",
                    "rights vectors not expressible as one group"),
      alternations(&statsGroup, "alternations",
                   "page regroups displacing another domain's view"),
      state_(state)
{
}

PageGroupManager::Expressed
PageGroupManager::expressVector(const RightsVector &vector,
                                std::optional<DomainId> favored)
{
    Expressed out;
    if (vector.empty()) {
        out.exact = true;
        return out;
    }
    vm::Access representative = vm::Access::None;
    if (favored) {
        for (const auto &[d, r] : vector) {
            if (d == *favored) {
                representative = r;
                break;
            }
        }
    }
    if (representative == vm::Access::None) {
        for (const auto &[d, r] : vector)
            representative = representative | r;
    }
    out.rights = representative;
    out.exact = true;
    const bool has_write = vm::includes(representative, vm::Access::Write);
    const vm::Access disabled = representative & ~vm::Access::Write;
    for (const auto &[d, r] : vector) {
        if (r == representative) {
            out.members.emplace(d, false);
        } else if (has_write && r == disabled) {
            out.members.emplace(d, true);
        } else {
            out.exact = false;
        }
    }
    return out;
}

GroupId
PageGroupManager::allocateAid()
{
    if (!freeAids_.empty()) {
        const GroupId aid = freeAids_.back();
        freeAids_.pop_back();
        return aid;
    }
    if (nextAid_ == hw::kGlobalGroup)
        ++nextAid_;
    if (nextAid_ >= kNullGroup) {
        SASOS_FATAL("page-group identifier space exhausted (",
                    groups_.size(), " live groups)");
    }
    return nextAid_++;
}

void
PageGroupManager::freeGroup(GroupId aid)
{
    auto it = groups_.find(aid);
    SASOS_ASSERT(it != groups_.end(), "freeing unknown group ", aid);
    if (it->second.key)
        byKey_.erase(*it->second.key);
    for (const auto &[d, dbit] : it->second.members) {
        auto dit = domainGroups_.find(d);
        if (dit != domainGroups_.end())
            dit->second.erase(aid);
    }
    groups_.erase(it);
    freeAids_.push_back(aid);
    ++groupsFreed;
    if (onGroupFreed)
        onGroupFreed(aid);
}

void
PageGroupManager::registerSegment(vm::SegmentId seg)
{
    // Default groups are created lazily; nothing to do yet.
    (void)seg;
}

void
PageGroupManager::releaseSegment(vm::SegmentId seg)
{
    const vm::Segment *segment = state_.segments.find(seg);
    // Drop page assignments inside the segment.
    if (segment != nullptr) {
        auto it = assignments_.lower_bound(segment->firstPage);
        while (it != assignments_.end() && it->first <= segment->lastPage())
            it = assignments_.erase(it);
    }
    // Free every group carved from the segment.
    std::vector<GroupId> doomed;
    for (const auto &[aid, info] : groups_) {
        if (info.segment == seg)
            doomed.push_back(aid);
    }
    for (GroupId aid : doomed)
        freeGroup(aid);
    defaultGroups_.erase(seg);
}

GroupId
PageGroupManager::defaultGroupOf(vm::SegmentId seg)
{
    auto it = defaultGroups_.find(seg);
    if (it != defaultGroups_.end())
        return it->second;
    const GroupId aid = allocateAid();
    GroupInfo info;
    info.segment = seg;
    info.isDefault = true;
    groups_.emplace(aid, std::move(info));
    defaultGroups_.emplace(seg, aid);
    ++groupsCreated;
    return aid;
}

vm::Access
PageGroupManager::defaultRightsOf(vm::SegmentId seg) const
{
    return expressVector(state_.segmentDefaultVector(seg), std::nullopt)
        .rights;
}

PageGroupState
PageGroupManager::pageState(vm::Vpn vpn)
{
    auto it = assignments_.find(vpn);
    if (it != assignments_.end())
        return it->second;
    const vm::Segment *seg = state_.segments.findByPage(vpn);
    if (seg == nullptr)
        return PageGroupState{kNullGroup, vm::Access::None};
    if (!state_.hasPageMask(vpn) && state_.overrideDomains(vpn).empty()) {
        const Expressed def =
            expressVector(state_.segmentDefaultVector(seg->id),
                          std::nullopt);
        return PageGroupState{defaultGroupOf(seg->id), def.rights};
    }
    return assignPage(vpn, std::nullopt);
}

PageGroupState
PageGroupManager::regroupPage(vm::Vpn vpn)
{
    return assignPage(vpn, std::nullopt);
}

PageGroupState
PageGroupManager::regroupPageFor(vm::Vpn vpn, DomainId domain)
{
    return assignPage(vpn, domain);
}

PageGroupState
PageGroupManager::assignPage(vm::Vpn vpn, std::optional<DomainId> favored)
{
    const vm::Segment *seg = state_.segments.findByPage(vpn);
    auto prev_it = assignments_.find(vpn);
    const std::optional<PageGroupState> previous =
        prev_it == assignments_.end()
            ? std::nullopt
            : std::optional<PageGroupState>(prev_it->second);

    // Whether the view being displaced under-approximated its vector
    // (the precondition for counting an alternation).
    bool prev_inexact = false;
    if (previous) {
        auto git = groups_.find(previous->aid);
        prev_inexact = git != groups_.end() && !git->second.exact;
    } else if (seg != nullptr) {
        const Expressed natural = expressVector(
            state_.segmentDefaultVector(seg->id), std::nullopt);
        prev_inexact = !natural.exact;
    }

    PageGroupState next;
    if (seg == nullptr) {
        next = PageGroupState{kNullGroup, vm::Access::None};
    } else if (!state_.hasPageMask(vpn) &&
               state_.overrideDomains(vpn).empty()) {
        // The page carries no per-page state, so its vector is the
        // segment default. If that vector is expressible -- or the
        // favored domain is served by its natural expression -- the
        // default group covers it; otherwise the page needs a group
        // carved toward the favored domain even without overrides
        // (the paper's alternation case).
        const RightsVector def_vector =
            state_.segmentDefaultVector(seg->id);
        const Expressed natural = expressVector(def_vector, std::nullopt);
        if (!natural.exact)
            ++inexpressible;
        if (natural.exact || !favored ||
            natural.members.count(*favored)) {
            next = PageGroupState{defaultGroupOf(seg->id),
                                  natural.rights};
        } else {
            const Expressed expressed = expressVector(def_vector, favored);
            GroupKey key;
            key.segment = seg->id;
            key.vector = def_vector;
            key.rights = static_cast<u8>(expressed.rights);
            const GroupId aid =
                findOrCreateGroup(seg->id, key, expressed);
            next = PageGroupState{aid, expressed.rights};
        }
    } else {
        const RightsVector vector = state_.rightsVector(vpn);
        if (vector.empty()) {
            next = PageGroupState{kNullGroup, vm::Access::None};
        } else {
            Expressed expressed = expressVector(vector, favored);
            if (!expressed.exact)
                ++inexpressible;
            GroupKey key;
            key.segment = seg->id;
            key.vector = vector;
            key.rights = static_cast<u8>(expressed.rights);
            const GroupId aid =
                findOrCreateGroup(seg->id, key, expressed);
            next = PageGroupState{aid, expressed.rights};
        }
    }

    if (previous && previous->aid == next.aid) {
        // Same group; rights may still differ (group rights evolve
        // only by re-keying, so they match here by construction).
        if (prev_it->second != next)
            prev_it->second = next;
        return next;
    }

    // Update page counts and the assignment map.
    if (prev_inexact)
        ++alternations;
    if (previous) {
        auto git = groups_.find(previous->aid);
        if (git != groups_.end() && !git->second.isDefault) {
            SASOS_ASSERT(git->second.pageCount > 0, "pageCount underflow");
            if (--git->second.pageCount == 0)
                freeGroup(previous->aid);
        }
        ++pageMoves;
    } else {
        // Leaving the default group (or first assignment).
        ++pageMoves;
    }

    bool is_default_state = false;
    if (seg != nullptr) {
        auto dit = defaultGroups_.find(seg->id);
        is_default_state = dit != defaultGroups_.end() &&
                           next.aid == dit->second;
    }
    if (next.aid != kNullGroup && !is_default_state) {
        auto git = groups_.find(next.aid);
        SASOS_ASSERT(git != groups_.end(), "assigned to unknown group");
        if (!git->second.isDefault)
            ++git->second.pageCount;
    }

    if (is_default_state || next.aid == kNullGroup) {
        if (next.aid == kNullGroup)
            assignments_[vpn] = next;
        else
            assignments_.erase(vpn);
    } else {
        assignments_[vpn] = next;
    }
    return next;
}

GroupId
PageGroupManager::findOrCreateGroup(vm::SegmentId seg, const GroupKey &key,
                                    const Expressed &expressed)
{
    auto it = byKey_.find(key);
    if (it != byKey_.end())
        return it->second;
    const GroupId aid = allocateAid();
    GroupInfo info;
    info.segment = seg;
    info.rights = expressed.rights;
    info.members = expressed.members;
    info.exact = expressed.exact;
    info.key = key;
    groups_.emplace(aid, std::move(info));
    byKey_.emplace(key, aid);
    for (const auto &[d, dbit] : expressed.members)
        domainGroups_[d].insert(aid);
    ++groupsCreated;
    ++splits;
    return aid;
}

void
PageGroupManager::dropAssignment(vm::Vpn vpn)
{
    assignments_.erase(vpn);
}

bool
PageGroupManager::domainHasGroup(DomainId domain, GroupId aid) const
{
    if (aid == hw::kGlobalGroup)
        return true;
    if (aid == kNullGroup)
        return false;
    auto it = groups_.find(aid);
    if (it == groups_.end())
        return false;
    const GroupInfo &info = it->second;
    if (info.isDefault) {
        const Expressed def = expressVector(
            state_.segmentDefaultVector(info.segment), std::nullopt);
        return def.members.count(domain) != 0;
    }
    return info.members.count(domain) != 0;
}

bool
PageGroupManager::writeDisabled(DomainId domain, GroupId aid) const
{
    if (aid == hw::kGlobalGroup || aid == kNullGroup)
        return false;
    auto it = groups_.find(aid);
    if (it == groups_.end())
        return false;
    const GroupInfo &info = it->second;
    if (info.isDefault) {
        const Expressed def = expressVector(
            state_.segmentDefaultVector(info.segment), std::nullopt);
        auto mit = def.members.find(domain);
        return mit != def.members.end() && mit->second;
    }
    auto mit = info.members.find(domain);
    return mit != info.members.end() && mit->second;
}

std::vector<GroupId>
PageGroupManager::groupsOf(DomainId domain) const
{
    std::vector<GroupId> result;
    const Domain *d = state_.findDomain(domain);
    if (d != nullptr) {
        for (vm::SegmentId seg : d->prot.attachedSegmentIds()) {
            auto it = defaultGroups_.find(seg);
            if (it != defaultGroups_.end() &&
                domainHasGroup(domain, it->second)) {
                result.push_back(it->second);
            }
        }
    }
    auto it = domainGroups_.find(domain);
    if (it != domainGroups_.end())
        result.insert(result.end(), it->second.begin(), it->second.end());
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

std::vector<GroupId>
PageGroupManager::groupsOfSegment(vm::SegmentId seg) const
{
    std::vector<GroupId> result;
    for (const auto &[aid, info] : groups_) {
        if (info.segment == seg)
            result.push_back(aid);
    }
    return result;
}

std::vector<vm::Vpn>
PageGroupManager::assignedPagesIn(vm::Vpn first, u64 pages) const
{
    const vm::Vpn last(first.number() + pages - 1);
    std::vector<vm::Vpn> result;
    for (auto it = assignments_.lower_bound(first);
         it != assignments_.end() && it->first <= last; ++it) {
        result.push_back(it->first);
    }
    return result;
}

namespace
{

vm::Access
readGroupAccess(snap::SnapReader &r)
{
    const u8 raw = r.get8();
    if (raw > static_cast<u8>(vm::Access::All))
        SASOS_FATAL("corrupt snapshot: invalid rights byte ", u32(raw));
    return static_cast<vm::Access>(raw);
}

void
saveVector(snap::SnapWriter &w, const RightsVector &vector)
{
    w.put64(vector.size());
    for (const auto &[domain, rights] : vector) {
        w.put16(domain);
        w.put8(static_cast<u8>(rights));
    }
}

RightsVector
loadVector(snap::SnapReader &r)
{
    RightsVector vector;
    const u32 count = r.getCount(3);
    vector.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        const DomainId domain = static_cast<DomainId>(r.get16());
        vector.emplace_back(domain, readGroupAccess(r));
    }
    return vector;
}

} // namespace

void
PageGroupManager::save(snap::SnapWriter &w) const
{
    w.putTag("pgmgr");
    w.put16(nextAid_);
    w.put64(freeAids_.size());
    for (GroupId aid : freeAids_)
        w.put16(aid);
    w.put64(groups_.size());
    for (const auto &[aid, info] : groups_) {
        w.put16(aid);
        w.put32(info.segment);
        w.put8(static_cast<u8>(info.rights));
        w.put64(info.members.size());
        for (const auto &[domain, disabled] : info.members) {
            w.put16(domain);
            w.putBool(disabled);
        }
        w.put64(info.pageCount);
        w.putBool(info.isDefault);
        w.putBool(info.exact);
        w.putBool(info.key.has_value());
        if (info.key) {
            w.put32(info.key->segment);
            w.put8(info.key->rights);
            saveVector(w, info.key->vector);
        }
    }
    w.put64(defaultGroups_.size());
    for (const auto &[seg, aid] : defaultGroups_) {
        w.put32(seg);
        w.put16(aid);
    }
    w.put64(assignments_.size());
    for (const auto &[vpn, state] : assignments_) {
        w.put64(vpn.number());
        w.put16(state.aid);
        w.put8(static_cast<u8>(state.rights));
    }
    w.put64(domainGroups_.size());
    for (const auto &[domain, groups] : domainGroups_) {
        w.put16(domain);
        w.put64(groups.size());
        for (GroupId aid : groups)
            w.put16(aid);
    }
}

void
PageGroupManager::load(snap::SnapReader &r)
{
    r.expectTag("pgmgr");
    nextAid_ = static_cast<GroupId>(r.get16());
    freeAids_.clear();
    groups_.clear();
    defaultGroups_.clear();
    byKey_.clear();
    assignments_.clear();
    domainGroups_.clear();
    const u32 free_count = r.getCount(2);
    freeAids_.reserve(free_count);
    for (u32 i = 0; i < free_count; ++i)
        freeAids_.push_back(static_cast<GroupId>(r.get16()));
    const u32 group_count = r.getCount(18);
    for (u32 i = 0; i < group_count; ++i) {
        const GroupId aid = static_cast<GroupId>(r.get16());
        auto [it, inserted] = groups_.emplace(aid, GroupInfo{});
        if (!inserted)
            SASOS_FATAL("corrupt snapshot: group ", aid, " listed twice");
        GroupInfo &info = it->second;
        info.segment = r.get32();
        info.rights = readGroupAccess(r);
        const u32 member_count = r.getCount(3);
        for (u32 j = 0; j < member_count; ++j) {
            const DomainId domain = static_cast<DomainId>(r.get16());
            if (!info.members.emplace(domain, r.getBool()).second)
                SASOS_FATAL("corrupt snapshot: domain ", domain,
                            " is a member of group ", aid, " twice");
        }
        info.pageCount = r.get64();
        info.isDefault = r.getBool();
        info.exact = r.getBool();
        if (r.getBool()) {
            GroupKey key;
            key.segment = r.get32();
            key.rights = r.get8();
            key.vector = loadVector(r);
            info.key = key;
            if (!byKey_.emplace(key, aid).second)
                SASOS_FATAL("corrupt snapshot: two groups share one key");
        }
    }
    const u32 default_count = r.getCount(6);
    for (u32 i = 0; i < default_count; ++i) {
        const vm::SegmentId seg = r.get32();
        const GroupId aid = static_cast<GroupId>(r.get16());
        if (groups_.find(aid) == groups_.end())
            SASOS_FATAL("corrupt snapshot: default group ", aid,
                        " of segment ", seg, " does not exist");
        if (!defaultGroups_.emplace(seg, aid).second)
            SASOS_FATAL("corrupt snapshot: segment ", seg,
                        " has two default groups");
    }
    const u32 assign_count = r.getCount(11);
    for (u32 i = 0; i < assign_count; ++i) {
        const vm::Vpn vpn(r.get64());
        PageGroupState state;
        state.aid = static_cast<GroupId>(r.get16());
        state.rights = readGroupAccess(r);
        if (state.aid != kNullGroup &&
            groups_.find(state.aid) == groups_.end()) {
            SASOS_FATAL("corrupt snapshot: page ", vpn.number(),
                        " assigned to unknown group ", state.aid);
        }
        if (!assignments_.emplace(vpn, state).second)
            SASOS_FATAL("corrupt snapshot: page ", vpn.number(),
                        " assigned twice");
    }
    const u32 domain_count = r.getCount(6);
    for (u32 i = 0; i < domain_count; ++i) {
        const DomainId domain = static_cast<DomainId>(r.get16());
        std::set<GroupId> &groups = domainGroups_[domain];
        const u32 count = r.getCount(2);
        for (u32 j = 0; j < count; ++j) {
            if (!groups.insert(static_cast<GroupId>(r.get16())).second)
                SASOS_FATAL("corrupt snapshot: duplicate group record for "
                            "domain ",
                            domain);
        }
    }
}

} // namespace sasos::os
