#include "core/per_core_models.hh"

#include "core/conventional_system.hh"
#include "core/pagegroup_system.hh"
#include "core/pkey_system.hh"
#include "core/plb_system.hh"
#include "sim/logging.hh"

namespace sasos::core
{

namespace
{

/** Page range covering every segment the allocator can hand out;
 * the range of ops that have no natural one (domain destruction). */
constexpr u64 kFullRangePages = u64{1} << 40;

} // namespace

std::unique_ptr<os::ProtectionModel>
makeModel(const SystemConfig &config, os::VmState &state,
          CycleAccount &account, stats::Group *parent)
{
    switch (config.model) {
      case ModelKind::Plb:
        return std::make_unique<PlbSystem>(config, state, account, parent);
      case ModelKind::PageGroup:
        return std::make_unique<PageGroupSystem>(config, state, account,
                                                 parent);
      case ModelKind::Conventional:
        return std::make_unique<ConventionalSystem>(config, state, account,
                                                    parent);
      case ModelKind::Pkey:
        return std::make_unique<PkeySystem>(config, state, account, parent);
    }
    SASOS_PANIC("unreachable");
}

PerCoreModels::PerCoreModels(const SystemConfig &config, os::VmState &state,
                             CycleAccount &account, Delivery deliver)
    : config_(config), state_(state), account_(account),
      deliver_(std::move(deliver))
{
}

PerCoreModels::~PerCoreModels() = default;

stats::Group &
PerCoreModels::addCore(stats::Group *parent, const std::string &name)
{
    groups_.push_back(std::make_unique<stats::Group>(parent, name));
    cores_.push_back(
        makeModel(config_, state_, account_, groups_.back().get()));
    return *groups_.back();
}

void
PerCoreModels::setCurrent(unsigned core)
{
    SASOS_ASSERT(core < cores_.size(), "no CPU ", core);
    current_ = core;
}

os::ProtectionModel &
PerCoreModels::core(unsigned index)
{
    SASOS_ASSERT(index < cores_.size(), "no CPU ", index);
    return *cores_[index];
}

void
PerCoreModels::dropMemo()
{
    for (auto &model : cores_)
        model->dropMemo();
}

os::AccessResult
PerCoreModels::access(os::DomainId domain, vm::VAddr va,
                      vm::AccessType type)
{
    return cores_[current_]->access(domain, va, type);
}

void
PerCoreModels::doAttach(os::DomainId domain, const vm::Segment &seg,
                        vm::Access rights)
{
    // An attach that leaves the segment's rights union unchanged is a
    // pure grant: remote hardware holds nothing for the new domain, so
    // only the issuing core's structures see it. When the grant
    // *raises* the union, the page-group model's default group changes
    // protections (its Rights field and every other member's derived
    // D bit), which -- like any group protection change (Section
    // 4.1.2) -- must reach every remote PID cache and TLB. The
    // condition derives from canonical state only, so the shootdown
    // protocol is the same on every model; PLB and ASID cores just
    // have less to drop.
    vm::Access union_before = vm::Access::None;
    for (const auto &[d, r] : state_.segmentDefaultVector(seg.id)) {
        if (d != domain)
            union_before = union_before | r;
    }
    if (vm::includes(union_before, rights)) {
        cores_[current_]->onAttach(domain, seg, rights);
        return;
    }
    deliver_(
        [domain, seg, rights](os::ProtectionModel &m) {
            m.onAttach(domain, seg, rights);
        },
        seg.firstPage, seg.pages, std::nullopt);
}

void
PerCoreModels::doDetach(os::DomainId domain, const vm::Segment &seg)
{
    deliver_(
        [domain, seg](os::ProtectionModel &m) { m.onDetach(domain, seg); },
        seg.firstPage, seg.pages, domain);
}

void
PerCoreModels::doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                               vm::Access rights)
{
    deliver_(
        [domain, vpn, rights](os::ProtectionModel &m) {
            m.onSetPageRights(domain, vpn, rights);
        },
        vpn, 1, domain);
}

void
PerCoreModels::doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    deliver_(
        [vpn, rights](os::ProtectionModel &m) {
            m.onSetPageRightsAllDomains(vpn, rights);
        },
        vpn, 1, std::nullopt);
}

void
PerCoreModels::doClearPageRightsAllDomains(vm::Vpn vpn)
{
    deliver_(
        [vpn](os::ProtectionModel &m) { m.onClearPageRightsAllDomains(vpn); },
        vpn, 1, std::nullopt);
}

void
PerCoreModels::doSetSegmentRights(os::DomainId domain,
                                  const vm::Segment &seg, vm::Access rights)
{
    deliver_(
        [domain, seg, rights](os::ProtectionModel &m) {
            m.onSetSegmentRights(domain, seg, rights);
        },
        seg.firstPage, seg.pages, domain);
}

void
PerCoreModels::doDomainSwitch(os::DomainId from, os::DomainId to)
{
    // A switch is local to the processor it happens on.
    cores_[current_]->onDomainSwitch(from, to);
}

void
PerCoreModels::doPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // Mappings load lazily per core.
    cores_[current_]->onPageMapped(vpn, pfn);
}

void
PerCoreModels::doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // The classic TLB shootdown: every processor purges its entry and
    // flushes its cached lines.
    deliver_(
        [vpn, pfn](os::ProtectionModel &m) { m.onPageUnmapped(vpn, pfn); },
        vpn, 1, std::nullopt);
}

void
PerCoreModels::doDomainDestroyed(os::DomainId domain)
{
    deliver_(
        [domain](os::ProtectionModel &m) { m.onDomainDestroyed(domain); },
        vm::Vpn(0), kFullRangePages, domain);
}

void
PerCoreModels::doSegmentDestroyed(const vm::Segment &seg)
{
    deliver_([seg](os::ProtectionModel &m) { m.onSegmentDestroyed(seg); },
             seg.firstPage, seg.pages, std::nullopt);
}

bool
PerCoreModels::doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // Fault repair is local to the faulting processor.
    return cores_[current_]->refreshAfterFault(domain, vpn);
}

vm::Access
PerCoreModels::cachedRights(os::DomainId domain, vm::Vpn vpn) const
{
    return cores_[current_]->cachedRights(domain, vpn);
}

u64
PerCoreModels::doPurgeForAck(std::optional<os::DomainId> domain,
                             vm::Vpn first, u64 pages)
{
    return cores_[current_]->purgeForAck(domain, first, pages);
}

} // namespace sasos::core
