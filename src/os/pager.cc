#include "os/pager.hh"

#include <optional>

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::os
{

Pager::Pager(Kernel &kernel, const PagerConfig &config,
             stats::Group *parent)
    : statsGroup(parent, "pager"),
      pageOuts(&statsGroup, "pageOuts", "pages written to disk"),
      pageIns(&statsGroup, "pageIns", "pages read from disk"),
      evictions(&statsGroup, "evictions",
                "page-outs forced by frame pressure"),
      kernel_(kernel), config_(config),
      domain_(kernel.createDomain("pager"))
{
    kernel_.setPager(this);
}

void
Pager::pageOut(vm::Vpn vpn)
{
    SASOS_ASSERT(kernel_.isMapped(vpn), "paging out unmapped page ",
                 vpn.number());
    ++pageOuts;
    // The pager is a user-level server: entering it costs an upcall.
    kernel_.charge(CostCategory::Upcall, kernel_.costs().serverUpcall);
    // Exclude every application while the transfer is in flight; the
    // exclusion stays until the page returns.
    kernel_.restrictPage(vpn, vm::Access::None, domain_);
    if (config_.compress)
        kernel_.charge(CostCategory::Io, kernel_.costs().compressPage);
    kernel_.charge(CostCategory::Io, kernel_.costs().diskAccess);
    kernel_.unmapPage(vpn);
    kernel_.markOnDisk(vpn);
    // Once unmapped, the missing translation is what protects the
    // page (Section 4.1.3: a stale PLB entry may allow the access,
    // but the purged TLB faults it); lift the exclusion so the fault
    // routes to page-in rather than a protection exception.
    kernel_.unrestrictPage(vpn);
}

void
Pager::pageIn(vm::Vpn vpn)
{
    SASOS_ASSERT(kernel_.isOnDisk(vpn), "paging in resident page ",
                 vpn.number());
    ++pageIns;
    kernel_.charge(CostCategory::Upcall, kernel_.costs().serverUpcall);
    // Exclude applications for the duration of the transfer.
    kernel_.restrictPage(vpn, vm::Access::None, domain_);
    kernel_.clearOnDisk(vpn);
    kernel_.mapPage(vpn); // may evict under pressure
    kernel_.charge(CostCategory::Io, kernel_.costs().diskAccess);
    if (config_.compress)
        kernel_.charge(CostCategory::Io, kernel_.costs().decompressPage);
    kernel_.unrestrictPage(vpn);
}

void
Pager::evictOne()
{
    ++evictions;
    pageOut(chooseVictim());
}

vm::Vpn
Pager::chooseVictim()
{
    // One pass over the page table: the first unreferenced page, or
    // else the first mapped page. Only the victim's usage bits are
    // cleared; the referenced bits of the pages passed stay set.
    std::optional<vm::Vpn> unreferenced;
    std::optional<vm::Vpn> any;
    auto &table = kernel_.state().pageTable;
    table.forEach([&](vm::Vpn vpn, const vm::Translation &translation) {
        if (!any)
            any = vpn;
        if (!unreferenced && !translation.referenced)
            unreferenced = vpn;
    });
    SASOS_ASSERT(any, "no mapped pages to evict");
    const vm::Vpn victim = unreferenced ? *unreferenced : *any;
    kernel_.state().pageTable.clearUsage(victim);
    return victim;
}

void
Pager::save(snap::SnapWriter &w) const
{
    w.putTag("pager");
    w.put16(domain_);
}

void
Pager::load(snap::SnapReader &r)
{
    r.expectTag("pager");
    const DomainId domain = static_cast<DomainId>(r.get16());
    if (kernel_.state().findDomain(domain) == nullptr)
        SASOS_FATAL("corrupt snapshot: pager domain ", domain,
                    " does not exist");
    domain_ = domain;
}

} // namespace sasos::os
