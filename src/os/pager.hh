/**
 * @file
 * A user-level paging server (paper Section 4.1.3).
 *
 * The pager runs in its own protection domain and must have exclusive
 * access to a page while moving it to or from secondary store. It
 * excludes every other domain through the kernel's page mask (the
 * models translate that into PLB scan-updates or a move into the
 * pager's private page-group -- exactly the Table 1 rows), performs
 * the disk transfer (optionally compressing, for the compression
 * paging application of Appel & Li), and unmaps or remaps the page.
 */

#ifndef SASOS_OS_PAGER_HH
#define SASOS_OS_PAGER_HH

#include "os/kernel.hh"
#include "sim/stats.hh"

namespace sasos::os
{

/** Paging server behaviour. */
struct PagerConfig
{
    /** Compress pages on the way out (compression paging). */
    bool compress = false;
};

/** The user-level paging server. */
class Pager
{
  public:
    Pager(Kernel &kernel, const PagerConfig &config, stats::Group *parent);

    /** The pager's own protection domain. */
    DomainId domainId() const { return domain_; }

    const PagerConfig &config() const { return config_; }

    /**
     * Move a mapped page to secondary store: exclude applications,
     * (compress and) write, unmap, free the frame.
     */
    void pageOut(vm::Vpn vpn);

    /**
     * Bring a page back: map a frame, read (and decompress), restore
     * application access.
     */
    void pageIn(vm::Vpn vpn);

    /**
     * Free one frame under memory pressure: pick a victim by one
     * pass over the page table (the first unreferenced page, else
     * the first mapped one) and page it out.
     */
    void evictOne();

    /** @name Snapshot hooks
     * The pager's domain id is canonical state; its construction-time
     * domain creation is superseded when the owner restores VmState
     * and then calls load(). */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar pageOuts;
    stats::Scalar pageIns;
    stats::Scalar evictions;
    /// @}

  private:
    vm::Vpn chooseVictim();

    Kernel &kernel_;
    PagerConfig config_;
    DomainId domain_;
};

} // namespace sasos::os

#endif // SASOS_OS_PAGER_HH
