/**
 * @file
 * The clustered Protection Lookaside Buffer: a datacenter-scale PLB
 * organization sharded by VPN range across per-cluster banks, with a
 * shared L2 range directory.
 *
 * SPARTA's divide-and-conquer translation (arXiv 2001.07045) motivates
 * the split: at 64-1024 cores the expensive PLB operations are not the
 * per-reference probes (those are indexed) but the maintenance scans
 * -- segment detach, rights-range revocation, domain destruction --
 * that the shootdown protocol runs on *every* core. Sharding entries
 * by VPN range means (a) a probe touches exactly one small bank, and
 * (b) a maintenance scan only has to visit banks that can hold
 * affected entries. The shared L2 directory makes (b) cheap: it is an
 * exact map from VPN range to the number of live entries the owning
 * bank holds for that range, so a scan skips every bank with no live
 * range in the operation's span.
 *
 * Entries are page-grain only: a super-page entry could straddle a
 * shard boundary and would need multi-bank coherence on every indexed
 * op. The owning PlbSystem forces page-grain refills in clustered
 * mode, so routing by VPN is exact and the allow/deny decisions are
 * bit-identical to the flat PLB of the same total capacity -- an
 * identity bench_scale enforces by exit code.
 *
 * The directory is kept exact (never stale) by funnelling every entry
 * birth and death through it: inserts report their victims
 * (Plb::insertTracked), indexed invalidations report their hit, and
 * the scan-style operations are decomposed into per-bank
 * collect-then-invalidate sweeps so each dropped entry is seen.
 */

#ifndef SASOS_HW_CLUSTER_PLB_HH
#define SASOS_HW_CLUSTER_PLB_HH

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "hw/plb.hh"

namespace sasos::hw
{

/** The VPN-range-sharded, bank-clustered PLB. */
class ClusterPlb
{
  public:
    /** @param config total geometry; `config.ways` entries are split
     *                evenly across `config.clusters` banks. */
    ClusterPlb(const PlbConfig &config, stats::Group *parent);

    const PlbConfig &config() const { return config_; }
    unsigned clusters() const
    {
        return static_cast<unsigned>(banks_.size());
    }
    u64 rangePages() const { return u64{1} << config_.rangeShift; }

    /** The bank owning a page: ranges rotate across banks. */
    unsigned
    bankOf(u64 vpn) const
    {
        return static_cast<unsigned>((vpn >> config_.rangeShift) %
                                     banks_.size());
    }

    /** @name The Plb probe surface (routed to the owning bank) */
    /// @{
    std::optional<PlbMatch> lookup(DomainId domain, vm::VAddr va,
                                   AssocLoc *loc = nullptr);
    std::optional<PlbMatch> peek(DomainId domain, vm::VAddr va) const;

    /** Replay a remembered hit exactly as lookup() would count and
     * touch it, at cluster and bank level; the vpn routes the
     * remembered AssocLoc to its bank. */
    void
    replayHit(u64 vpn, const AssocLoc &loc)
    {
        ++lookups;
        ++hits;
        banks_[bankOf(vpn)]->replayHit(loc);
    }

    /** Page-grain only, so every match covers its whole page. */
    bool pageUniform() const { return true; }
    /// @}

    /** @name The Plb maintenance surface
     * Same semantics as hw::Plb; scans consult the L2 directory and
     * only sweep banks with live entries in the affected span.
     * PurgeResult::scanned counts the entries of every bank actually
     * swept (the hardware cost the directory just saved elsewhere). */
    /// @{
    void insert(DomainId domain, vm::VAddr va, int size_shift,
                vm::Access rights);
    bool updateRights(DomainId domain, vm::VAddr va, vm::Access rights);
    std::optional<int> invalidateCovering(DomainId domain, vm::VAddr va);
    PurgeResult updateRightsRange(std::optional<DomainId> domain,
                                  vm::Vpn first, u64 pages,
                                  vm::Access rights);
    PurgeResult intersectRightsRange(vm::Vpn first, u64 pages,
                                     vm::Access mask);
    PurgeResult purgeDomain(DomainId domain);
    PurgeResult purgeRange(std::optional<DomainId> domain, vm::Vpn first,
                           u64 pages);
    u64 purgeAll();
    bool evictOne(Rng &rng);
    /** Side-effect-free probe over the banks the directory names;
     * scale_test uses it to check the directory. */
    u64 countRange(std::optional<DomainId> domain, vm::Vpn first,
                   u64 pages) const;
    /// @}

    std::size_t occupancy() const;
    std::size_t capacity() const;

    /** Live (nonzero) ranges in the L2 directory. */
    std::size_t liveRanges() const { return directory_.size(); }

    /** Direct bank access for tests. */
    Plb &bank(unsigned i) { return *banks_[i]; }
    const Plb &bank(unsigned i) const { return *banks_[i]; }

    /** Visit valid entries bank by bank:
     * fn(domain, blockBaseVa, sizeShift, rights). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &bank : banks_)
            bank->forEach(fn);
    }

    /** @name Snapshot hooks (geometry guard + per-bank arrays; the
     * directory is derived state, rebuilt on load) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics
     * Cluster-level lookups/hits/misses equal the per-bank sums. */
    /// @{
    stats::Group statsGroup;
    stats::Scalar lookups;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar dirBankSkips;
    stats::Scalar dirBankScans;
    stats::Formula hitRate;
    /// @}

  private:
    /** One live page-grain entry appeared on `vpn`. */
    void dirAdd(u64 vpn);
    /** One live page-grain entry on `vpn` died. */
    void dirRemove(u64 vpn);

    /**
     * Banks with at least one directory-live range intersecting
     * [first, first+pages), in bank order. Pure (no stats side
     * effects); non-const callers record skip/scan counts via
     * noteDirectoryVerdict().
     */
    std::vector<unsigned> affectedBanks(vm::Vpn first, u64 pages) const;

    /** Record a directory consultation: `scanned` banks must be
     * swept, the rest were proven clean. */
    void noteDirectoryVerdict(std::size_t scanned);

    /**
     * Sweep one bank, invalidating every valid entry matching
     * `match(domain, vpn)`, keeping the directory exact.
     * @return entries invalidated; `scanned` accounting is the
     *         caller's (one full bank scan).
     */
    template <typename Match>
    u64 sweepBank(Plb &bank, Match match);

    PlbConfig config_;
    std::vector<std::unique_ptr<stats::Group>> bankGroups_;
    std::vector<std::unique_ptr<Plb>> banks_;
    /** Range id (vpn >> rangeShift) -> live entries in that range.
     * Ordered so range iteration order is host-independent. */
    std::map<u64, u32> directory_;
};

} // namespace sasos::hw

#endif // SASOS_HW_CLUSTER_PLB_HH
