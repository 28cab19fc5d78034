/**
 * @file
 * The data-side memory hierarchy shared by all four machines: the
 * first-level cache (whose indexing/tagging varies by model) backed
 * by an optional physically indexed second-level cache.
 *
 * The models keep ownership of the protection and translation logic;
 * this helper only walks a reference down the hierarchy, charging the
 * cost model at each level, and performs page flushes across both
 * levels on unmap.
 */

#ifndef SASOS_CORE_MEM_PATH_HH
#define SASOS_CORE_MEM_PATH_HH

#include <memory>
#include <optional>

#include "core/system_config.hh"
#include "hw/data_cache.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{

/** L1 (+ optional L2) data path. */
class MemoryPath
{
  public:
    MemoryPath(const SystemConfig &config, stats::Group *parent,
               CycleAccount &account);

    hw::DataCache &l1() { return l1_; }
    /** Null when the system is configured without an L2. */
    hw::DataCache *l2() { return l2_.get(); }

    /**
     * L1 probe (no charge; the base pipeline cycle covers it).
     * @param pa required unless the L1 is virtually tagged.
     */
    bool
    l1Access(vm::VAddr va, std::optional<vm::PAddr> pa, bool store)
    {
        return l1_.access(va, pa, store);
    }

    /**
     * Complete an L1 miss once the translation is known: read the
     * line from the L2 (charging l2Hit) or memory (charging memory;
     * the L2 is filled on the way). @return the evicted dirty L1
     * victim, if any -- the caller charges its writeback (and, for a
     * virtually tagged L1, the victim's translation).
     */
    std::optional<hw::CacheVictim> fillFromBeyond(vm::VAddr va,
                                                  vm::PAddr pa,
                                                  bool store);

    /** Flush one page from both levels (unmap); charges flush costs. */
    void flushPage(vm::Vpn vpn, std::optional<vm::Pfn> pfn);

    /** Flush the whole L1 (multiple-address-space homonym avoidance
     * on a virtually indexed cache); charges flush costs. @return
     * lines invalidated. */
    u64 flushAllL1();

    /** @name Snapshot hooks (both cache levels) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    void charge(CostCategory category, Cycles cycles);

    const SystemConfig &config_;
    CycleAccount &account_;
    hw::DataCache l1_;
    std::unique_ptr<hw::DataCache> l2_;
};

} // namespace sasos::core

#endif // SASOS_CORE_MEM_PATH_HH
