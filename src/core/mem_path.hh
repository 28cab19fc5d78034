/**
 * @file
 * The data-side memory hierarchy shared by all four machines: the
 * first-level cache (whose indexing/tagging varies by model) backed
 * by an optional physically indexed second-level cache.
 *
 * The models keep ownership of the protection and translation logic;
 * this helper walks a reference down the hierarchy, charging the cost
 * model at each level, and performs page flushes across both levels
 * on unmap. It also holds the two steps of a reference that no model
 * varies: the physically tagged tail behind a TLB translation and the
 * fault-injection frame.
 */

#ifndef SASOS_CORE_MEM_PATH_HH
#define SASOS_CORE_MEM_PATH_HH

#include <memory>
#include <optional>

#include "core/system_config.hh"
#include "fault/fault.hh"
#include "hw/data_cache.hh"
#include "hw/tlb.hh"
#include "obs/tracer.hh"
#include "os/protection_model.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

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

    /**
     * The physically tagged tail of a granted reference (the
     * conventional, page-group and pkey machines): probe the L1 with
     * the TLB entry's translation, complete a miss from beyond
     * (charging a dirty victim's writeback), then set the referenced
     * and dirty bits on the entry and the page table. Inline: the
     * same-page memo's hit path runs through it.
     */
    void
    accessPhysical(vm::VAddr va, hw::TlbEntry &entry, bool store,
                   vm::GlobalPageTable &pages)
    {
        const vm::PAddr pa = vm::translate(va, entry.pfn);
        if (l1_.access(va, pa, store)) {
            SASOS_OBS_EVENT(obs::EventKind::DCacheHit,
                            account_.total().count(), va.raw(), store);
        } else {
            SASOS_OBS_EVENT(obs::EventKind::DCacheMiss,
                            account_.total().count(), va.raw(), store);
            if (auto victim = fillFromBeyond(va, pa, store)) {
                SASOS_OBS_EVENT(obs::EventKind::DCacheEvict,
                                account_.total().count(), va.raw(),
                                victim->dirty);
                if (victim->dirty)
                    account_.charge(CostCategory::Reference,
                                    config_.costs.writeback);
            }
        }
        entry.referenced = true;
        if (store)
            entry.dirty = true;
        const vm::Vpn vpn = vm::pageOf(va);
        pages.markReferenced(vpn);
        if (store)
            pages.markDirty(vpn);
    }

    /**
     * The fault-injection frame every model runs before a reference:
     * tick `model`'s injector and, when the schedule perturbs, drop
     * the model's same-page memo and apply the perturbation in one
     * fixed order, so a seed draws the same RNG stream on every model:
     * evict one protection entry (`evict_protection(rng)`, traced as
     * `evict_kind`), one `translations` entry, one random L1 line
     * (charging a dirty line's writeback); flash-purge the protection
     * structure (`flush_protection()`); charge a delayed fill.
     * @return true if the reference must raise a transient fault.
     */
    template <typename EvictProtection, typename FlushProtection>
    bool
    perturb(os::ProtectionModel &model, hw::Tlb &translations,
            obs::EventKind evict_kind, EvictProtection &&evict_protection,
            FlushProtection &&flush_protection)
    {
        fault::FaultInjector &injector = *model.injector();
        const fault::Perturbation p = injector.tick();
        if (!p.any())
            return false;
        model.dropMemo();
        Rng &rng = injector.rng();
        if (p.evictProtection) {
            evict_protection(rng);
            SASOS_OBS_EVENT(evict_kind, account_.total().count(), 0, 1);
        }
        if (p.evictTranslation) {
            translations.evictOne(rng);
            SASOS_OBS_EVENT(obs::EventKind::TlbEvict,
                            account_.total().count(), 0, 1);
        }
        if (p.evictData) {
            // A displaced dirty line is written back; the data
            // survives, only its cache residency is lost.
            if (auto victim = l1_.evictRandomLine(rng); victim &&
                victim->dirty) {
                charge(CostCategory::Reference, config_.costs.writeback);
            }
            SASOS_OBS_EVENT(obs::EventKind::DCacheEvict,
                            account_.total().count(), 0, 1);
        }
        if (p.flushProtection) {
            flush_protection();
            SASOS_OBS_EVENT(obs::EventKind::ProtectionFlush,
                            account_.total().count(), 0, 0);
        }
        if (p.delayFill)
            charge(CostCategory::Refill, config_.costs.faultDelay);
        return p.transientFault;
    }

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
