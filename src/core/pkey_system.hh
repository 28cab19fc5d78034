/**
 * @file
 * The protection-key (MPK-style) fourth model.
 *
 * Protection is decoupled from translation the way Section 4 argues
 * for, but pushed further than the page-group system: the TLB carries
 * only a translation plus a small key id per page, and the rights a
 * domain holds live in a per-domain key-permission register file
 * (hw::KeyCache). The kernel assigns one key per segment; pages that
 * acquire per-page state (an override or a global mask) are promoted
 * to their own page key so one register always describes one rights
 * value exactly.
 *
 * The payoff is the revocation path: changing a domain's rights over a
 * whole segment flips the one (domain, segment-key) register --
 * registerWrite cycles -- instead of scanning and purging per-page
 * entries as the PLB and conventional systems must. The cost is a
 * bounded key space: when the kernel runs out of the config's `pkeys`
 * ids it recycles one round-robin, which *does* require dropping every
 * register and TLB entry carrying the retired key (the key-recycling
 * pressure the tests exercise).
 */

#ifndef SASOS_CORE_PKEY_SYSTEM_HH
#define SASOS_CORE_PKEY_SYSTEM_HH

#include <map>
#include <vector>

#include "core/mem_path.hh"
#include "core/system_config.hh"
#include "hw/key_cache.hh"
#include "hw/tlb.hh"
#include "os/protection_model.hh"
#include "os/vm_state.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{

/** Protection-key register-file model. */
class PkeySystem : public os::ProtectionModel
{
  public:
    PkeySystem(const SystemConfig &config, os::VmState &state,
               CycleAccount &account, stats::Group *parent);

    const char *name() const override { return "pkey"; }

    os::AccessResult access(os::DomainId domain, vm::VAddr va,
                            vm::AccessType type) override;

    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;
    void save(snap::SnapWriter &w) const override;

    /** @name Structure access for tests and benches */
    /// @{
    hw::Tlb &tlb() { return tlb_; }
    hw::KeyCache &keyCache() { return keyCache_; }
    hw::DataCache &cache() { return mem_.l1(); }
    MemoryPath &memory() { return mem_; }

    /** The key currently bound to a page (0 when unbound). */
    hw::KeyId keyOf(vm::Vpn vpn) const;
    /** Keys currently bound (segment + page bindings). */
    u64 boundKeys() const;
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar protectionDenies;
    stats::Scalar translationFaultsSeen;
    stats::Scalar keyAssignments;
    stats::Scalar keyRecycles;
    stats::Scalar pageKeyPromotions;
    stats::Scalar keyCorruptions;
    /// @}

  protected:
    void doAttach(os::DomainId domain, const vm::Segment &seg,
                  vm::Access rights) override;
    void doDetach(os::DomainId domain, const vm::Segment &seg) override;
    void doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                         vm::Access rights) override;
    void doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights) override;
    void doClearPageRightsAllDomains(vm::Vpn vpn) override;
    void doSetSegmentRights(os::DomainId domain, const vm::Segment &seg,
                            vm::Access rights) override;
    void doDomainSwitch(os::DomainId from, os::DomainId to) override;
    void doPageMapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void doDomainDestroyed(os::DomainId domain) override;
    void doSegmentDestroyed(const vm::Segment &seg) override;
    bool doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn) override;
    u64 doPurgeForAck(std::optional<os::DomainId> domain, vm::Vpn first,
                      u64 pages) override;
    void doLoad(snap::SnapReader &r) override;

  private:
    /** What a key id is bound to. */
    enum class BindKind : u8
    {
        Free = 0,
        Segment = 1,
        Page = 2,
    };

    struct KeyBinding
    {
        BindKind kind = BindKind::Free;
        u64 id = 0; // SegmentId or vpn number
    };

    void charge(CostCategory category, Cycles cycles);

    /** The key a refill for `vpn` must carry, assigning (and possibly
     * recycling) as needed. */
    hw::KeyId keyFor(vm::Vpn vpn);

    /** Bind a fresh key (recycling round-robin when the space is
     * exhausted) to (kind, id). */
    hw::KeyId allocKey(BindKind kind, u64 id);

    /** Drop every register and TLB entry carrying a key and unbind
     * it. */
    void retireKey(hw::KeyId key);

    /** Give a page its own key (first per-page state). */
    hw::KeyId promotePage(vm::Vpn vpn);

    /** Return a page key to the free list when the page no longer has
     * per-page state. */
    void maybeReleasePageKey(vm::Vpn vpn);

    /** Drop the (domain, key) registers of every promoted page in a
     * segment range (their effective rights may derive from the
     * changed grant). */
    void dropPageKeyRegisters(os::DomainId domain, vm::Vpn first,
                              u64 pages);

    /**
     * The same-page memo's payload: the previous reference's TLB and
     * register hits. Every path that may insert, evict or rewrite a
     * TLB entry or key register drops the memo first (see
     * ProtectionModel; in access() the probe miss precedes any key
     * binding or recycle), so a memo hit guarantees `entry`, both
     * replacement locations and `rights` are still live.
     */
    struct SamePageMemo
    {
        hw::TlbEntry *entry = nullptr;
        hw::AssocLoc tlbLoc{};
        hw::AssocLoc kprLoc{};
        vm::Access rights = vm::Access::None;
    };

    SystemConfig config_;
    os::VmState &state_;
    CycleAccount &account_;
    hw::Tlb tlb_;
    hw::KeyCache keyCache_;
    MemoryPath mem_;
    SamePageMemo memo_;

    /** @name Kernel key tables (serialized as the v3 "key tables") */
    /// @{
    std::map<vm::SegmentId, hw::KeyId> segKey_;
    std::map<u64, hw::KeyId> pageKey_;
    /** Index 1..pkeys; slot 0 unused (key 0 is never assigned). */
    std::vector<KeyBinding> bindings_;
    /** Round-robin recycling cursor (last victim). */
    hw::KeyId recycleCursor_ = 0;
    /// @}
};

} // namespace sasos::core

#endif // SASOS_CORE_PKEY_SYSTEM_HH
