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

    /** Drop the same-page memo (see ProtectionModel::dropMemo). */
    void dropMemo() override { memo_.valid = false; }

    void onAttach(os::DomainId domain, const vm::Segment &seg,
                  vm::Access rights) override;
    void onDetach(os::DomainId domain, const vm::Segment &seg) override;
    void onSetPageRights(os::DomainId domain, vm::Vpn vpn,
                         vm::Access rights) override;
    void onSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights) override;
    void onClearPageRightsAllDomains(vm::Vpn vpn) override;
    void onSetSegmentRights(os::DomainId domain, const vm::Segment &seg,
                            vm::Access rights) override;
    void onDomainSwitch(os::DomainId from, os::DomainId to) override;
    void onPageMapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void onPageUnmapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void onDomainDestroyed(os::DomainId domain) override;
    void onSegmentDestroyed(const vm::Segment &seg) override;
    bool refreshAfterFault(os::DomainId domain, vm::Vpn vpn) override;
    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;
    u64 purgeForAck(std::optional<os::DomainId> domain, vm::Vpn first,
                    u64 pages) override;

    void save(snap::SnapWriter &w) const override;
    void load(snap::SnapReader &r) override;

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

    /** Apply one injected perturbation to this machine's structures.
     * @return true if the reference must raise a transient fault. */
    bool applyPerturbation(const fault::Perturbation &p);

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
     * The same-page memo: the previous reference's TLB and register
     * hits. Every path that may insert, evict or rewrite a TLB entry
     * or key register drops it first (a probe miss, which precedes
     * any key binding or recycle, every hook, injected perturbations
     * and dropMemo()), so a match guarantees `entry`, both
     * replacement locations and `rights` are still live.
     */
    struct SamePageMemo
    {
        bool valid = false;
        os::DomainId domain = 0;
        u64 vpn = 0;
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
