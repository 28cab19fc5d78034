/**
 * @file
 * Configuration for a simulated machine + kernel (a "system").
 *
 * Presets exist for the four protection architectures; every knob can
 * be overridden individually or through Options key=value pairs (see
 * fromOptions), which is how the benches expose parameter sweeps.
 */

#ifndef SASOS_CORE_SYSTEM_CONFIG_HH
#define SASOS_CORE_SYSTEM_CONFIG_HH

#include <array>
#include <string>

#include "fault/fault.hh"
#include "hw/data_cache.hh"
#include "hw/key_cache.hh"
#include "hw/pagegroup_cache.hh"
#include "hw/plb.hh"
#include "hw/tlb.hh"
#include "sim/cost_model.hh"
#include "sim/options.hh"

namespace sasos::core
{

/** Which protection architecture the system implements. */
enum class ModelKind
{
    /** Domain-page model: PLB + VIVT cache + off-chip TLB. */
    Plb,
    /** Page-group model: combined on-chip TLB + page-group cache. */
    PageGroup,
    /** Multiple-address-space baseline: ASID-tagged TLB. */
    Conventional,
    /** Protection-key model: untagged TLB carrying key ids + a
     * per-domain key-permission register file (MPK style). */
    Pkey,
};

/** Every protection architecture, in the order the oracles, the
 * explorer and the benches list them. */
constexpr std::array<ModelKind, 4>
allModels()
{
    return {ModelKind::Plb, ModelKind::PageGroup, ModelKind::Conventional,
            ModelKind::Pkey};
}

const char *toString(ModelKind kind);
ModelKind parseModelKind(const std::string &name);

/** Full machine + kernel configuration. */
struct SystemConfig
{
    ModelKind model = ModelKind::Plb;

    hw::DataCacheConfig cache;
    /** Optional second-level cache (physically indexed and tagged).
     * The PLB system's off-chip translation TLB sits alongside its
     * controller (Section 3.2.1). */
    bool l2Enabled = true;
    hw::DataCacheConfig l2;
    hw::TlbConfig tlb;
    hw::PlbConfig plb;
    hw::PageGroupCacheConfig pgCache;
    hw::KeyCacheConfig keyCache;

    /** Pkey model: size of the protection-key id space the kernel
     * assigns from; exhausting it forces key recycling. */
    u64 pkeys = 16;

    /** Page-group model: eagerly reload the page-group cache on a
     * domain switch instead of faulting entries in (Section 4.1.4). */
    bool eagerPgReload = false;
    /** Conventional model: no ASID tags; purge the TLB on switches. */
    bool purgeTlbOnSwitch = false;
    /** Conventional model with a virtually indexed cache: flush the
     * data cache on domain switches to avoid homonyms, as multiple
     * address space systems must (Section 2.2, e.g. the i860). A
     * single address space system never needs this. */
    bool flushCacheOnSwitch = false;
    /** PLB model: allow one super-page entry to cover an aligned
     * segment (Section 4.3). */
    bool superPagePlb = true;

    /** Physical memory size in frames. */
    u64 frames = u64{1} << 18; // 1 GB of 4 KB frames
    u64 seed = 42;

    /** Deterministic fault-injection schedule (off by default). */
    fault::FaultConfig faults;

    CostModel costs;

    /** Preset for the paper's PLB system (Figure 1). */
    static SystemConfig plbSystem();
    /** Preset for the page-group system (Figure 2 + LRU PID cache). */
    static SystemConfig pageGroupSystem();
    /** Preset for the original PA-RISC with four PID registers. */
    static SystemConfig pidRegisterSystem();
    /** Preset for the conventional ASID-tagged baseline. */
    static SystemConfig conventionalSystem();
    /** Preset for a conventional machine that purges on switches. */
    static SystemConfig purgingConventionalSystem();
    /** Preset for a multiple-address-space machine with a virtually
     * indexed, virtually tagged cache: it must flush the cache and
     * purge the untagged TLB on every process switch to avoid
     * homonyms (Section 2.2; the i860's requirement). */
    static SystemConfig flushingVcacheSystem();
    /** Preset for the protection-key (MPK-style) system. */
    static SystemConfig pkeySystem();

    /** Preset chosen by ModelKind. */
    static SystemConfig forModel(ModelKind kind);

    /**
     * Apply option overrides (model=, cacheKB=, lineBytes=,
     * cacheWays=, cacheOrg=, tlbEntries=, tlbWays=, plbEntries=,
     * pgEntries=, kprEntries=, pkeys=, eagerPg=, purgeOnSwitch=,
     * superPage=, frames=, seed=, faults=, fault_seed=, fault_rate=,
     * cost.* ...). Starts from the preset for `model=` if given, else
     * from *this.
     */
    static SystemConfig fromOptions(const Options &options,
                                    const SystemConfig &base);
};

} // namespace sasos::core

#endif // SASOS_CORE_SYSTEM_CONFIG_HH
