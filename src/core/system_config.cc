#include "core/system_config.hh"

#include "sim/logging.hh"

namespace sasos::core
{

const char *
toString(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Plb:
        return "plb";
      case ModelKind::PageGroup:
        return "page-group";
      case ModelKind::Conventional:
        return "conventional";
      case ModelKind::Pkey:
        return "pkey";
    }
    return "?";
}

ModelKind
parseModelKind(const std::string &name)
{
    if (name == "plb")
        return ModelKind::Plb;
    if (name == "pg" || name == "page-group" || name == "pagegroup")
        return ModelKind::PageGroup;
    if (name == "conv" || name == "conventional")
        return ModelKind::Conventional;
    if (name == "pkey" || name == "protection-key" || name == "mpk")
        return ModelKind::Pkey;
    SASOS_FATAL("unknown protection model '", name, "'");
}

namespace
{

/** Shared L2 default: 1 MB, 64 B lines, 4-way, physically indexed. */
hw::DataCacheConfig
defaultL2()
{
    hw::DataCacheConfig l2;
    l2.sizeBytes = 1024 * 1024;
    l2.lineBytes = 64;
    l2.ways = 4;
    l2.org = hw::CacheOrg::Pipt;
    return l2;
}

} // namespace

SystemConfig
SystemConfig::plbSystem()
{
    SystemConfig config;
    config.model = ModelKind::Plb;
    config.l2 = defaultL2();
    config.cache.org = hw::CacheOrg::Vivt;
    // The PLB replaces the on-chip TLB; the translation TLB moves to
    // the second level and can be larger (Section 3.2.1).
    config.plb.sets = 1;
    config.plb.ways = 128;
    // Page-grain plus super-page protection blocks up to 1 GB, so a
    // single entry can cover an aligned segment (Section 4.3).
    config.plb.sizeShifts = {vm::kPageShift};
    for (int shift = vm::kPageShift + 1; shift <= 30; ++shift)
        config.plb.sizeShifts.push_back(shift);
    config.tlb.kind = hw::TlbKind::TranslationOnly;
    config.tlb.sets = 1;
    config.tlb.ways = 512;
    return config;
}

SystemConfig
SystemConfig::pageGroupSystem()
{
    SystemConfig config;
    config.model = ModelKind::PageGroup;
    config.l2 = defaultL2();
    // PA-RISC style: on-chip combined TLB, virtually indexed
    // physically tagged cache, LRU cache of page-groups.
    config.cache.org = hw::CacheOrg::Vipt;
    config.tlb.kind = hw::TlbKind::PageGroup;
    config.tlb.sets = 1;
    config.tlb.ways = 128; // same entry count as the PLB (Section 4)
    config.pgCache.entries = 16;
    config.pgCache.policy = hw::PolicyKind::Lru;
    return config;
}

SystemConfig
SystemConfig::pidRegisterSystem()
{
    SystemConfig config = pageGroupSystem();
    // The original architecture: four registers, no LRU information.
    config.pgCache.entries = 4;
    config.pgCache.policy = hw::PolicyKind::Random;
    return config;
}

SystemConfig
SystemConfig::conventionalSystem()
{
    SystemConfig config;
    config.model = ModelKind::Conventional;
    config.l2 = defaultL2();
    config.cache.org = hw::CacheOrg::Vipt;
    config.tlb.kind = hw::TlbKind::Conventional;
    config.tlb.sets = 1;
    config.tlb.ways = 128;
    return config;
}

SystemConfig
SystemConfig::purgingConventionalSystem()
{
    SystemConfig config = conventionalSystem();
    config.purgeTlbOnSwitch = true;
    return config;
}

SystemConfig
SystemConfig::flushingVcacheSystem()
{
    SystemConfig config = conventionalSystem();
    config.cache.org = hw::CacheOrg::Vivt;
    config.purgeTlbOnSwitch = true;
    config.flushCacheOnSwitch = true;
    return config;
}

SystemConfig
SystemConfig::pkeySystem()
{
    SystemConfig config;
    config.model = ModelKind::Pkey;
    config.l2 = defaultL2();
    // MPK style: untagged on-chip TLB whose entries carry a key id,
    // virtually indexed physically tagged cache, and a register file
    // of (domain, key) permissions consulted in parallel.
    config.cache.org = hw::CacheOrg::Vipt;
    config.tlb.kind = hw::TlbKind::Pkey;
    config.tlb.sets = 1;
    config.tlb.ways = 128; // same entry count as the PLB (Section 4)
    config.keyCache.entries = 64;
    config.pkeys = 16;
    return config;
}

SystemConfig
SystemConfig::forModel(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Plb:
        return plbSystem();
      case ModelKind::PageGroup:
        return pageGroupSystem();
      case ModelKind::Conventional:
        return conventionalSystem();
      case ModelKind::Pkey:
        return pkeySystem();
    }
    SASOS_PANIC("unreachable");
}

SystemConfig
SystemConfig::fromOptions(const Options &options, const SystemConfig &base)
{
    SystemConfig config = base;
    if (options.has("model"))
        config = forModel(parseModelKind(options.getString("model", "")));

    config.cache.sizeBytes =
        options.getU64("cacheKB", config.cache.sizeBytes / 1024) * 1024;
    config.cache.lineBytes = static_cast<u32>(
        options.getU64("lineBytes", config.cache.lineBytes));
    config.cache.ways =
        static_cast<u32>(options.getU64("cacheWays", config.cache.ways));
    if (options.has("cacheOrg")) {
        const std::string org = options.getString("cacheOrg", "");
        if (org == "vivt")
            config.cache.org = hw::CacheOrg::Vivt;
        else if (org == "vipt")
            config.cache.org = hw::CacheOrg::Vipt;
        else if (org == "pipt")
            config.cache.org = hw::CacheOrg::Pipt;
        else
            SASOS_FATAL("unknown cache organization '", org, "'");
    }

    config.tlb.ways = options.getU64("tlbEntries", config.tlb.entries()) /
                      config.tlb.sets;
    config.plb.ways = options.getU64("plbEntries", config.plb.entries()) /
                      config.plb.sets;
    config.plb.clusters = static_cast<unsigned>(
        options.getU64("plb_clusters", config.plb.clusters));
    if (config.plb.clusters < 1 || config.plb.clusters > 256)
        SASOS_FATAL("plb_clusters must be in [1, 256], got ",
                    config.plb.clusters);
    config.plb.rangeShift = static_cast<int>(
        options.getU64("plb_range_shift",
                       static_cast<u64>(config.plb.rangeShift)));
    if (config.plb.rangeShift < 0 || config.plb.rangeShift > 28)
        SASOS_FATAL("plb_range_shift must be in [0, 28], got ",
                    config.plb.rangeShift);
    if (config.plb.clusters > 1 && config.plb.ways < config.plb.clusters)
        SASOS_FATAL("plbEntries (", config.plb.entries(),
                    ") must be at least plb_clusters (",
                    config.plb.clusters, "): each bank needs an entry");
    config.pgCache.entries =
        options.getU64("pgEntries", config.pgCache.entries);
    config.keyCache.entries =
        options.getU64("kprEntries", config.keyCache.entries);
    config.pkeys = options.getU64("pkeys", config.pkeys);
    if (config.pkeys < 2)
        SASOS_FATAL("pkeys must be at least 2, got ", config.pkeys);

    config.l2Enabled = options.getBool("l2", config.l2Enabled);
    config.l2.sizeBytes =
        options.getU64("l2KB", config.l2.sizeBytes / 1024) * 1024;

    config.eagerPgReload = options.getBool("eagerPg", config.eagerPgReload);
    config.purgeTlbOnSwitch =
        options.getBool("purgeOnSwitch", config.purgeTlbOnSwitch);
    config.flushCacheOnSwitch =
        options.getBool("flushOnSwitch", config.flushCacheOnSwitch);
    config.superPagePlb = options.getBool("superPage", config.superPagePlb);
    if (config.superPagePlb) {
        // Allow a generous set of power-of-two super-page protection
        // blocks alongside the base page size.
        config.plb.sizeShifts = {vm::kPageShift};
        for (int shift = vm::kPageShift + 1; shift <= 30; ++shift)
            config.plb.sizeShifts.push_back(shift);
    }

    config.frames = options.getU64("frames", config.frames);
    config.seed = options.getU64("seed", config.seed);
    config.cache.seed = config.seed;
    config.tlb.seed = config.seed + 1;
    config.plb.seed = config.seed + 2;
    config.pgCache.seed = config.seed + 3;
    config.keyCache.seed = config.seed + 4;

    config.faults.enabled = options.getBool("faults", config.faults.enabled);
    config.faults.seed = options.getU64("fault_seed", config.faults.seed);
    config.faults.rate = options.getDouble("fault_rate", config.faults.rate);
    if (config.faults.rate < 0.0 || config.faults.rate > 1.0)
        SASOS_FATAL("fault_rate must be in [0, 1], got ",
                    config.faults.rate);
    config.faults.transientGap =
        options.getU64("fault_gap", config.faults.transientGap);

    options.applyCostOverrides(config.costs);
    return config;
}

} // namespace sasos::core
