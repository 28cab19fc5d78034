#include "core/system.hh"

#include "core/per_core_models.hh"

#include "obs/export.hh"
#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"
// Header-only use of the stream interface: core never constructs a
// stream, so this adds no link dependency on the workload library.
#include "workload/address_stream.hh"

namespace sasos::core
{

System::System(const SystemConfig &config)
    : config_(config), statsRoot_("system"),
      references(&statsRoot_, "references", "references issued"),
      failedReferences(&statsRoot_, "failedReferences",
                       "references ending in an exception"),
      state_(config.frames)
{
    model_ = makeModel(config_, state_, account_, &statsRoot_);
    plb_ = dynamic_cast<PlbSystem *>(model_.get());
    pageGroup_ = dynamic_cast<PageGroupSystem *>(model_.get());
    conventional_ = dynamic_cast<ConventionalSystem *>(model_.get());
    pkey_ = dynamic_cast<PkeySystem *>(model_.get());
    if (config_.faults.enabled) {
        injector_ = std::make_unique<fault::FaultInjector>(config_.faults,
                                                           &statsRoot_);
        model_->setInjector(injector_.get());
    }
    kernel_ = std::make_unique<os::Kernel>(state_, *model_, config_.costs,
                                           account_, &statsRoot_);
}

bool
System::access(vm::VAddr va, vm::AccessType type)
{
    ++references;
    const os::DomainId domain = kernel_->currentDomain();
    SASOS_ASSERT(domain != 0, "no current domain; create one first");
    SASOS_OBS_EVENT(obs::EventKind::AccessBegin, account_.total().count(),
                    va.raw(), domain);
    const os::AccessResult result = model_->access(domain, va, type);
    const bool ok = result.completed ||
                    kernel_->resolveAndRetry(domain, va, type, result);
    if (!ok)
        ++failedReferences;
    SASOS_OBS_EVENT(obs::EventKind::AccessEnd, account_.total().count(),
                    va.raw(), ok);
    return ok;
}

RunResult
System::run(wl::AddressStream &stream, u64 n, Rng &rng, vm::AccessType type)
{
    RunResult tally;
    for (u64 i = 0; i < n; ++i) {
        if (access(stream.next(rng), type))
            ++tally.completed;
        else
            ++tally.failed;
    }
    return tally;
}

void
System::touchRange(vm::VAddr base, u64 bytes)
{
    for (u64 offset = 0; offset < bytes; offset += vm::kPageBytes)
        load(base + offset);
}

os::Pager &
System::makePager(const os::PagerConfig &pager_config)
{
    SASOS_ASSERT(pager_ == nullptr, "system already has a pager");
    pager_ = std::make_unique<os::Pager>(*kernel_, pager_config,
                                         &statsRoot_);
    return *pager_;
}

namespace
{

/** One (name, u64) signature pair writer / checker. */
struct SignatureWriter
{
    snap::SnapWriter &w;

    void
    field(const std::string &name, u64 value)
    {
        w.putString(name);
        w.put64(value);
    }
};

struct SignatureChecker
{
    snap::SnapReader &r;

    void
    field(const std::string &name, u64 value)
    {
        const std::string image_name = r.getString();
        if (image_name != name) {
            SASOS_FATAL("snapshot mismatch: expected config field '", name,
                        "', image has '", image_name, "'");
        }
        const u64 image_value = r.get64();
        if (image_value != value) {
            SASOS_FATAL("snapshot mismatch: config field '", name, "' is ",
                        value, " here but ", image_value, " in the image");
        }
    }
};

/** Walk every geometry/policy/seed/cost knob through `sig.field`. */
template <typename Sig>
void
walkConfigSignature(Sig &&sig, const SystemConfig &config)
{
    // Every structure but the page-group cache is LRU; their policy
    // fields stay, as this constant, so images keep their bytes.
    constexpr u64 kLru = static_cast<u64>(hw::PolicyKind::Lru);
    auto cache = [&sig](const std::string &prefix,
                        const hw::DataCacheConfig &c) {
        sig.field(prefix + ".sizeBytes", c.sizeBytes);
        sig.field(prefix + ".lineBytes", c.lineBytes);
        sig.field(prefix + ".ways", c.ways);
        sig.field(prefix + ".org", static_cast<u64>(c.org));
        sig.field(prefix + ".policy", kLru);
        sig.field(prefix + ".seed", c.seed);
    };
    sig.field("model", static_cast<u64>(config.model));
    sig.field("frames", config.frames);
    sig.field("seed", config.seed);
    cache("cache", config.cache);
    sig.field("l2Enabled", config.l2Enabled ? 1 : 0);
    if (config.l2Enabled)
        cache("l2", config.l2);
    sig.field("tlb.kind", static_cast<u64>(config.tlb.kind));
    sig.field("tlb.sets", config.tlb.sets);
    sig.field("tlb.ways", config.tlb.ways);
    sig.field("tlb.policy", kLru);
    sig.field("tlb.seed", config.tlb.seed);
    sig.field("plb.sets", config.plb.sets);
    sig.field("plb.ways", config.plb.ways);
    sig.field("plb.policy", kLru);
    sig.field("plb.seed", config.plb.seed);
    sig.field("plb.sizeShifts", config.plb.sizeShifts.size());
    for (std::size_t i = 0; i < config.plb.sizeShifts.size(); ++i) {
        sig.field("plb.sizeShifts[" + std::to_string(i) + "]",
                  static_cast<u64>(config.plb.sizeShifts[i]));
    }
    // Clustered-geometry fields only when clustered: flat runs keep
    // the original signature, so golden flat images still load, while
    // any flat/clustered cross-load trips the field-name check.
    if (config.plb.clusters > 1) {
        sig.field("plb.clusters", config.plb.clusters);
        sig.field("plb.rangeShift",
                  static_cast<u64>(config.plb.rangeShift));
    }
    sig.field("pgCache.entries", config.pgCache.entries);
    sig.field("pgCache.policy", static_cast<u64>(config.pgCache.policy));
    sig.field("pgCache.seed", config.pgCache.seed);
    sig.field("keyCache.entries", config.keyCache.entries);
    sig.field("keyCache.policy", kLru);
    sig.field("keyCache.seed", config.keyCache.seed);
    sig.field("pkeys", config.pkeys);
    sig.field("eagerPgReload", config.eagerPgReload ? 1 : 0);
    sig.field("purgeTlbOnSwitch", config.purgeTlbOnSwitch ? 1 : 0);
    sig.field("flushCacheOnSwitch", config.flushCacheOnSwitch ? 1 : 0);
    sig.field("superPagePlb", config.superPagePlb ? 1 : 0);
    sig.field("faults.enabled", config.faults.enabled ? 1 : 0);
    sig.field("faults.seed", config.faults.seed);
    sig.field("faults.rateBits", std::bit_cast<u64>(config.faults.rate));
    sig.field("faults.transientGap", config.faults.transientGap);
    for (const std::string &name : config.costs.names()) {
        u64 cycles = 0;
        config.costs.get(name, cycles);
        sig.field("cost." + name, cycles);
    }
}

} // namespace

void
saveConfigSignature(snap::SnapWriter &w, const SystemConfig &config)
{
    w.putTag("config");
    walkConfigSignature(SignatureWriter{w}, config);
}

void
checkConfigSignature(snap::SnapReader &r, const SystemConfig &config)
{
    r.expectTag("config");
    walkConfigSignature(SignatureChecker{r}, config);
}

void
System::save(snap::SnapWriter &w) const
{
    w.putTag("system");
    saveConfigSignature(w, config_);
    w.putBool(pager_ != nullptr);
    if (pager_)
        w.putBool(pager_->config().compress);
    state_.save(w);
    kernel_->save(w);
    if (pager_)
        pager_->save(w);
    model_->save(w);
    w.putBool(injector_ != nullptr);
    if (injector_)
        injector_->save(w);
    account_.save(w);
    statsRoot_.save(w);
}

void
System::load(snap::SnapReader &r)
{
    r.expectTag("system");
    checkConfigSignature(r, config_);
    const bool image_pager = r.getBool();
    if (image_pager) {
        const bool compress = r.getBool();
        if (pager_ == nullptr) {
            // Construct the pager first: its construction-time domain
            // and attachments are superseded by the state overlay
            // below, and its own id is restored by pager_->load().
            makePager(os::PagerConfig{.compress = compress});
        } else if (pager_->config().compress != compress) {
            SASOS_FATAL("snapshot mismatch: pager compression ",
                        compress ? "on" : "off", " in the image but ",
                        pager_->config().compress ? "on" : "off", " here");
        }
    } else if (pager_ != nullptr) {
        SASOS_FATAL("snapshot mismatch: this system has a pager but the "
                    "image does not");
    }
    state_.load(r);
    kernel_->load(r);
    if (pager_)
        pager_->load(r);
    model_->load(r);
    const bool image_injector = r.getBool();
    if (image_injector != (injector_ != nullptr)) {
        SASOS_FATAL("snapshot mismatch: fault injector ",
                    image_injector ? "present" : "absent",
                    " in the image but ", injector_ ? "present" : "absent",
                    " here");
    }
    if (injector_)
        injector_->load(r);
    account_.load(r);
    statsRoot_.load(r);
    
}

void
System::dumpStats(std::ostream &os)
{
    statsRoot_.dump(os);
    account_.dump(os, "system.");
}

void
System::dumpStatsJson(std::ostream &os)
{
    obs::writeStatsJson(os, statsRoot_, &account_);
}

void
System::dumpStatsCsv(std::ostream &os)
{
    obs::writeStatsCsv(os, statsRoot_, &account_);
}

} // namespace sasos::core
