/**
 * @file
 * Standalone layer probes: a workload's own address sequence replayed
 * through hw structures of the presets' geometry, each call timed.
 */

#include <algorithm>
#include <set>
#include <sstream>

#include "core/system_config.hh"
#include "hw/data_cache.hh"
#include "hw/key_cache.hh"
#include "hw/pagegroup_cache.hh"
#include "hw/plb.hh"
#include "hw/tlb.hh"
#include "perfbench.hh"

namespace perfbench
{

namespace
{

using namespace sasos;

const core::ModelKind kModels[] = {core::ModelKind::Plb,
                                   core::ModelKind::PageGroup,
                                   core::ModelKind::Conventional,
                                   core::ModelKind::Pkey};

/** Median cost of one back-to-back pair of clock reads, subtracted
 * from every per-call sample below. */
double
clockOverheadNs()
{
    std::vector<double> samples;
    for (int i = 0; i < 2001; ++i) {
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        samples.push_back(nanosBetween(t0, t1));
    }
    std::nth_element(samples.begin(), samples.begin() + 1000, samples.end());
    return samples[1000];
}

/** Per-call mean of timed samples, net of clock overhead. */
struct CallTimer
{
    double overheadNs = 0.0;
    double ns = 0.0;
    u64 calls = 0;

    template <typename Fn>
    auto
    time(Fn &&fn)
    {
        const auto t0 = Clock::now();
        auto result = fn();
        ns += nanosBetween(t0, Clock::now()) - overheadNs;
        ++calls;
        return result;
    }

    double
    mean() const
    {
        return calls ? std::max(0.0, ns / static_cast<double>(calls)) : 0.0;
    }
};

/** Page-group / protection key of a page in the replay: groups of 16
 * consecutive pages, 32 groups or 15 keys in rotation; 8 domains of
 * 256 pages each for the key registers. */
hw::GroupId
groupOf(u64 vpn)
{
    return static_cast<hw::GroupId>(1 + (vpn >> 4) % 32);
}

hw::KeyId
keyOf(u64 vpn)
{
    return static_cast<hw::KeyId>(1 + (vpn >> 4) % 15);
}

hw::DomainId
domainOf(u64 vpn)
{
    return static_cast<hw::DomainId>(1 + (vpn >> 8) % 8);
}

std::vector<u64>
distinctPages(const VpnTrace &trace)
{
    std::vector<u64> pages;
    std::set<u64> seen;
    for (const u64 addr : trace.addrs) {
        const u64 vpn = addr >> vm::kPageShift;
        if (seen.insert(vpn).second)
            pages.push_back(vpn);
    }
    return pages;
}

} // namespace

void
probeHardware(const VpnTrace &trace, Metrics &out)
{
    const double overhead = clockOverheadNs();
    CallTimer tlb_lookup{overhead}, tlb_insert{overhead};
    CallTimer plb_lookup{overhead}, plb_insert{overhead};
    CallTimer pg_lookup{overhead}, key_lookup{overhead};
    CallTimer dc_access{overhead}, dc_fill{overhead};

    for (const core::ModelKind kind : kModels) {
        const core::SystemConfig config = core::SystemConfig::forModel(kind);
        stats::Group root("probe");
        hw::Tlb tlb(config.tlb, &root);
        hw::DataCache dcache(config.cache, &root);
        for (std::size_t i = 0; i < trace.addrs.size(); ++i) {
            const vm::VAddr va(trace.addrs[i]);
            const vm::Vpn vpn = vm::pageOf(va);
            hw::TlbEntry *hit =
                tlb_lookup.time([&] { return tlb.lookup(vpn, 1); });
            if (hit == nullptr) {
                hw::TlbEntry entry;
                entry.pfn = vm::Pfn(vpn.number());
                entry.rights = vm::Access::ReadWrite;
                entry.asid = 1;
                entry.aid = groupOf(vpn.number());
                tlb_insert.time([&] {
                    tlb.insert(vpn, entry);
                    return 0;
                });
            }
            const vm::PAddr pa(trace.addrs[i]);
            const bool store = trace.stores[i];
            const bool present = dc_access.time(
                [&] { return dcache.access(va, pa, store); });
            if (!present)
                dc_fill.time([&] { return dcache.fill(va, pa, store); });
        }
    }

    stats::Group root("probe");
    hw::Plb plb(core::SystemConfig::plbSystem().plb, &root);
    hw::PageGroupCache pgcache(core::SystemConfig::pageGroupSystem().pgCache,
                               &root);
    hw::KeyCache keys(core::SystemConfig::pkeySystem().keyCache, &root);
    for (const u64 addr : trace.addrs) {
        const vm::VAddr va(addr);
        const u64 vpn = addr >> vm::kPageShift;
        const auto match =
            plb_lookup.time([&] { return plb.lookup(1, va); });
        if (!match) {
            plb_insert.time([&] {
                plb.insert(1, va, vm::kPageShift, vm::Access::ReadWrite);
                return 0;
            });
        }
        if (!pg_lookup.time([&] { return pgcache.lookup(groupOf(vpn)); }))
            pgcache.insert(groupOf(vpn));
        if (!key_lookup.time(
                [&] { return keys.lookup(domainOf(vpn), keyOf(vpn)); }))
            keys.insert(domainOf(vpn), keyOf(vpn), vm::Access::ReadWrite);
    }

    out["hw.tlb.lookup_ns"] = {tlb_lookup.mean(), "ns"};
    out["hw.tlb.insert_ns"] = {tlb_insert.mean(), "ns"};
    out["hw.plb.lookup_ns"] = {plb_lookup.mean(), "ns"};
    out["hw.plb.insert_ns"] = {plb_insert.mean(), "ns"};
    out["hw.pgcache.lookup_ns"] = {pg_lookup.mean(), "ns"};
    out["hw.keycache.lookup_ns"] = {key_lookup.mean(), "ns"};
    out["hw.dcache.access_ns"] = {dc_access.mean(), "ns"};
    out["hw.dcache.fill_ns"] = {dc_fill.mean(), "ns"};
}

void
probePurges(const VpnTrace &trace, Metrics &out)
{
    const std::vector<u64> pages = distinctPages(trace);
    if (pages.empty())
        return;
    const u64 first = *std::min_element(pages.begin(), pages.end());
    const u64 last = *std::max_element(pages.begin(), pages.end());
    const u64 span = std::max<u64>(1, (last - first + 1) / 4);
    constexpr int kReps = 200;

    CallTimer purge_range{clockOverheadNs()};
    CallTimer purge_domain{purge_range.overheadNs};
    stats::Group root("probe");
    hw::Tlb tlb(core::SystemConfig::conventionalSystem().tlb, &root);
    hw::Plb plb(core::SystemConfig::plbSystem().plb, &root);
    for (int rep = 0; rep < kReps; ++rep) {
        // Refill to capacity from the sequence's pages, then purge: a
        // quarter of the touched range from the TLB, one of three
        // domains from the PLB.
        for (std::size_t i = 0; i < pages.size() && tlb.occupancy() <
                                                          tlb.capacity();
             ++i) {
            const hw::DomainId asid = static_cast<hw::DomainId>(1 + i % 3);
            if (tlb.peek(vm::Vpn(pages[i]), asid))
                continue;
            hw::TlbEntry entry;
            entry.pfn = vm::Pfn(pages[i]);
            entry.rights = vm::Access::ReadWrite;
            entry.asid = asid;
            tlb.insert(vm::Vpn(pages[i]), entry);
        }
        for (std::size_t i = 0; i < pages.size() && plb.occupancy() <
                                                          plb.capacity();
             ++i) {
            plb.insert(static_cast<hw::DomainId>(1 + i % 3),
                       vm::baseOf(vm::Vpn(pages[i])), vm::kPageShift,
                       vm::Access::ReadWrite);
        }
        const u64 from = first + (static_cast<u64>(rep) * span) %
                                     (last - first + 1);
        purge_range.time([&] {
            return tlb.purgeRange(std::nullopt, vm::Vpn(from), span);
        });
        purge_domain.time([&] {
            return plb.purgeDomain(static_cast<hw::DomainId>(1 + rep % 3));
        });
    }
    out["hw.tlb.purge_range_us"] = {purge_range.mean() / 1e3, "us"};
    out["hw.plb.purge_domain_us"] = {purge_domain.mean() / 1e3, "us"};
}

void
addMisses(const std::string &stats_dump, u64 refs, MissCounts &misses)
{
    misses.refs += refs;
    std::istringstream is(stats_dump);
    std::string name;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        u64 value = 0;
        if (!(fields >> name >> value))
            continue;
        auto endsWith = [&](const char *suffix) {
            return name.ends_with(suffix);
        };
        if (endsWith(".tlb.misses") || endsWith(".tlb2.misses"))
            misses.tlb += value;
        else if (endsWith(".plb.misses"))
            misses.plb += value;
        else if (endsWith(".dcache.misses"))
            misses.dcache += value;
    }
}

void
reportMisses(const MissCounts &misses, Metrics &out)
{
    if (misses.refs == 0)
        return;
    const double krefs = static_cast<double>(misses.refs) / 1000.0;
    out["hw.tlb.miss_per_kref"] = {static_cast<double>(misses.tlb) / krefs,
                                   "1/kref"};
    out["hw.plb.miss_per_kref"] = {static_cast<double>(misses.plb) / krefs,
                                   "1/kref"};
    out["hw.dcache.miss_per_kref"] = {
        static_cast<double>(misses.dcache) / krefs, "1/kref"};
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"hw.tlb.lookup_ns", "ns"},
        {"hw.tlb.insert_ns", "ns"},
        {"hw.plb.lookup_ns", "ns"},
        {"hw.plb.insert_ns", "ns"},
        {"hw.pgcache.lookup_ns", "ns"},
        {"hw.keycache.lookup_ns", "ns"},
        {"hw.dcache.access_ns", "ns"},
        {"hw.dcache.fill_ns", "ns"},
        {"hw.tlb.purge_range_us", "us"},
        {"hw.plb.purge_domain_us", "us"},
        {"hw.tlb.miss_per_kref", "1/kref"},
        {"hw.plb.miss_per_kref", "1/kref"},
        {"hw.dcache.miss_per_kref", "1/kref"},
        {"vm.pagetable.lookup_ns", "ns"},
        {"vm.prot.effective_rights_ns", "ns"},
        {"workload.next_ns", "ns"},
        {"core.run_ns_per_ref", "ns"},
        {"core.run_self_ns_per_ref", "ns"},
        {"core.dump_stats_us", "us"},
        {"os.kernel.switch_us", "us"},
        {"os.kernel.attach_us", "us"},
        {"os.kernel.detach_us", "us"},
        {"os.kernel.page_rights_us", "us"},
        {"os.kernel.fork_cow_us", "us"},
        {"scenario.ref_ns", "ns"},
        {"scenario.build_ms", "ms"},
        {"scenario.oracle_ms", "ms"},
        {"fault.campaign_ms", "ms"},
        {"fault.injected_over_clean", "ratio"},
        {"trace.replay_ns_per_record", "ns"},
        {"mc.explore_ms", "ms"},
        {"snap.save_us", "us"},
        {"snap.restore_us", "us"},
        {"snap.image_kb", "KiB"},
        {"farm.encode_us", "us"},
        {"farm.decode_us", "us"},
        {"farm.reassemble_us", "us"},
        {"trace.untraced_refs_per_s", "1/s"},
        {"trace.traced_refs_per_s", "1/s"},
        {"trace.overhead", "ratio"},
    };
    return names;
}

} // namespace perfbench
