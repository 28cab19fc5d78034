/**
 * @file
 * Experiment C13: the datacenter-scale engine (src/scale/).
 *
 * Three oracles gate the exit code:
 *
 *  1. Organization identity: the clustered PLB (banked by VPN range,
 *     shared L2 directory) must be *decision*-bit-identical to the
 *     flat PLB at every core count -- protection caching is an
 *     accelerator, so the machine's allow/deny decisions at quiescent
 *     points cannot depend on how entries are banked. Checked at
 *     cores in {1, 4, 64, 256}, both with an immediate-ack run
 *     (every reference quiescent: the full decision vector must
 *     match) and inside a deferred-IPI storm (the quiescent
 *     projection must match).
 *  2. Storm invariants: a churn-dominated 64-core shootdown storm
 *     with IPI coalescing must finish with zero stale grants outside
 *     any window and hardware a subset of canonical at quiescence.
 *  3. Population sanity: the 10^6-domain space report must show
 *     per-domain linear tables costing a multiple of the global
 *     table + protection table organization (Section 3.1's argument).
 *
 * Also reported: the stale-rights window versus core count curve and
 * the full linear-vs-global table-space measurement, both written to
 * BENCH_scale.json.
 */

#include "bench_common.hh"

#include <fstream>

#include "core/mc/mc_system.hh"
#include "obs/json.hh"
#include "scale/population.hh"
#include "scale/storm.hh"

using namespace sasos;

namespace
{

struct IdentityRow
{
    unsigned cores = 1;
    bool immediateAck = false;
    core::mc::McResult flat;
    core::mc::McResult clustered;
    bool identical = false;
};

/** Run one config to completion. */
core::mc::McResult
runOne(const core::mc::McConfig &config)
{
    core::mc::McSystem system(config);
    return system.run();
}

/**
 * The engine-level fields that must not depend on the PLB
 * organization: the interleaving (slots), the kernel-op and shootdown
 * traffic, and the quiescent allow/deny projection. Stale-window
 * outcomes may differ (different banks cache different stale
 * entries), which is exactly why only the quiescent vector is
 * canonical.
 */
bool
decisionsIdentical(const core::mc::McResult &a, const core::mc::McResult &b,
                   bool compare_totals)
{
    if (a.slots != b.slots || a.kernelOps != b.kernelOps ||
        a.shootdowns != b.shootdowns || a.acks != b.acks)
        return false;
    if (a.quiescentOutcomes != b.quiescentOutcomes)
        return false;
    if (compare_totals &&
        (a.completed != b.completed || a.failed != b.failed))
        return false;
    return a.invariantViolations == 0 && b.invariantViolations == 0 &&
           a.hwViolations == 0 && b.hwViolations == 0;
}

IdentityRow
runIdentity(u64 seed, unsigned cores, u64 refs, bool immediate_ack,
            unsigned clusters)
{
    IdentityRow row;
    row.cores = cores;
    row.immediateAck = immediate_ack;
    core::mc::McConfig flat = scale::stormConfig(cores, refs, seed);
    core::mc::McConfig clustered =
        scale::clusteredStormConfig(cores, refs, seed, clusters);
    if (immediate_ack) {
        flat.ipiDelaySteps = 0;
        clustered.ipiDelaySteps = 0;
    }
    // The per-reference invariant stays checked inside issueRef();
    // only the O(cores * pages) quiescence sweep is skipped, which is
    // what keeps the 256-core rows inside the CI runtime budget.
    if (cores >= 256) {
        flat.checkInvariants = false;
        clustered.checkInvariants = false;
    }
    row.flat = runOne(flat);
    row.clustered = runOne(clustered);
    // Immediate acks leave every reference quiescent, so the full
    // decision vector (and the completed/failed totals) must match;
    // under deferred IPIs only the quiescent projection is canonical.
    row.identical =
        decisionsIdentical(row.flat, row.clustered, immediate_ack);
    return row;
}

bool
printIdentityTable(const Options &options, std::vector<IdentityRow> &rows)
{
    bench::printHeader(
        "C13: clustered-PLB decision identity vs the flat PLB",
        "Same workload, same schedule, same seeds; the only difference "
        "is the PLB organization (1 flat bank vs 8 VPN-range banks "
        "with an L2 directory). The interleaving and the quiescent "
        "allow/deny vector must be bit-identical at every core count.");

    const u64 seed = options.getU64("seed", 1);
    TextTable table({"cores", "ack", "slots", "shootdowns",
                     "quiescent refs", "verdict"});
    bool all_ok = true;
    for (unsigned cores : {1u, 4u, 64u, 256u}) {
        const u64 refs = cores >= 64 ? (cores >= 256 ? 40 : 80) : 400;
        for (const bool immediate : {true, false}) {
            rows.push_back(
                runIdentity(seed, cores, refs, immediate, 8));
            const IdentityRow &row = rows.back();
            all_ok = all_ok && row.identical;
            table.addRow({TextTable::num(u64{cores}),
                          immediate ? "immediate" : "deferred",
                          TextTable::num(row.flat.slots),
                          TextTable::num(row.flat.shootdowns),
                          TextTable::num(u64{
                              row.flat.quiescentOutcomes.size()}),
                          row.identical ? "IDENTICAL" : "DIVERGED"});
        }
    }
    table.print(std::cout);
    std::cout << "oracle: every row IDENTICAL -> "
              << (all_ok ? "PASS" : "FAIL") << "\n";
    return all_ok;
}

struct CurveRow
{
    unsigned cores = 1;
    core::mc::McResult result;
};

bool
printStormCurve(const Options &options, std::vector<CurveRow> &rows,
                core::mc::McResult &storm64)
{
    bench::printHeader(
        "C13b: stale-rights window vs core count (coalesced storm)",
        "Churn-heavy storm (25% kernel ops, IPI flight 12 steps, "
        "coalesce window 4): every broadcast interrupts every other "
        "core, so the aggregate stale window grows with the machine. "
        "Invariants stay on at every size shown.");

    const u64 seed = options.getU64("seed", 1);
    TextTable table({"cores", "shootdowns", "acks", "coalesced",
                     "stale window refs", "stale refs/shootdown",
                     "stale grants", "latency mean"});
    bool ok = true;
    for (unsigned cores : {4u, 16u, 64u}) {
        core::mc::McConfig config = scale::clusteredStormConfig(
            cores, cores >= 64 ? 80 : 200, seed, 8);
        config.coalesceWindow = 4;
        CurveRow row;
        row.cores = cores;
        row.result = runOne(config);
        ok = ok && row.result.invariantViolations == 0 &&
             row.result.hwViolations == 0;
        if (cores == 64)
            storm64 = row.result;
        table.addRow(
            {TextTable::num(u64{cores}),
             TextTable::num(row.result.shootdowns),
             TextTable::num(row.result.acks),
             TextTable::num(row.result.coalescedAcks),
             TextTable::num(row.result.staleWindowRefs),
             TextTable::num(row.result.staleRefsPerShootdownMean, 2),
             TextTable::num(row.result.staleGrants),
             TextTable::num(row.result.shootdownLatencyMean, 1)});
        rows.push_back(std::move(row));
    }
    table.print(std::cout);
    std::cout << "oracle: zero invariant violations in every storm -> "
              << (ok ? "PASS" : "FAIL") << "\n";
    return ok;
}

bool
printPopulationTable(const Options &options, scale::SpaceReport &full)
{
    bench::printHeader(
        "C13c: page-table space at 10^6 protection domains",
        "Section 3.1 at datacenter scale: one global page table plus "
        "sparse per-domain protection tables, against per-domain "
        "linear tables (flat and two-level). Linear tables replicate "
        "every shared translation per domain and span each domain's "
        "scattered footprint.");

    TextTable table({"domains", "global PT (MB)", "prot tables (MB)",
                     "SAS total (MB)", "linear flat (MB)",
                     "linear 2-level (MB)", "dup flat", "dup 2-level"});
    bool ok = true;
    const u64 mb = u64{1} << 20;
    for (const u64 domains : {u64{10'000}, u64{1'000'000}}) {
        scale::PopulationConfig config;
        config.domains = domains;
        config.seed = options.getU64("seed", 1);
        const scale::Population population(config);
        const scale::SpaceReport report = population.spaceReport();
        if (domains == 1'000'000)
            full = report;
        // The SAS organization must win, and the gap must widen with
        // scale; at a million domains the duplication factor is the
        // paper's argument in one number.
        ok = ok && report.linearTwoLevelBytes > report.sasBytes &&
             report.flatDuplicationFactor() > 1.0;
        table.addRow(
            {TextTable::num(domains),
             TextTable::num(report.globalPageTableBytes / mb),
             TextTable::num(report.protectionTableBytes / mb),
             TextTable::num(report.sasBytes / mb),
             TextTable::num(report.linearFlatBytes / mb),
             TextTable::num(report.linearTwoLevelBytes / mb),
             TextTable::num(report.flatDuplicationFactor(), 1),
             TextTable::num(report.twoLevelDuplicationFactor(), 1)});
    }
    table.print(std::cout);
    std::cout << "oracle: per-domain linear tables cost a multiple of "
                 "the SAS organization -> "
              << (ok ? "PASS" : "FAIL") << "\n";
    return ok;
}

void
writeScaleJson(const std::string &path,
               const std::vector<IdentityRow> &identity,
               const std::vector<CurveRow> &curve,
               const scale::SpaceReport &population, bool passed)
{
    std::ofstream os(path);
    if (!os)
        SASOS_FATAL("cannot open json file '", path, "'");
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "scale");
    json.member("passed", passed);
    json.key("identity");
    json.beginArray();
    for (const IdentityRow &row : identity) {
        json.beginObject();
        json.member("cores", u64{row.cores});
        json.member("immediateAck", row.immediateAck);
        json.member("slots", row.flat.slots);
        json.member("shootdowns", row.flat.shootdowns);
        json.member("quiescentRefs",
                    u64{row.flat.quiescentOutcomes.size()});
        json.member("identical", row.identical);
        json.endObject();
    }
    json.endArray();
    json.key("staleWindowCurve");
    json.beginArray();
    for (const CurveRow &row : curve) {
        json.beginObject();
        json.member("cores", u64{row.cores});
        json.member("shootdowns", row.result.shootdowns);
        json.member("acks", row.result.acks);
        json.member("coalescedAcks", row.result.coalescedAcks);
        json.member("staleWindowRefs", row.result.staleWindowRefs);
        json.member("staleRefsPerShootdownMean",
                    row.result.staleRefsPerShootdownMean);
        json.member("staleGrants", row.result.staleGrants);
        json.member("shootdownLatencyMean",
                    row.result.shootdownLatencyMean);
        json.member("violations", row.result.invariantViolations +
                                      row.result.hwViolations);
        json.endObject();
    }
    json.endArray();
    json.key("population");
    json.beginObject();
    json.member("domains", population.domains);
    json.member("segments", population.segments);
    json.member("totalMappedPages", population.totalMappedPages);
    json.member("totalAttachments", population.totalAttachments);
    json.member("totalOverrides", population.totalOverrides);
    json.member("globalPageTableBytes", population.globalPageTableBytes);
    json.member("protectionTableBytes", population.protectionTableBytes);
    json.member("sasBytes", population.sasBytes);
    json.member("linearFlatBytes", population.linearFlatBytes);
    json.member("linearTwoLevelBytes", population.linearTwoLevelBytes);
    json.member("flatDuplicationFactor",
                population.flatDuplicationFactor());
    json.member("twoLevelDuplicationFactor",
                population.twoLevelDuplicationFactor());
    json.endObject();
    json.endObject();
    os << "\n";
    inform("wrote ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        std::vector<IdentityRow> identity;
        std::vector<CurveRow> curve;
        core::mc::McResult storm64;
        scale::SpaceReport population;
        const bool identity_ok = printIdentityTable(options, identity);
        const bool storm_ok = printStormCurve(options, curve, storm64);
        const bool population_ok =
            printPopulationTable(options, population);
        const bool passed = identity_ok && storm_ok && population_ok;
        writeScaleJson(options.getString("json", "BENCH_scale.json"),
                       identity, curve, population, passed);
        std::cout << "\nC13 verdict: " << (passed ? "PASS" : "FAIL")
                  << "\n";
        return passed ? 0 : 1;
    });
}
