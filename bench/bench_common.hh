/**
 * @file
 * Shared plumbing for the bench binaries.
 *
 * Every bench prints its paper-artifact table(s) from key=value
 * options; none times the host (perfbench/ is the host-speed
 * benchmark).
 */

#ifndef SASOS_BENCH_BENCH_COMMON_HH
#define SASOS_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "obs/tracer.hh"
#include "sasos.hh"
#include "sim/logging.hh"

namespace sasos::bench
{

/**
 * The shared bench main(): parse key=value options, honor help=1,
 * run the paper tables under an Options-driven trace session
 * (trace=/trace_out=/trace_buf=), then warn on stderr for every key
 * the body never read. Returns the body's status.
 */
inline int
runMain(int argc, char **argv,
        const std::function<int(const Options &)> &body)
{
    Options options;
    options.parseArgs(argc, argv);
    if (options.getBool("help", false)) {
        std::cout << Options::helpText();
        return 0;
    }
    int status = 0;
    {
        obs::ScopedTrace trace(options);
        status = body(options);
    }
    for (const std::string &key : options.unusedKeys())
        warn("option '", key, "' was never used");
    return status;
}

/** Honor stats_out=FILE for a bench's primary system; the extension
 * picks the format (.csv, else JSON). */
inline void
maybeExportStats(const Options &options, core::System &sys)
{
    const std::string path = options.getString("stats_out", "");
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        SASOS_FATAL("cannot open stats_out file '", path, "'");
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
        sys.dumpStatsCsv(os);
    else
        sys.dumpStatsJson(os);
    inform("wrote stats to ", path);
}

/** A labeled machine configuration to compare. */
struct ModelUnderTest
{
    std::string label;
    core::SystemConfig config;
};

/** The paper's primary comparison set, plus the MPK-style
 * protection-key model fed through the same differential apparatus. */
inline std::vector<ModelUnderTest>
standardModels(const Options &options)
{
    std::vector<ModelUnderTest> models;
    for (core::ModelKind kind : core::allModels()) {
        models.push_back(
            {core::toString(kind),
             core::SystemConfig::fromOptions(
                 options, core::SystemConfig::forModel(kind))});
    }
    return models;
}

/** The comparison set extended with the purge-on-switch baseline and
 * the four-PID-register PA-RISC variant. */
inline std::vector<ModelUnderTest>
extendedModels(const Options &options)
{
    std::vector<ModelUnderTest> models = standardModels(options);
    models.push_back(
        {"conv-purge", core::SystemConfig::fromOptions(
                           options,
                           core::SystemConfig::purgingConventionalSystem())});
    models.push_back(
        {"pg-4regs", core::SystemConfig::fromOptions(
                         options, core::SystemConfig::pidRegisterSystem())});
    return models;
}

/** Print a section header for one artifact. */
inline void
printHeader(const std::string &artifact, const std::string &claim)
{
    std::cout << "\n==== " << artifact << " ====\n";
    if (!claim.empty())
        std::cout << claim << "\n";
    std::cout << "\n";
}

/** Per-mille-accurate ratio string ("1.00x" baseline); "-" whenever
 * the ratio is not finite (zero, NaN or infinite baseline/value), so
 * a model recording zero cycles cannot leak NaN/inf into tables. */
inline std::string
normalized(double value, double baseline)
{
    if (baseline == 0.0)
        return "-";
    const double ratio = value / baseline;
    if (!std::isfinite(ratio))
        return "-";
    return TextTable::ratio(ratio, 2);
}

/** Host-side throughput: simulated references per wall-clock second. */
inline double
refsPerSecond(u64 references, double wall_seconds)
{
    if (wall_seconds <= 0.0)
        return 0.0;
    return static_cast<double>(references) / wall_seconds;
}

/** Simulated cycles per reference; 0 when nothing was issued. */
inline double
cyclesPerRef(u64 cycles, u64 references)
{
    if (references == 0)
        return 0.0;
    return static_cast<double>(cycles) / static_cast<double>(references);
}

} // namespace sasos::bench

#endif // SASOS_BENCH_BENCH_COMMON_HH
