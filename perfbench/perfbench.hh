/**
 * @file
 * Host-speed benchmark of the simulator: shared declarations.
 *
 * The benchmark drives the simulator only through its public calls and
 * times each layer from outside, so it changes no simulated result.
 * Every workload runs closed-loop rounds of fixed work on one host
 * thread until the run length is used up; simulated outputs are
 * checked against digests pinned in golden.txt.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace perfbench
{

using sasos::u32;
using sasos::u64;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nanoseconds between two time points. */
inline double
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** FNV-1a over a byte string: the digest pinned per cell or gate. */
u64 digest(const std::string &bytes, u64 seed = 0xcbf29ce484222325ull);

/** @name Spans
 * The traced run keeps one record per layer call in memory (name,
 * start, end, parent span, op id) and writes them at exit as
 * Chrome/Perfetto trace JSON plus a per-layer self-time table. With
 * tracing off a Span is a single branch.
 */
/// @{
struct SpanRecord
{
    const char *name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    u64 op = 0;
};

/** Turn span recording on or off (off by default). */
void setTracing(bool on);
bool tracing();

/** Op id stamped on spans opened from now on. */
void setCurrentOp(u64 op);

/** All spans recorded so far, in open order. */
const std::vector<SpanRecord> &spans();

/** Total and self time (ns) and call count per span name. */
struct LayerTime
{
    u64 calls = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};
std::map<std::string, LayerTime> layerTimes();

/** Write the spans as Chrome trace-event JSON. */
void writeChromeTrace(const std::string &path);
/** Write the per-layer self-time table. */
void writeSelfTimeTable(const std::string &path);

/** RAII span around one layer call. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index_ = -1;
};
/// @}

/** A metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** What the measured loop accumulates. */
struct Tally
{
    /** Simulated references completed. */
    u64 refs = 0;
    /** Host time of every op, microseconds. */
    std::vector<double> opUs;
    /** Which op each opUs entry timed: a cell slice or a gate call.
     * The same input op run again in a later round has the same key. */
    std::vector<u64> opKey;

    /** Record one op's host time under its key. */
    void
    addOp(u64 key, double us)
    {
        opKey.push_back(key);
        opUs.push_back(us);
    }

    /** One round: its refs, host seconds and ops (opUs[firstOp, endOp)). */
    struct Round
    {
        u64 refs = 0;
        double seconds = 0.0;
        std::size_t firstOp = 0;
        std::size_t endOp = 0;

        double rate() const { return static_cast<double>(refs) / seconds; }
    };
    std::vector<Round> rounds;
    /** Ops whose simulated output failed its check. */
    u64 failed = 0;
    /** First check failure, for the report. */
    std::string firstFailure;

    void
    fail(u64 ops, const std::string &why)
    {
        failed += ops;
        if (firstFailure.empty())
            firstFailure = why;
    }
};

/** Pinned digests: key -> digest, as read from golden.txt. */
using Golden = std::map<std::string, u64>;
Golden readGolden(const std::string &path);

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the generated inputs (and first systems) from the
     * workload seed, from scratch. Called several times; each call
     * replaces the last. Timed as setup_s. */
    virtual void setup(u64 seed) = 0;

    /** One untimed op that warms the host side. */
    virtual void warmUp() = 0;

    /** Round `r` of the seeded schedule, fixed work; appends op times,
     * refs and failures. A round may be run more than once. */
    virtual void round(u64 r, Tally &tally) = 0;

    /** Traced run only: standalone layer probes over this workload's
     * own inputs, and layer metrics derived from the run's spans. */
    virtual void probeLayers(Metrics &out) = 0;

    /** Every digest of the workload's input pool, as golden.txt
     * lines "<key> <hex digest>". */
    virtual std::vector<std::pair<std::string, u64>> pin() = 0;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload by name; null when unknown. `scratch` is a
 * directory inside the checkout for the files the gates write.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Golden &golden,
                                       const std::string &scratch);

/** @name Layer probes (layers.cc) */
/// @{
struct VpnTrace
{
    /** Virtual addresses in reference order. */
    std::vector<u64> addrs;
    /** Store flags, parallel to addrs. */
    std::vector<bool> stores;
};

/**
 * Replay an address sequence through standalone hw structures of the
 * four presets' geometry, timing each lookup/insert/access/fill.
 * Adds hw.{tlb,plb,pgcache,keycache,dcache}.* to `out`.
 */
void probeHardware(const VpnTrace &trace, Metrics &out);

/** Time Tlb::purgeRange and Plb::purgeDomain on structures filled
 * from the sequence. Adds hw.tlb.purge_range_us, hw.plb.purge_domain_us. */
void probePurges(const VpnTrace &trace, Metrics &out);

/** Fold a stats dump's tlb/plb/dcache miss counts into `misses`. */
struct MissCounts
{
    u64 refs = 0;
    u64 tlb = 0;
    u64 plb = 0;
    u64 dcache = 0;
};
void addMisses(const std::string &stats_dump, u64 refs, MissCounts &misses);
void reportMisses(const MissCounts &misses, Metrics &out);

/** The per-layer metric names, each present in every traced result
 * (0 when the workload never calls that layer). */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();
/// @}

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
