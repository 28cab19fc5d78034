/**
 * @file
 * perfbench command line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --golden FILE --scratch DIR [--commit C] [--src-digest D]
 *   perfbench --pin --golden FILE --scratch DIR
 *
 * A run prints a manifest line, a human-readable summary and, as its
 * last line, one JSON object {correct, attempted, failed, metrics}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the run measures every round both untraced and traced, then probes
 * each layer, and reports the per-layer metrics plus the tracing
 * overhead. --pin rewrites the golden digests.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench.hh"

namespace perfbench
{

Golden
readGolden(const std::string &path)
{
    Golden golden;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, hex;
        if (fields >> key >> hex)
            golden[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return golden;
}

namespace
{

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    std::string golden;
    std::string scratch;
    std::string commit = "unknown";
    std::string srcDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --golden FILE --scratch DIR\n"
                 "       perfbench --pin --golden FILE --scratch DIR\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--pin") {
            args.pin = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--golden")
            args.golden = value;
        else if (flag == "--scratch")
            args.scratch = value;
        else if (flag == "--commit")
            args.commit = value;
        else if (flag == "--src-digest")
            args.srcDigest = value;
        else
            usage("unknown flag " + flag);
    }
    if (args.golden.empty() || args.scratch.empty())
        usage("--golden and --scratch are required");
    if (!args.pin && !(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

/** Nearest-rank percentile of unsorted samples. */
double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printManifest(const Args &args)
{
    std::cout << "# manifest {\"commit\": " << jsonString(args.commit)
              << ", \"src_digest\": " << jsonString(args.srcDigest)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"host_threads\": 1"
              << ", \"workload\": " << jsonString(args.workload)
              << ", \"seed\": " << args.seed
              << ", \"seconds\": " << number(args.seconds)
              << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";
}

/** Round `r`, recorded in the tally; returns its seconds. */
double
timedRound(Workload &workload, u64 r, Tally &tally)
{
    Tally::Round round;
    round.refs = tally.refs;
    round.firstOp = tally.opUs.size();
    const auto start = Clock::now();
    workload.round(r, tally);
    round.seconds = secondsSince(start);
    round.refs = tally.refs - round.refs;
    round.endOp = tally.opUs.size();
    tally.rounds.push_back(round);
    return round.seconds;
}

/** Time a set-up of `workload`, appending its seconds to `setups`. */
void
timedSetup(Workload &workload, u64 seed, std::vector<double> &setups)
{
    const auto start = Clock::now();
    workload.setup(seed);
    setups.push_back(secondsSince(start));
}

/**
 * The rounds refs_per_s is taken over: the fastest ones, by refs per
 * second, until they hold an eighth of the run's ops. Other tenants of
 * a shared host slow whole stretches of a run by up to 1.5x; the
 * fastest rounds track the program's own speed, which a slower program
 * lowers in every round.
 */
std::vector<Tally::Round>
fastestRounds(const Tally &tally)
{
    std::vector<Tally::Round> rounds = tally.rounds;
    std::sort(rounds.begin(), rounds.end(),
              [](const auto &a, const auto &b) { return a.rate() > b.rate(); });
    const std::size_t want = tally.opUs.size() / 8;
    std::size_t ops = 0;
    std::size_t keep = 0;
    do {
        ops += rounds[keep].endOp - rounds[keep].firstOp;
    } while (++keep < rounds.size() && ops < want);
    rounds.resize(keep);
    return rounds;
}

/**
 * The op times op_p50_us and op_p99_us are taken over: one per
 * distinct op of the run (a cell slice or a gate call of the input
 * pool), the fastest of its repetitions. Repetitions are spread over
 * the whole run, so, like the fastest rounds, this keeps the program's
 * own cost of each op and drops the host's slow stretches; a p99 over
 * single samples ranks those stretches instead.
 */
std::vector<double>
perOpTimes(const Tally &tally)
{
    std::map<u64, double> fastest;
    for (std::size_t i = 0; i < tally.opUs.size(); ++i) {
        const auto [it, fresh] =
            fastest.try_emplace(tally.opKey[i], tally.opUs[i]);
        if (!fresh)
            it->second = std::min(it->second, tally.opUs[i]);
    }
    std::vector<double> times;
    for (const auto &[key, us] : fastest)
        times.push_back(us);
    return times;
}

/** Per-layer metrics read off the recorded spans (mean per call). */
void
spanMetrics(Metrics &out)
{
    const struct
    {
        const char *span;
        const char *metric;
        double scale;
    } rows[] = {
        {"fault.campaign", "fault.campaign_ms", 1e-6},
        {"scenario.oracle", "scenario.oracle_ms", 1e-6},
        {"scenario.build", "scenario.build_ms", 1e-6},
        {"mc.explore", "mc.explore_ms", 1e-6},
        {"core.dump_stats", "core.dump_stats_us", 1e-3},
        {"snap.save", "snap.save_us", 1e-3},
        {"snap.restore", "snap.restore_us", 1e-3},
        {"farm.encode", "farm.encode_us", 1e-3},
        {"farm.decode", "farm.decode_us", 1e-3},
        {"farm.reassemble", "farm.reassemble_us", 1e-3},
    };
    const std::map<std::string, LayerTime> layers = layerTimes();
    for (const auto &row : rows) {
        const auto it = layers.find(row.span);
        if (it == layers.end() || it->second.calls == 0)
            continue;
        out[row.metric].value = it->second.totalNs /
                                static_cast<double>(it->second.calls) *
                                row.scale;
    }
}

int
pinAll(const Args &args)
{
    std::ofstream os(args.golden);
    if (!os)
        usage("cannot write " + args.golden);
    os << "# Pinned digests of every perfbench input: stats dump, simCycles"
          " and\n# verdicts per sweep cell and gate call. Regenerate with"
          " run.py --pin\n# only when a change is meant to alter simulated"
          " results.\n";
    const Golden none;
    for (const std::string &name : workloadNames()) {
        const auto start = Clock::now();
        std::unique_ptr<Workload> workload =
            makeWorkload(name, none, args.scratch);
        const auto pins = workload->pin();
        for (const auto &[key, value] : pins) {
            char hex[32];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(value));
            os << key << " " << hex << "\n";
        }
        std::cerr << "pinned " << pins.size() << " " << name
                  << " digests in " << secondsSince(start) << " s\n";
    }
    return 0;
}

int
runWorkload(const Args &args)
{
    const Golden golden = readGolden(args.golden);
    if (golden.empty())
        usage("no digests in " + args.golden);
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, golden, args.scratch);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");
    printManifest(args);

    setTracing(args.trace);
    std::vector<double> setups;
    timedSetup(*workload, args.seed, setups);
    setTracing(false);
    workload->warmUp();

    Tally tally;
    Metrics metrics;
    if (!args.trace) {
        // setup_s is the median of many set-ups: the one above and one
        // of a spare instance after every round, so that set-ups see
        // the same host conditions as the rounds.
        std::unique_ptr<Workload> spare =
            makeWorkload(args.workload, golden, args.scratch);
        const auto start = Clock::now();
        u64 r = 0;
        do {
            timedRound(*workload, r++, tally);
            timedSetup(*spare, args.seed, setups);
        } while (secondsSince(start) < args.seconds);

        const std::vector<Tally::Round> fast = fastestRounds(tally);
        u64 refs = 0;
        double seconds = 0.0;
        for (const Tally::Round &round : fast) {
            refs += round.refs;
            seconds += round.seconds;
        }
        const std::vector<double> ops = perOpTimes(tally);
        metrics["refs_per_s"] = {static_cast<double>(refs) / seconds, "1/s"};
        metrics["op_p50_us"] = {percentile(ops, 50.0), "us"};
        metrics["op_p99_us"] = {percentile(ops, 99.0), "us"};
        metrics["setup_s"] = {median(setups), "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};

        std::vector<double> rates;
        u64 all_refs = 0;
        double all_seconds = 0.0;
        for (const Tally::Round &round : tally.rounds) {
            rates.push_back(round.rate());
            all_refs += round.refs;
            all_seconds += round.seconds;
        }
        std::cout << "# " << args.workload << ": refs/s over the "
                  << fast.size() << " fastest of " << tally.rounds.size()
                  << " rounds; op times over " << ops.size()
                  << " distinct ops, each the fastest of its "
                  << number(static_cast<double>(tally.opUs.size()) /
                            static_cast<double>(ops.size()))
                  << " repetitions on average (" << tally.opUs.size()
                  << " op samples); " << setups.size()
                  << " set-ups\n# all rounds: " << all_refs
                  << " simulated refs in " << number(all_seconds)
                  << " s, refs/s " << number(all_refs / all_seconds)
                  << ", single-sample op p50 "
                  << number(percentile(tally.opUs, 50.0)) << " us, p99 "
                  << number(percentile(tally.opUs, 99.0))
                  << " us; refs/s per round min "
                  << number(percentile(rates, 0.0)) << " median "
                  << number(median(rates)) << " max "
                  << number(percentile(rates, 100.0)) << "\n";
    } else {
        // Every round runs twice, untraced and traced, which goes first
        // alternating, so both sides do equal work under the same host
        // conditions and their ratio is the tracing overhead.
        Tally untraced;
        double plain = 0.0;
        double traced = 0.0;
        const auto start = Clock::now();
        u64 r = 0;
        do {
            for (int side = 0; side < 2; ++side) {
                const bool on = (r + side) % 2 == 1;
                setTracing(on);
                (on ? traced : plain) +=
                    timedRound(*workload, r, on ? tally : untraced);
            }
            ++r;
        } while (secondsSince(start) < args.seconds);
        setTracing(true);
        workload->probeLayers(metrics);
        spanMetrics(metrics);
        setTracing(false);
        const double plain_rps = static_cast<double>(untraced.refs) / plain;
        const double traced_rps = static_cast<double>(tally.refs) / traced;
        metrics["trace.untraced_refs_per_s"].value = plain_rps;
        metrics["trace.traced_refs_per_s"].value = traced_rps;
        metrics["trace.overhead"].value = plain_rps / traced_rps;
        tally.opUs.insert(tally.opUs.end(), untraced.opUs.begin(),
                          untraced.opUs.end());
        tally.opKey.insert(tally.opKey.end(), untraced.opKey.begin(),
                           untraced.opKey.end());
        tally.refs += untraced.refs;
        if (untraced.failed)
            tally.fail(untraced.failed, untraced.firstFailure);
        // Every per-layer metric appears; 0 marks a layer this
        // workload never calls.
        Metrics layers;
        for (const auto &[name, unit] : layerMetricNames()) {
            const auto it = metrics.find(name);
            layers[name] = {it == metrics.end() ? 0.0 : it->second.value,
                            unit};
        }
        metrics = std::move(layers);
        const std::string stem = args.scratch + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed);
        writeChromeTrace(stem + ".json");
        writeSelfTimeTable(stem + ".selftime.txt");
        std::cout << "# trace: " << spans().size() << " spans -> " << stem
                  << ".json, self times -> " << stem << ".selftime.txt\n";
        std::ifstream table(stem + ".selftime.txt");
        for (std::string line; std::getline(table, line);)
            std::cout << "#   " << line << "\n";
    }

    if (!tally.firstFailure.empty())
        std::cout << "# FAILED: " << tally.firstFailure << "\n";
    for (const auto &[name, metric] : metrics) {
        std::cout << "# " << name << " = " << number(metric.value) << " "
                  << metric.unit << "\n";
    }

    std::ostringstream json;
    json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << tally.opUs.size()
         << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        json << (first ? "" : ", ") << jsonString(name)
             << ": {\"value\": " << number(metric.value)
             << ", \"unit\": " << jsonString(metric.unit) << "}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    return args.pin ? perfbench::pinAll(args) : perfbench::runWorkload(args);
}
