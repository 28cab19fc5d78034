#include "sim/options.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "sim/cost_model.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace sasos
{

namespace
{

/** True if arg is key=value whose key starts with a letter or digit
 * and holds only letters, digits, '.', '_' and '-'. */
bool
splitKeyValue(const std::string &arg, std::string &key, std::string &value)
{
    const auto eq = arg.find('=');
    if (eq == std::string::npos ||
        !std::isalnum(static_cast<unsigned char>(arg[0]))) {
        return false;
    }
    key = arg.substr(0, eq);
    for (char c : key) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
            c != '_' && c != '-') {
            return false;
        }
    }
    value = arg.substr(eq + 1);
    return true;
}

} // namespace

void
Options::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string key, value;
        if (!splitKeyValue(argv[i], key, value))
            SASOS_FATAL("argument '", argv[i], "' is not key=value");
        values_[key] = value;
    }
}

void
Options::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Options::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

u64
Options::getU64(const std::string &key, u64 def) const
{
    consumed_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    // Decimal digits only: no sign (strtoull wraps -1 to 2^64-1), no
    // blank, no 0x or leading-zero octal, and no silent overflow.
    const std::string &text = it->second;
    const char *last = text.data() + text.size();
    u64 value = 0;
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc() || end != last)
        SASOS_FATAL("option '", key, "': '", text, "' is not an int");
    return value;
}

double
Options::getDouble(const std::string &key, double def) const
{
    consumed_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0')
        SASOS_FATAL("option '", key, "': '", it->second, "' is not a number");
    return value;
}

std::string
Options::getString(const std::string &key, const std::string &def) const
{
    consumed_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

bool
Options::getBool(const std::string &key, bool def) const
{
    consumed_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "no")
        return false;
    SASOS_FATAL("option '", key, "': '", v, "' is not a bool");
}

unsigned
Options::threads() const
{
    const u64 value = getU64("threads", 0);
    if (value > 1024)
        SASOS_FATAL("option 'threads': must be at most 1024, got ", value);
    if (value != 0)
        return static_cast<unsigned>(value);
    return defaultThreads();
}

const char *
Options::helpText()
{
    return "common options (every argument is key=value):\n"
           "  model=plb|pg|conv|pkey protection architecture preset\n"
           "  threads=N              sweep worker threads, at most 1024\n"
           "                         (default: hardware concurrency;\n"
           "                         1 = serial)\n"
           "  seed=N                 top-level simulation seed\n"
           "  frames=N               physical memory frames\n"
           "  cacheKB= lineBytes= cacheWays= cacheOrg=   data cache\n"
           "  tlbEntries= tlbWays= plbEntries= pgEntries=  structures\n"
           "  eagerPg= purgeOnSwitch= flushOnSwitch= superPage=\n"
           "  cores=N                simulated cores (multi-core engine)\n"
           "  schedule_seed=N        core-interleaving schedule seed\n"
           "  mc_quantum=N           steps per scheduling turn\n"
           "  mc_ipi_delay=N         remote steps before an IPI is taken\n"
           "  faults=0|1             deterministic fault injection\n"
           "  fault_seed=N fault_rate=P fault_gap=N   injection schedule\n"
           "  trace=0|1              memory-path event tracing\n"
           "  trace_out=FILE         Perfetto JSON output\n"
           "                         (default: sasos_trace.json)\n"
           "  trace_buf=N            per-thread ring capacity, events\n"
           "  stats_out=FILE         stats export (.json or .csv)\n"
           "  farm_workers=N         sweep-farm worker processes\n"
           "  farm_checkpoint_every=N  refs between worker checkpoints\n"
           "                         (0 = no mid-cell checkpoints)\n"
           "  farm_kill_rate=P       chaos: P(one SIGKILL) per cell\n"
           "  farm_migrate_rate=P    chaos: P(preempt+migrate) per cell\n"
           "  farm_kill_seed=N       chaos schedule seed\n"
           "  farm_timeout=S farm_max_attempts=N   farm watchdog/retry\n"
           "  cost.<name>=<cycles>   cost-model override\n";
}

void
Options::applyCostOverrides(CostModel &costs) const
{
    const std::string prefix = "cost.";
    for (const auto &[key, value] : values_) {
        if (key.rfind(prefix, 0) != 0)
            continue;
        consumed_.insert(key);
        const std::string name = key.substr(prefix.size());
        char *end = nullptr;
        const u64 cycles = std::strtoull(value.c_str(), &end, 0);
        if (end == nullptr || *end != '\0')
            SASOS_FATAL("cost override '", key, "': bad value '", value, "'");
        if (!costs.set(name, cycles))
            SASOS_FATAL("unknown cost constant '", name, "'");
    }
}

std::vector<std::string>
Options::unusedKeys() const
{
    std::vector<std::string> unused;
    for (const auto &[key, value] : values_) {
        if (!consumed_.count(key))
            unused.push_back(key);
    }
    return unused;
}

} // namespace sasos
