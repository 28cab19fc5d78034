/**
 * @file
 * Minimal key=value option handling for benches and examples.
 *
 * Every command-line argument must have the form `<key>=<value>`;
 * anything else (a bare word, a `--flag`) is fatal. Typed getters
 * return defaults for absent keys, and keys no getter consumed are
 * reported (unusedKeys()) so typos do not silently fall back to
 * defaults.
 */

#ifndef SASOS_SIM_OPTIONS_HH
#define SASOS_SIM_OPTIONS_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sasos
{

class CostModel;

/** Parsed key=value options with typed access. */
class Options
{
  public:
    Options() = default;

    /**
     * Parse argv[1..argc) as key=value options. An argument that is
     * not key=value (the key starts with a letter or digit) is fatal
     * and the message names it.
     */
    void parseArgs(int argc, char **argv);

    /** Insert or replace a single key. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed getters; record the key as consumed. */
    u64 getU64(const std::string &key, u64 def) const;
    double getDouble(const std::string &key, double def) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * The `threads=` key: worker count for parallel sweep drivers.
     * Defaults to the hardware concurrency; `threads=1` forces the
     * serial path (the determinism baseline). Above 1024 (the bound
     * `cores=` uses) is fatal.
     */
    unsigned threads() const;

    /** One line per common key, for benches' usage text. */
    static const char *helpText();

    /**
     * Apply every `cost.<name>=<value>` option to a cost model.
     * Unknown cost names are fatal (user error).
     */
    void applyCostOverrides(CostModel &costs) const;

    /** Keys that were parsed but never consumed by a getter. */
    std::vector<std::string> unusedKeys() const;

  private:
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> consumed_;
};

} // namespace sasos

#endif // SASOS_SIM_OPTIONS_HH
