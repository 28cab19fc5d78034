/**
 * @file
 * Whole-simulator snapshot/restore.
 *
 * A Snapshotter serializes complete simulator state -- a System or
 * McSystem (canonical VM state, kernel, every hardware structure and
 * its replacement state, statistics, the cycle account, the fault
 * schedule position) plus any driver-owned Rngs and address streams
 * -- into one sealed, checksummed image. A Restorer overlays such an
 * image onto freshly constructed objects of the *same* configuration.
 *
 * The correctness bar is resume equivalence: run N references,
 * snapshot, restore in a fresh process, continue -- and every
 * statistic, cycle and traced event must be bit-identical to the
 * uninterrupted run. tests/snap_test.cc and bench_snap enforce this
 * for all four protection models and the multi-core engine.
 *
 * Images are untrusted input: truncations, bit flips, wrong versions
 * and hostile length fields are rejected with clean fatals by the
 * SnapReader layer (snapio.hh) and by per-section cross-checks in
 * every load() hook, never undefined behaviour.
 */

#ifndef SASOS_SNAP_SNAPSHOT_HH
#define SASOS_SNAP_SNAPSHOT_HH

#include <string>
#include <vector>

#include "sim/options.hh"
#include "sim/random.hh"
#include "snap/snapio.hh"

namespace sasos::core
{
class System;
namespace mc
{
class McSystem;
}
} // namespace sasos::core

namespace sasos::wl
{
class AddressStream;
}

namespace sasos::snap
{

/** One sealed snapshot image. */
struct Snapshot
{
    std::vector<u8> bytes;

    /** Read an image file (validated lazily, by the Restorer). */
    static Snapshot fromFile(const std::string &path);

    void toFile(const std::string &path) const;
};

/** Serializes simulator objects, in call order, into one image. */
class Snapshotter
{
  public:
    Snapshotter() = default;

    /** @name Components (restore in the same order) */
    /// @{
    void add(const core::System &system);
    void add(const core::mc::McSystem &system);
    void add(const Rng &rng);
    void add(const wl::AddressStream &stream);
    /// @}

    /** Seal the image in place. The Snapshotter is spent afterwards. */
    Snapshot finish() &&;

  private:
    SnapWriter writer_;
};

/** Overlays an image onto same-configured objects, in save order. */
class Restorer
{
  public:
    /** Validates the envelope; malformed images are clean fatals.
     * Reads the image in place, so it must outlive the Restorer. */
    explicit Restorer(const Snapshot &image);

    /** Same, taking ownership of a temporary image. */
    explicit Restorer(Snapshot &&image);

    /** @name Components (same order as the Snapshotter's add calls) */
    /// @{
    void restore(core::System &system);
    void restore(core::mc::McSystem &system);
    void restore(Rng &rng);
    void restore(wl::AddressStream &stream);
    /// @}

    /** Final check: the image must be fully consumed. */
    void finish();

  private:
    SnapReader reader_;
};

/**
 * Snapshot options shared by the benches (`snapshot_out=`,
 * `restore=`, `snapshot_every=`): write an image after the run, start
 * from an image, checkpoint periodically (references for a System
 * run, scheduling slots for an McSystem run; 0 = off).
 */
struct SnapshotOptions
{
    std::string out;
    std::string restore;
    u64 every = 0;

    static SnapshotOptions fromOptions(const Options &options);
};

} // namespace sasos::snap

#endif // SASOS_SNAP_SNAPSHOT_HH
