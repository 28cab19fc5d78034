/**
 * @file
 * libFuzzer harness for the snapshot loader.
 *
 * The input bytes are fed to two parsing surfaces:
 *  - verbatim as a snapshot image, exercising the envelope checks
 *    (magic, version, length field, checksum64);
 *  - re-sealed as the *payload* of a well-formed envelope, so the
 *    fuzzer gets past the checksum and into the per-section decoders
 *    (tags, counts, cross-checks in every load() hook).
 *
 * Malformed images are allowed to be *rejected* -- SASOS_FATAL is
 * rerouted into an exception via setFatalHandler -- but must never
 * crash, hang, over-allocate or trip a sanitizer. Build with
 * -DSASOS_FUZZ=ON (needs Clang) and run with the checked-in golden
 * image as the seed corpus:
 *
 *   ./snap_fuzz -max_total_time=30 corpus/ ../../tests/data/
 */

#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "snap/snapshot.hh"

using namespace sasos;

namespace
{

/** Fatal-to-exception bridge, installed once per process. */
struct FatalRejection : std::exception
{
};

const bool handler_installed = [] {
    setFatalHandler([](const std::string &) -> void {
        throw FatalRejection();
    });
    return true;
}();

/** Same shape as the golden image's machine (tests/snap_test.cc), so
 * seeds from tests/data/ restore cleanly and mutations explore the
 * deep paths rather than dying on the config cross-check. */
core::SystemConfig
fuzzConfig()
{
    core::SystemConfig config = core::SystemConfig::plbSystem();
    config.frames = 1024;
    config.cache.sizeBytes = 8 * 1024;
    config.l2Enabled = false;
    return config;
}

/** Drive the full restore path; any outcome but a clean rejection or
 * a clean success is a finding. */
void
tryRestore(const snap::Snapshot &image)
{
    try {
        snap::Restorer restorer(image);
        core::System system(fuzzConfig());
        restorer.restore(system);
        Rng rng(1);
        restorer.restore(rng);
        restorer.finish();
    } catch (const FatalRejection &) {
        // Rejected cleanly; that is a pass.
    }
}

/** Wrap the input bytes as the payload of a well-formed envelope. */
snap::Snapshot
sealPayload(const uint8_t *data, size_t size)
{
    snap::Snapshot image;
    image.bytes.resize(snap::kHeaderBytes + size);
    u8 *out = image.bytes.data();
    std::memcpy(out, snap::kMagic, sizeof(snap::kMagic));
    snap::storeLe<u32>(out + 8, snap::kFormatVersion);
    // reserved[4] stays zero.
    snap::storeLe<u64>(out + 16, size);
    if (size > 0)
        std::memcpy(out + snap::kHeaderBytes, data, size);
    snap::storeLe<u64>(out + 24,
                       snap::checksum64(out + snap::kHeaderBytes, size));
    return image;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    (void)handler_installed;
    if (size > (1u << 20))
        return 0; // Big inputs only slow the fuzzer down.

    // Surface 1: the bytes as a whole image (envelope checks).
    snap::Snapshot raw;
    raw.bytes.assign(data, data + size);
    tryRestore(raw);

    // Surface 2: the bytes as a sealed payload (section decoders).
    // Seeds from tests/data/ carry their own envelope, so strip it
    // when present; mutated payloads then stay reachable.
    if (size >= snap::kHeaderBytes &&
        std::memcmp(data, snap::kMagic, sizeof(snap::kMagic)) == 0) {
        tryRestore(sealPayload(data + snap::kHeaderBytes,
                               size - snap::kHeaderBytes));
    } else {
        tryRestore(sealPayload(data, size));
    }
    return 0;
}
