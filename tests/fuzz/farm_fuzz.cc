/**
 * @file
 * libFuzzer harness for the farm wire protocol.
 *
 * The input bytes are fed to three parsing surfaces:
 *  - verbatim to decodeMessage, exercising the envelope checks the
 *    frames inherit from the snapshot format (magic, version, length
 *    field, checksum64) plus the frame-level checks (tag, message
 *    kind, per-kind field decode, trailing bytes);
 *  - re-sealed as the *payload* of a well-formed envelope, so the
 *    fuzzer gets past the checksum and into the message decoder;
 *  - dribbled into a FrameBuffer in uneven chunks, exercising the
 *    coordinator's incremental reassembly and its poisoning paths.
 *
 * Malformed frames are allowed to be *rejected* -- SASOS_FATAL is
 * rerouted into an exception -- but must never crash, hang,
 * over-allocate or trip a sanitizer. Build with -DSASOS_FUZZ=ON
 * (needs Clang) and seed with the checked-in frame corpus:
 *
 *   ./farm_fuzz -max_total_time=30 corpus/ ../../tests/data/
 */

#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "farm/wire.hh"
#include "sim/logging.hh"

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

void
tryDecode(const std::vector<u8> &frame)
{
    try {
        const farm::Message message = farm::decodeMessage(frame);
        // A frame that parses must re-encode; exercise the writer on
        // fuzzer-shaped field values too.
        (void)farm::encodeMessage(message);
    } catch (const FatalRejection &) {
        // Rejection is the expected outcome for malformed frames.
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    (void)handler_installed;
    if (size > (1u << 20))
        return 0; // The interesting structure fits well under 1 MB.

    const std::vector<u8> raw(data, data + size);

    // Surface 1: the raw bytes as a frame.
    tryDecode(raw);

    // Surface 2: the bytes re-sealed as a valid envelope's payload,
    // so mutations reach the message decoder behind the checksum.
    {
        snap::SnapWriter writer;
        writer.putString(std::string_view(
            reinterpret_cast<const char *>(data), size));
        tryDecode(std::move(writer).seal());
    }

    // Surface 3: incremental reassembly through the coordinator's
    // FrameBuffer, in uneven chunks.
    {
        farm::FrameBuffer buffer;
        std::size_t off = 0;
        std::size_t chunk = 1;
        while (off < raw.size()) {
            const std::size_t n = std::min(chunk, raw.size() - off);
            buffer.feed(raw.data() + off, n);
            off += n;
            chunk = chunk * 2 + 1;
            std::vector<u8> frame;
            while (buffer.next(frame) == 1)
                tryDecode(frame);
        }
    }
    return 0;
}
