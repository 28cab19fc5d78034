/**
 * @file
 * Binary snapshot encoding: a versioned, checksummed envelope around a
 * stream of explicitly-encoded fields.
 *
 * The format is deliberately dumb. Every field is written on its own
 * in a fixed little-endian width -- never by memcpy of a struct -- so
 * the byte stream contains no padding, no host endianness and no libc
 * container internals, and two runs that reach the same simulator
 * state produce bit-identical images. Section boundaries carry string
 * tags so a reader that drifts out of phase with the writer fails on
 * the next tag instead of silently misinterpreting payload.
 *
 * SnapReader treats the image as untrusted input: the envelope
 * (magic, version, payload length, checksum64) is validated by
 * preflightEnvelope before any payload byte is interpreted, every
 * read is bounds checked, counts are sanity checked against the bytes
 * remaining before any allocation, and every violation is a
 * SASOS_FATAL with a message naming what was wrong -- truncation,
 * corruption or hostile length fields end the process (or reach the
 * installed fatal handler), never undefined behaviour.
 */

#ifndef SASOS_SNAP_SNAPIO_HH
#define SASOS_SNAP_SNAPIO_HH

#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sasos::snap
{

/** First eight bytes of every snapshot image. */
constexpr char kMagic[8] = {'S', 'A', 'S', 'O', 'S', 'N', 'A', 'P'};

/** Current format version; bumped on any incompatible change.
 * v2: frame refcounts in the allocator image, CoW page set in the
 * kernel image, shared frames allowed in the page table.
 * v3: protection-key model (key tables, key-permission register file)
 * and the kprRefill/keyAssign cost constants in config signatures.
 * v4: the frame allocator writes the refcounts below its never-used
 * run and the stack of freed frames, not an allocation bitmap and the
 * explicit free list over its whole capacity, so images scale with
 * the frames a machine touched.
 * v5: the envelope checksum is checksum64, hashed by the 8-byte word,
 * in place of a byte-serial FNV-1a. */
constexpr u32 kFormatVersion = 5;

/** Envelope size: magic[8] version[4] reserved[4] length[8] sum[8]. */
constexpr std::size_t kHeaderBytes = 32;

/** Refuse images larger than this (hostile length-field backstop). */
constexpr u64 kMaxImageBytes = u64{1} << 30;

/** Marker byte preceding every section tag. */
constexpr u8 kTagMarker = 0xA5;

// The codec copies each field's bytes as they sit in memory, which is
// the little-endian encoding only on a little-endian host. Every
// supported build target is one, so there is no byte-swapping path.
static_assert(std::endian::native == std::endian::little,
              "snapshot fields are stored in host byte order");

/** Little-endian load of a fixed-width unsigned field. */
template <typename T>
inline T
loadLe(const u8 *in)
{
    T v{};
    std::memcpy(&v, in, sizeof(T));
    return v;
}

/** Little-endian store of a fixed-width unsigned field. */
template <typename T>
inline void
storeLe(u8 *out, T v)
{
    std::memcpy(out, &v, sizeof(T));
}

namespace detail
{

/** xxHash64's five 64-bit primes; all are odd, so multiplying by one
 * is a bijection mod 2^64. */
constexpr u64 kSumP1 = 0x9E3779B185EBCA87ull;
constexpr u64 kSumP2 = 0xC2B2AE3D27D4EB4Full;
constexpr u64 kSumP3 = 0x165667B19E3779F9ull;
constexpr u64 kSumP4 = 0x85EBCA77C2B2AE63ull;
constexpr u64 kSumP5 = 0x27D4EB2F165667C5ull;

/** One lane step: a bijection of the lane for a fixed word and of
 * the word for a fixed lane (odd multipliers, add, rotate). */
inline u64
sumRound(u64 lane, u64 word)
{
    return std::rotl(lane + word * kSumP2, 31) * kSumP1;
}

} // namespace detail

/**
 * The envelope checksum (format v5): 64 bits over a byte range, hashed
 * by the 8-byte word in the shape of xxHash64. Whole 32-byte stripes
 * feed four independent multiply-rotate lanes, one word each; the
 * lanes fold into the running value in sequence (h = h*P1 + lane);
 * then the 0-31 tail bytes are mixed in as 8-byte words, one 4-byte
 * word and single bytes; an xorshift-multiply finalizer ends it.
 *
 * Every step is a bijection of the state that a changed word or tail
 * byte reaches: for the other inputs fixed, a lane step is injective
 * in its word and bijective in its lane, each fold and tail step is
 * injective in its input and bijective in h, and the finalizer is
 * bijective. So two inputs of the same length that differ only inside
 * one aligned 8-byte word, or only in the tail, always hash
 * differently -- every single-bit flip is caught, not just most.
 */
inline u64
checksum64(const u8 *data, std::size_t size)
{
    using namespace detail;
    const u8 *p = data;
    const u8 *const end = data + size;
    u64 a = kSumP1 + kSumP2;
    u64 b = kSumP2;
    u64 c = 0;
    u64 d = 0 - kSumP1;
    for (; end - p >= 32; p += 32) {
        a = sumRound(a, loadLe<u64>(p));
        b = sumRound(b, loadLe<u64>(p + 8));
        c = sumRound(c, loadLe<u64>(p + 16));
        d = sumRound(d, loadLe<u64>(p + 24));
    }
    u64 h = static_cast<u64>(size) + kSumP5;
    h = h * kSumP1 + a;
    h = h * kSumP1 + b;
    h = h * kSumP1 + c;
    h = h * kSumP1 + d;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ sumRound(0, loadLe<u64>(p)), 27) * kSumP1 + kSumP4;
    if (end - p >= 4) {
        h = std::rotl(h ^ (u64{loadLe<u32>(p)} * kSumP1), 23) * kSumP2 +
            kSumP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ (u64{*p} * kSumP5), 11) * kSumP1;
    h ^= h >> 33;
    h *= kSumP2;
    h ^= h >> 29;
    h *= kSumP3;
    h ^= h >> 32;
    return h;
}

/**
 * The envelope check, the only one: SnapReader's constructor fatals
 * with its text, and images that arrive over an untrusted transport
 * (the sweep farm's worker pipes) call it directly so a bad one is
 * rejected *without* ending the receiving process -- a coordinator
 * preflights every checkpoint image before accepting it as a resume
 * point and again before handing it to another worker. Returns an
 * empty string when the envelope (size, magic, version, reserved
 * field, payload length, checksum64) is well-formed, else a
 * description of the first violation. Payload sections are validated
 * by the reader's bounds checks and the restore-side cross-checks.
 */
inline std::string
preflightEnvelope(std::span<const u8> image)
{
    if (image.size() > kMaxImageBytes)
        return "image of " + std::to_string(image.size()) +
               " bytes is larger than the " +
               std::to_string(kMaxImageBytes) + "-byte maximum";
    if (image.size() < kHeaderBytes)
        return "image truncated: " + std::to_string(image.size()) +
               " bytes is smaller than the " +
               std::to_string(kHeaderBytes) + "-byte header";
    if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
        return "bad magic";
    const u32 version = loadLe<u32>(image.data() + 8);
    if (version != kFormatVersion)
        return "unsupported format version " + std::to_string(version) +
               " (this build reads version " +
               std::to_string(kFormatVersion) + ")";
    if (loadLe<u32>(image.data() + 12) != 0)
        return "nonzero reserved header field";
    const u64 length = loadLe<u64>(image.data() + 16);
    if (length != image.size() - kHeaderBytes)
        return "header claims " + std::to_string(length) +
               " payload bytes, image carries " +
               std::to_string(image.size() - kHeaderBytes);
    if (loadLe<u64>(image.data() + 24) !=
        checksum64(image.data() + kHeaderBytes,
                   image.size() - kHeaderBytes))
        return "checksum mismatch";
    return {};
}

/** Appends explicitly-encoded fields to an image buffer whose first
 * kHeaderBytes are reserved for the envelope; seal() fills them in. */
class SnapWriter
{
  public:
    SnapWriter() : image_(kHeaderBytes) {}

    void
    put8(u8 v)
    {
        image_.push_back(v);
    }

    void
    put16(u16 v)
    {
        putLe(v);
    }

    void
    put32(u32 v)
    {
        putLe(v);
    }

    void
    put64(u64 v)
    {
        putLe(v);
    }

    void
    putBool(bool v)
    {
        put8(v ? 1 : 0);
    }

    void
    putDouble(double v)
    {
        put64(std::bit_cast<u64>(v));
    }

    void
    putString(std::string_view s)
    {
        putBytes(std::span<const u8>(
            reinterpret_cast<const u8 *>(s.data()), s.size()));
    }

    /** A byte string, in the same encoding as putString. */
    void
    putBytes(std::span<const u8> bytes)
    {
        SASOS_ASSERT(bytes.size() <= 0xFFFFFFFFu, "string too long");
        put32(static_cast<u32>(bytes.size()));
        image_.insert(image_.end(), bytes.begin(), bytes.end());
    }

    /** Section boundary: marker byte + name, checked by expectTag. */
    void
    putTag(std::string_view name)
    {
        put8(kTagMarker);
        putString(name);
    }

    /** Fill in the envelope and hand over the image, without copying
     * the payload. The writer is spent afterwards. */
    std::vector<u8>
    seal() &&
    {
        SASOS_ASSERT(image_.size() >= kHeaderBytes, "SnapWriter sealed twice");
        u8 *const head = image_.data();
        const u64 length = image_.size() - kHeaderBytes;
        std::memcpy(head, kMagic, sizeof(kMagic));
        storeLe<u32>(head + 8, kFormatVersion);
        storeLe<u32>(head + 12, 0);
        storeLe<u64>(head + 16, length);
        storeLe<u64>(head + 24, checksum64(head + kHeaderBytes, length));
        return std::move(image_);
    }

  private:
    /** Append v little-endian, in one resize. */
    template <typename T>
    void
    putLe(T v)
    {
        const std::size_t at = image_.size();
        image_.resize(at + sizeof(T));
        storeLe(image_.data() + at, v);
    }

    std::vector<u8> image_;
};

/** Sequential, bounds-checked reader over an untrusted image. The
 * constructor validates the whole envelope; every malformed input is
 * a SASOS_FATAL, never undefined behaviour. */
class SnapReader
{
  public:
    /** Reads the caller's bytes in place; they must outlive the
     * reader. */
    explicit SnapReader(std::span<const u8> image) : image_(image)
    {
        validate();
    }

    /** Takes ownership of a temporary image. */
    explicit SnapReader(std::vector<u8> &&image)
        : owned_(std::move(image)), image_(owned_)
    {
        validate();
    }

    // image_ may point into owned_.
    SnapReader(const SnapReader &) = delete;
    SnapReader &operator=(const SnapReader &) = delete;

    u8
    get8()
    {
        need(1);
        return image_[pos_++];
    }

    u16
    get16()
    {
        return getLe<u16>();
    }

    u32
    get32()
    {
        return getLe<u32>();
    }

    u64
    get64()
    {
        return getLe<u64>();
    }

    bool
    getBool()
    {
        const u8 v = get8();
        if (v > 1)
            SASOS_FATAL("corrupt snapshot: boolean field holds ",
                        static_cast<unsigned>(v));
        return v != 0;
    }

    double
    getDouble()
    {
        return std::bit_cast<double>(get64());
    }

    std::string
    getString()
    {
        const std::span<const u8> bytes = getByteSpan();
        return std::string(reinterpret_cast<const char *>(bytes.data()),
                           bytes.size());
    }

    /** A byte string written by putBytes (or putString). */
    std::vector<u8>
    getBytes()
    {
        const std::span<const u8> bytes = getByteSpan();
        return std::vector<u8>(bytes.begin(), bytes.end());
    }

    /** Read a section tag and fail unless it is `name` -- the
     * reader's phase check against the writer. */
    void
    expectTag(std::string_view name)
    {
        if (get8() != kTagMarker)
            SASOS_FATAL("corrupt snapshot: expected section '", name,
                        "'");
        const std::span<const u8> tag = getByteSpan();
        const std::string_view found(
            reinterpret_cast<const char *>(tag.data()), tag.size());
        if (found != name)
            SASOS_FATAL("corrupt snapshot: expected section '", name,
                        "', found '", found, "'");
    }

    /**
     * Read an element count and reject it unless `count *
     * min_element_bytes` could still fit in the remaining payload --
     * so a hostile count cannot drive a huge allocation.
     */
    u64
    getCount(u64 min_element_bytes = 1)
    {
        const u64 count = get64();
        SASOS_ASSERT(min_element_bytes > 0, "zero element size");
        if (count > remaining() / min_element_bytes)
            SASOS_FATAL("corrupt snapshot: count ", count,
                        " exceeds the ", remaining(), " bytes remaining");
        return count;
    }

    std::size_t
    remaining() const
    {
        return image_.size() - pos_;
    }

    /** Final check: every payload byte must have been consumed. */
    void
    finish() const
    {
        if (pos_ != image_.size())
            SASOS_FATAL("corrupt snapshot: ", image_.size() - pos_,
                        " trailing payload bytes");
    }

  private:
    void
    validate() const
    {
        const std::string bad = preflightEnvelope(image_);
        if (!bad.empty())
            SASOS_FATAL("snapshot rejected: ", bad);
    }

    /** One bounds check per fixed-width field. */
    template <typename T>
    T
    getLe()
    {
        need(sizeof(T));
        const T v = loadLe<T>(image_.data() + pos_);
        pos_ += sizeof(T);
        return v;
    }

    /** A u32 length and that many bytes, viewed in place. */
    std::span<const u8>
    getByteSpan()
    {
        const u32 size = get32();
        need(size);
        const std::span<const u8> bytes = image_.subspan(pos_, size);
        pos_ += size;
        return bytes;
    }

    void
    need(std::size_t n)
    {
        if (n > remaining())
            SASOS_FATAL("snapshot truncated: need ", n, " bytes, ",
                        remaining(), " left");
    }

    std::vector<u8> owned_;
    std::span<const u8> image_;
    std::size_t pos_ = kHeaderBytes;
};

} // namespace sasos::snap

#endif // SASOS_SNAP_SNAPIO_HH
