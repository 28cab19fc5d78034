/**
 * @file
 * The farm's pipe protocol: length-prefixed frames reusing the
 * snapshot envelope (magic, version, payload length, checksum64;
 * snap/snapio.hh), so every message crossing a worker pipe gets the
 * same integrity guarantees as a snapshot image -- a truncated,
 * bit-flipped, over-length or wrong-version frame is rejected before
 * a single payload byte is interpreted.
 *
 * decodeMessage() treats frames as untrusted input and SASOS_FATALs
 * on any malformation (tests reroute the fatal into an exception; the
 * coordinator wraps decoding and treats a rejection as worker death).
 * Both receive paths -- the coordinator's FrameBuffer, an incremental
 * reassembler, and the worker's blocking readFrame -- check the frame
 * header (magic and a hard frame length ceiling) in one place before
 * buffering a frame's payload, so a hostile or corrupt length field
 * cannot drive a huge allocation.
 */

#ifndef SASOS_FARM_WIRE_HH
#define SASOS_FARM_WIRE_HH

#include <string>
#include <vector>

#include "farm/campaign.hh"
#include "snap/snapio.hh"

namespace sasos::farm
{

/** Refuse frames longer than this (hostile length-field backstop;
 * checkpoint images of farm-sized machines are a few hundred KB). */
constexpr u64 kMaxFrameBytes = u64{1} << 28;

/** Every message crossing a farm pipe. Value 4 belonged to a retired
 * out-of-band Preempt message and is rejected like any unknown kind;
 * the other values are fixed by the checked-in frame corpus. */
enum class MsgKind : u8
{
    /** worker -> coordinator: ready for work. */
    Hello = 1,
    /** coordinator -> worker: run this cell from the start. */
    Assign = 2,
    /** coordinator -> worker: resume this cell from the attached
     * checkpoint image at the attached progress point. */
    Resume = 3,
    /** worker -> coordinator: a checkpoint image (every
     * checkpointEvery references, or the one image of a preemptFirst
     * order, flagged by `stopped`). */
    Image = 5,
    /** worker -> coordinator: the cell's finished CellResult. */
    Done = 6,
    /** coordinator -> worker: exit cleanly. */
    Shutdown = 7,
};

/** One decoded farm message; which fields are meaningful depends on
 * the kind (see MsgKind). */
struct Message
{
    MsgKind kind = MsgKind::Hello;
    /** Hello: the worker's index in the farm. */
    u64 worker = 0;
    /** Assign/Resume/Image/Done: the cell's stable id. */
    u64 cell = 0;
    /** Assign/Resume: checkpoint cadence in references (0 = none). */
    u64 checkpointEvery = 0;
    /** Resume/Image: progress tally travelling beside the image. */
    u64 refsDone = 0;
    u64 completed = 0;
    u64 failed = 0;
    /** Assign/Resume: checkpoint once, ship it stopped, and drop the
     * cell -- the farm's one way to stop a running cell. Riding in
     * the order itself makes seeded migration deterministic. */
    bool preemptFirst = false;
    /** Image: the worker dropped the cell (a preemptFirst order). */
    bool stopped = false;
    /** Resume/Image: a sealed snapshot image (snap envelope). */
    std::vector<u8> image;
    /** Done: the finished cell. */
    CellResult result;
};

/** Seal a message into one wire frame. */
std::vector<u8> encodeMessage(const Message &message);

/** Parse one frame. Every malformation -- bad envelope, unknown or
 * retired kind, bad tag, trailing bytes, hostile counts -- is a
 * SASOS_FATAL naming the problem. */
Message decodeMessage(const std::vector<u8> &frame);

/**
 * Incremental frame reassembly over a nonblocking fd's read chunks.
 * feed() appends bytes; next() extracts complete frames. The header
 * is validated (magic, length ceiling) as soon as it is complete;
 * a violation poisons the buffer permanently -- framing is lost, so
 * the peer cannot be trusted again.
 */
class FrameBuffer
{
  public:
    void feed(const u8 *data, std::size_t size);

    /** @return 1: a frame was extracted into `frame`; 0: need more
     * bytes; -1: poisoned (error() names why). */
    int next(std::vector<u8> &frame);

    bool poisoned() const { return poisoned_; }
    const std::string &error() const { return error_; }

    /** Bytes buffered but not yet extracted. */
    std::size_t pending() const { return buffer_.size() - consumed_; }

  private:
    std::vector<u8> buffer_;
    std::size_t consumed_ = 0;
    bool poisoned_ = false;
    std::string error_;
};

/** @name Fd plumbing
 * Blocking helpers for the worker side (and coordinator writes).
 * Writes return false when the peer is gone (EPIPE with SIGPIPE
 * ignored); reads distinguish a clean EOF from a mid-frame cut.
 */
/// @{
enum class ReadStatus
{
    Frame,
    Eof,
    Error,
};

/** Write one frame, retrying short writes. */
bool writeFrame(int fd, const std::vector<u8> &frame);

/** Read exactly one frame (blocking). Eof only at a frame boundary;
 * a mid-frame cut or malformed header is Error with `err` set. */
ReadStatus readFrame(int fd, std::vector<u8> &frame, std::string &err);
/// @}

} // namespace sasos::farm

#endif // SASOS_FARM_WIRE_HH
