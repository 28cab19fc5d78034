#include "farm/wire.hh"

#include <cerrno>
#include <cstring>
#include <optional>
#include <unistd.h>

namespace sasos::farm
{

namespace
{

constexpr char kFrameTag[] = "farm.msg";

/** Check a frame header (its first snap::kHeaderBytes): the snapshot
 * magic and a payload length under the frame ceiling. The envelope's
 * version and checksum wait for decodeMessage. @return the payload
 * length, or nullopt with `err` naming the violation. */
std::optional<u64>
payloadLength(const u8 *head, std::string &err)
{
    if (std::memcmp(head, snap::kMagic, sizeof(snap::kMagic)) != 0) {
        err = "frame header has bad magic";
        return std::nullopt;
    }
    const u64 length = snap::loadLe<u64>(head + 16);
    if (length > kMaxFrameBytes - snap::kHeaderBytes) {
        err = "frame header claims " + std::to_string(length) +
              " payload bytes, over the ceiling";
        return std::nullopt;
    }
    return length;
}

} // namespace

std::vector<u8>
encodeMessage(const Message &message)
{
    snap::SnapWriter w;
    w.putTag(kFrameTag);
    w.put8(static_cast<u8>(message.kind));
    switch (message.kind) {
      case MsgKind::Hello:
        w.put64(message.worker);
        break;
      case MsgKind::Assign:
        w.put64(message.cell);
        w.put64(message.checkpointEvery);
        w.putBool(message.preemptFirst);
        break;
      case MsgKind::Resume:
        w.put64(message.cell);
        w.put64(message.checkpointEvery);
        w.putBool(message.preemptFirst);
        w.put64(message.refsDone);
        w.put64(message.completed);
        w.put64(message.failed);
        w.putBytes(message.image);
        break;
      case MsgKind::Image:
        w.put64(message.cell);
        w.put64(message.refsDone);
        w.put64(message.completed);
        w.put64(message.failed);
        w.putBool(message.stopped);
        w.putBytes(message.image);
        break;
      case MsgKind::Done:
        w.put64(message.cell);
        w.putString(message.result.model);
        w.putString(message.result.workload);
        w.put64(message.result.seed);
        w.put64(message.result.references);
        w.put64(message.result.completed);
        w.put64(message.result.failed);
        w.put64(message.result.simCycles);
        w.putString(message.result.statsDump);
        w.putDouble(message.result.wallSeconds);
        w.putDouble(message.result.refsPerSec);
        break;
      case MsgKind::Shutdown:
        break;
    }
    return std::move(w).seal();
}

Message
decodeMessage(const std::vector<u8> &frame)
{
    if (frame.size() > kMaxFrameBytes)
        SASOS_FATAL("farm frame of ", frame.size(),
                    " bytes exceeds the ", kMaxFrameBytes, "-byte ceiling");
    snap::SnapReader r(frame);
    r.expectTag(kFrameTag);
    const u8 kind = r.get8();
    Message message;
    message.kind = static_cast<MsgKind>(kind);
    switch (message.kind) {
      case MsgKind::Hello:
        message.worker = r.get64();
        break;
      case MsgKind::Assign:
        message.cell = r.get64();
        message.checkpointEvery = r.get64();
        message.preemptFirst = r.getBool();
        break;
      case MsgKind::Resume:
        message.cell = r.get64();
        message.checkpointEvery = r.get64();
        message.preemptFirst = r.getBool();
        message.refsDone = r.get64();
        message.completed = r.get64();
        message.failed = r.get64();
        message.image = r.getBytes();
        break;
      case MsgKind::Image:
        message.cell = r.get64();
        message.refsDone = r.get64();
        message.completed = r.get64();
        message.failed = r.get64();
        message.stopped = r.getBool();
        message.image = r.getBytes();
        break;
      case MsgKind::Done:
        message.cell = r.get64();
        message.result.id = message.cell;
        message.result.model = r.getString();
        message.result.workload = r.getString();
        message.result.seed = r.get64();
        message.result.references = r.get64();
        message.result.completed = r.get64();
        message.result.failed = r.get64();
        message.result.simCycles = r.get64();
        message.result.statsDump = r.getString();
        message.result.wallSeconds = r.getDouble();
        message.result.refsPerSec = r.getDouble();
        break;
      case MsgKind::Shutdown:
        break;
      default:
        SASOS_FATAL("farm frame carries unknown message kind ",
                    static_cast<unsigned>(kind));
    }
    r.finish();
    return message;
}

void
FrameBuffer::feed(const u8 *data, std::size_t size)
{
    if (poisoned_)
        return;
    // Compact once the consumed prefix dominates, so a long-lived
    // worker connection does not grow the buffer without bound.
    if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

int
FrameBuffer::next(std::vector<u8> &frame)
{
    if (poisoned_)
        return -1;
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < snap::kHeaderBytes)
        return 0;
    const u8 *head = buffer_.data() + consumed_;
    const std::optional<u64> length = payloadLength(head, error_);
    if (!length) {
        poisoned_ = true;
        return -1;
    }
    const std::size_t total = snap::kHeaderBytes + *length;
    if (avail < total)
        return 0;
    frame.assign(head, head + total);
    consumed_ += total;
    return 1;
}

bool
writeFrame(int fd, const std::vector<u8> &frame)
{
    std::size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n = ::write(fd, frame.data() + off,
                                  frame.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

namespace
{

/** Read exactly n bytes; 0 bytes read so far + EOF is reported. */
ReadStatus
readAll(int fd, u8 *out, std::size_t n, std::string &err)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t got = ::read(fd, out + off, n - off);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            err = std::strerror(errno);
            return ReadStatus::Error;
        }
        if (got == 0) {
            if (off == 0)
                return ReadStatus::Eof;
            err = "peer closed mid-frame (" + std::to_string(off) +
                  " of " + std::to_string(n) + " bytes)";
            return ReadStatus::Error;
        }
        off += static_cast<std::size_t>(got);
    }
    return ReadStatus::Frame;
}

} // namespace

ReadStatus
readFrame(int fd, std::vector<u8> &frame, std::string &err)
{
    frame.resize(snap::kHeaderBytes);
    const ReadStatus head = readAll(fd, frame.data(), snap::kHeaderBytes,
                                    err);
    if (head != ReadStatus::Frame)
        return head;
    const std::optional<u64> length = payloadLength(frame.data(), err);
    if (!length)
        return ReadStatus::Error;
    frame.resize(snap::kHeaderBytes + *length);
    const ReadStatus body = readAll(fd, frame.data() + snap::kHeaderBytes,
                                    *length, err);
    if (body == ReadStatus::Eof) {
        err = "peer closed between a frame's header and payload";
        return ReadStatus::Error;
    }
    return body;
}

} // namespace sasos::farm
