/**
 * @file
 * Physical frame allocation.
 */

#ifndef SASOS_VM_PHYS_MEM_HH
#define SASOS_VM_PHYS_MEM_HH

#include <optional>
#include <vector>

#include "vm/address.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::vm
{

/**
 * A free-list allocator over a fixed pool of physical frames.
 *
 * Frames are recycled (unlike virtual addresses) and reference
 * counted: allocate() hands out a frame with one reference, ref()
 * adds a sharer (copy-on-write fork), and unref() drops one,
 * returning the frame to the pool when the last reference goes.
 * free() is the exclusive-owner form: it asserts the caller held the
 * only reference. Double-free and foreign-free are simulator bugs and
 * panic.
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(u64 frame_count);

    /** Allocate a frame with one reference; nullopt when memory is
     * exhausted. */
    std::optional<Pfn> allocate();

    /** Return a frame to the pool; asserts it has exactly one
     * reference (use unref() for possibly-shared frames). */
    void free(Pfn pfn);

    /** Add one reference to an allocated frame (CoW sharing). */
    void ref(Pfn pfn);

    /** Drop one reference; frees the frame when the count hits 0. */
    void unref(Pfn pfn);

    /** References held on a frame (0 when unallocated). */
    u32 refCount(Pfn pfn) const;

    bool isAllocated(Pfn pfn) const;

    u64 capacity() const { return allocated_.size(); }
    u64 inUse() const { return inUse_; }
    u64 available() const { return capacity() - inUse_; }

    /** @name Snapshot hooks (free-list order decides future frame
     * assignment, so it is serialized verbatim and cross-checked
     * against the allocation bitmap on load; refcounts ride along
     * for the allocated frames) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    std::vector<bool> allocated_;
    std::vector<u32> refCounts_;
    /**
     * The free list is a bottom run of consecutive frames
     * [nextFresh_, capacity), highest frame lowest (at construction,
     * every frame), with the other free frames (freeList_) stacked on
     * top. Only the stack is stored: the run hands out nextFresh_
     * upwards once the stack is empty, exactly as the explicit list
     * would, without an 8-byte slot per frame of a machine that
     * touches few of them.
     */
    std::vector<u64> freeList_;
    u64 nextFresh_ = 0;
    u64 inUse_ = 0;
};

} // namespace sasos::vm

#endif // SASOS_VM_PHYS_MEM_HH
