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
 *
 * The state is sized by the frames a machine has touched, not by its
 * capacity. Frames at or above the high-water mark (the size of
 * refCounts_) were never handed out and are implicit; a frame below
 * it is allocated exactly when its refcount is non-zero, and freed
 * frames are stacked on top of the never-used run. Allocation order
 * is that of one explicit free list, lowest never-used frame on top.
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

    bool isAllocated(Pfn pfn) const { return refCount(pfn) != 0; }

    u64 capacity() const { return capacity_; }
    u64 inUse() const { return inUse_; }
    u64 available() const { return capacity_ - inUse_; }

    /** @name Snapshot hooks (the image is the refcounts below the
     * never-used run plus the stack of freed frames, so it grows with
     * the frames touched and is a function of the allocation order
     * alone; load cross-checks the stack against the refcounts) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    u64 capacity_;
    /** One count per frame below the high-water mark; frames
     * [refCounts_.size(), capacity_) are the never-used run, handed
     * out upwards once the stack is empty. */
    std::vector<u32> refCounts_;
    /** Freed frames below the high-water mark; back is next out. */
    std::vector<u64> freeList_;
    u64 inUse_ = 0;
};

} // namespace sasos::vm

#endif // SASOS_VM_PHYS_MEM_HH
