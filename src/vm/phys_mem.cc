#include "vm/phys_mem.hh"

#include "snap/snapio.hh"

#include "sim/logging.hh"

namespace sasos::vm
{

FrameAllocator::FrameAllocator(u64 frame_count)
    : allocated_(frame_count), refCounts_(frame_count, 0)
{
    SASOS_ASSERT(frame_count > 0, "no physical memory");
}

std::optional<Pfn>
FrameAllocator::allocate()
{
    u64 frame = 0;
    if (!freeList_.empty()) {
        frame = freeList_.back();
        freeList_.pop_back();
    } else if (nextFresh_ < allocated_.size()) {
        frame = nextFresh_++;
    } else {
        return std::nullopt;
    }
    allocated_[frame] = true;
    refCounts_[frame] = 1;
    ++inUse_;
    return Pfn(frame);
}

void
FrameAllocator::free(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < allocated_.size(), "freeing foreign frame ", frame);
    SASOS_ASSERT(allocated_[frame], "double free of frame ", frame);
    SASOS_ASSERT(refCounts_[frame] == 1, "freeing shared frame ", frame,
                 " with ", refCounts_[frame], " references");
    unref(pfn);
}

void
FrameAllocator::ref(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < allocated_.size(), "ref of foreign frame ", frame);
    SASOS_ASSERT(allocated_[frame], "ref of unallocated frame ", frame);
    ++refCounts_[frame];
}

void
FrameAllocator::unref(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < allocated_.size(), "unref of foreign frame ",
                 frame);
    SASOS_ASSERT(allocated_[frame], "unref of unallocated frame ", frame);
    SASOS_ASSERT(refCounts_[frame] > 0, "refcount underflow on frame ",
                 frame);
    if (--refCounts_[frame] > 0)
        return;
    allocated_[frame] = false;
    freeList_.push_back(frame);
    --inUse_;
}

u32
FrameAllocator::refCount(Pfn pfn) const
{
    const u64 frame = pfn.number();
    return frame < refCounts_.size() ? refCounts_[frame] : 0;
}

bool
FrameAllocator::isAllocated(Pfn pfn) const
{
    return pfn.number() < allocated_.size() && allocated_[pfn.number()];
}

void
FrameAllocator::save(snap::SnapWriter &w) const
{
    w.putTag("frames");
    w.put64(allocated_.size());
    u8 bits = 0;
    for (std::size_t i = 0; i < allocated_.size(); ++i) {
        if (allocated_[i])
            bits |= static_cast<u8>(1u << (i % 8));
        if (i % 8 == 7 || i + 1 == allocated_.size()) {
            w.put8(bits);
            bits = 0;
        }
    }
    w.put64(inUse_);
    // The full free list, bottom first: the run, then the stack.
    w.put64(allocated_.size() - nextFresh_ + freeList_.size());
    for (u64 frame = allocated_.size(); frame > nextFresh_; --frame)
        w.put64(frame - 1);
    for (u64 frame : freeList_)
        w.put64(frame);
    // Refcounts of the allocated frames, in frame order (the bitmap
    // above says which frames those are).
    for (std::size_t i = 0; i < allocated_.size(); ++i) {
        if (allocated_[i])
            w.put32(refCounts_[i]);
    }
}

void
FrameAllocator::load(snap::SnapReader &r)
{
    r.expectTag("frames");
    const u64 capacity = r.get64();
    if (capacity != allocated_.size())
        SASOS_FATAL("corrupt snapshot: ", capacity,
                    " physical frames, this configuration has ",
                    allocated_.size());
    u64 marked = 0;
    u8 bits = 0;
    for (std::size_t i = 0; i < allocated_.size(); ++i) {
        if (i % 8 == 0)
            bits = r.get8();
        allocated_[i] = (bits >> (i % 8)) & 1;
        marked += allocated_[i] ? 1 : 0;
    }
    inUse_ = r.get64();
    if (inUse_ != marked)
        SASOS_FATAL("corrupt snapshot: frame allocator claims ", inUse_,
                    " frames in use but marks ", marked);
    const u64 free_count = r.getCount(8);
    if (free_count != capacity - inUse_)
        SASOS_FATAL("corrupt snapshot: free list carries ", free_count,
                    " frames, expected ", capacity - inUse_);
    // The longest bottom run capacity-1, capacity-2, ... becomes the
    // run; the rest is the stack. Any split hands out the same frames
    // in the same order, and this one re-saves the same bytes.
    freeList_.clear();
    nextFresh_ = capacity;
    std::vector<bool> seen(capacity, false);
    for (u64 i = 0; i < free_count; ++i) {
        const u64 frame = r.get64();
        if (frame >= capacity)
            SASOS_FATAL("corrupt snapshot: free frame ", frame,
                        " beyond capacity ", capacity);
        if (allocated_[frame])
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " both allocated and free");
        if (seen[frame])
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " on the free list twice");
        seen[frame] = true;
        if (freeList_.empty() && frame + 1 == nextFresh_)
            nextFresh_ = frame;
        else
            freeList_.push_back(frame);
    }
    for (std::size_t i = 0; i < allocated_.size(); ++i) {
        if (!allocated_[i]) {
            refCounts_[i] = 0;
            continue;
        }
        const u32 refs = r.get32();
        if (refs == 0)
            SASOS_FATAL("corrupt snapshot: allocated frame ", i,
                        " with zero references");
        refCounts_[i] = refs;
    }
}

} // namespace sasos::vm
