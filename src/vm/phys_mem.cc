#include "vm/phys_mem.hh"

#include "snap/snapio.hh"

#include "sim/logging.hh"

namespace sasos::vm
{

FrameAllocator::FrameAllocator(u64 frame_count) : capacity_(frame_count)
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
        refCounts_[frame] = 1;
    } else if (refCounts_.size() < capacity_) {
        frame = refCounts_.size();
        refCounts_.push_back(1);
    } else {
        return std::nullopt;
    }
    ++inUse_;
    return Pfn(frame);
}

void
FrameAllocator::free(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < capacity_, "freeing foreign frame ", frame);
    SASOS_ASSERT(isAllocated(pfn), "double free of frame ", frame);
    SASOS_ASSERT(refCounts_[frame] == 1, "freeing shared frame ", frame,
                 " with ", refCounts_[frame], " references");
    unref(pfn);
}

void
FrameAllocator::ref(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < capacity_, "ref of foreign frame ", frame);
    SASOS_ASSERT(isAllocated(pfn), "ref of unallocated frame ", frame);
    ++refCounts_[frame];
}

void
FrameAllocator::unref(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < capacity_, "unref of foreign frame ", frame);
    SASOS_ASSERT(isAllocated(pfn), "unref of unallocated frame ", frame);
    if (--refCounts_[frame] > 0)
        return;
    freeList_.push_back(frame);
    --inUse_;
}

u32
FrameAllocator::refCount(Pfn pfn) const
{
    const u64 frame = pfn.number();
    return frame < refCounts_.size() ? refCounts_[frame] : 0;
}

void
FrameAllocator::save(snap::SnapWriter &w) const
{
    // Freed frames at the bottom of the stack that continue the
    // never-used run downwards join it, so the image depends only on
    // the order frames will be handed out.
    u64 run = refCounts_.size();
    std::size_t merged = 0;
    while (merged < freeList_.size() && freeList_[merged] + 1 == run) {
        --run;
        ++merged;
    }
    w.putTag("frames");
    w.put64(capacity_);
    w.put64(inUse_);
    w.put64(run);
    for (u64 frame = 0; frame < run; ++frame)
        w.put32(refCounts_[frame]);
    w.put64(freeList_.size() - merged);
    for (std::size_t i = merged; i < freeList_.size(); ++i)
        w.put64(freeList_[i]);
}

void
FrameAllocator::load(snap::SnapReader &r)
{
    r.expectTag("frames");
    const u64 capacity = r.get64();
    if (capacity != capacity_)
        SASOS_FATAL("corrupt snapshot: ", capacity,
                    " physical frames, this configuration has ",
                    capacity_);
    const u64 in_use = r.get64();
    // One u32 refcount per frame below the run, checked against the
    // bytes left before the array is allocated.
    const u64 run = r.getCount(4);
    if (run > capacity_)
        SASOS_FATAL("corrupt snapshot: never-used run starts at frame ",
                    run, " beyond capacity ", capacity_);
    refCounts_.assign(run, 0);
    u64 held = 0;
    for (u64 frame = 0; frame < run; ++frame) {
        refCounts_[frame] = r.get32();
        held += refCounts_[frame] != 0 ? 1 : 0;
    }
    if (in_use != held)
        SASOS_FATAL("corrupt snapshot: frame allocator claims ", in_use,
                    " frames in use but holds ", held);
    inUse_ = in_use;
    const u64 stacked = r.getCount(8);
    if (stacked != run - held)
        SASOS_FATAL("corrupt snapshot: free stack carries ", stacked,
                    " frames, expected ", run - held);
    freeList_.clear();
    freeList_.reserve(stacked);
    std::vector<bool> seen(run, false);
    for (u64 i = 0; i < stacked; ++i) {
        const u64 frame = r.get64();
        if (frame >= run)
            SASOS_FATAL("corrupt snapshot: stacked free frame ", frame,
                        " at or above the never-used run at ", run);
        if (refCounts_[frame] != 0)
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " both held and free");
        if (seen[frame])
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " on the free stack twice");
        seen[frame] = true;
        freeList_.push_back(frame);
    }
}

} // namespace sasos::vm
