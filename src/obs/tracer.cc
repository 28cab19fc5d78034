#include "obs/tracer.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/perfetto.hh"
#include "sim/logging.hh"
#include "sim/options.hh"

namespace sasos::obs
{

namespace detail
{
std::atomic<bool> enabledFlag{false};
} // namespace detail

namespace
{

/** One thread's event storage: filled linearly, then a circular
 * overwrite of the oldest slot. Written only by its owning thread. */
struct Ring
{
    std::vector<Event> events;
    u64 capacity = 0;
    /** Total events pushed; head % capacity is the oldest slot once
     * the ring has wrapped. */
    u64 pushed = 0;
    u64 dropped = 0;

    void
    push(const Event &event)
    {
        if (events.size() < capacity) {
            events.push_back(event);
        } else {
            events[pushed % capacity] = event;
            ++dropped;
        }
        ++pushed;
    }

    /** Copy out oldest-to-newest. */
    void
    extract(std::vector<Event> &out) const
    {
        if (pushed <= capacity) {
            out.insert(out.end(), events.begin(), events.end());
            return;
        }
        const u64 oldest = pushed % capacity;
        out.insert(out.end(), events.begin() + static_cast<long>(oldest),
                   events.end());
        out.insert(out.end(), events.begin(),
                   events.begin() + static_cast<long>(oldest));
    }

    void
    reset(u64 new_capacity)
    {
        events.clear();
        events.reserve(new_capacity);
        capacity = new_capacity;
        pushed = 0;
        dropped = 0;
    }
};

/** The rings of live threads, plus what exited threads left behind:
 * a thread's ring is registered at its first emit and retired at its
 * exit, its events and drop count moved here and the ring freed, so
 * parallelFor's short-lived workers do not pile up rings. */
struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<Ring>> rings;
    /** Events and drops of threads that exited since startTracing. */
    std::vector<Event> retired;
    u64 retiredDropped = 0;
    u64 capacity = TracerConfig{}.bufferEvents;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

thread_local Ring *tlsRing = nullptr;
thread_local u32 tlsTid = 0;
thread_local u32 tlsSeq = 0;

/** Retires the calling thread's ring when the thread exits. */
struct RingRetirer
{
    ~RingRetirer()
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        tlsRing->extract(reg.retired);
        reg.retiredDropped += tlsRing->dropped;
        std::erase_if(reg.rings, [](const std::unique_ptr<Ring> &ring) {
            return ring.get() == tlsRing;
        });
        tlsRing = nullptr;
    }
};

Ring *
registerThisThread()
{
    // Built on the thread's first emit, destroyed at its exit.
    thread_local RingRetirer retirer;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.rings.push_back(std::make_unique<Ring>());
    reg.rings.back()->reset(reg.capacity);
    tlsRing = reg.rings.back().get();
    return tlsRing;
}

} // namespace

void
emit(EventKind kind, u64 cycle, u64 addr, u64 arg)
{
    Ring *ring = tlsRing;
    if (ring == nullptr)
        ring = registerThisThread();
    Event event;
    event.cycle = cycle;
    event.addr = addr;
    event.arg = arg;
    event.tid = tlsTid;
    event.seq = tlsSeq++;
    event.kind = kind;
    ring->push(event);
}

void
setThreadId(u32 tid)
{
    tlsTid = tid;
}

void
startTracing(const TracerConfig &config)
{
    SASOS_ASSERT(config.bufferEvents > 0, "trace buffer must hold events");
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.capacity = config.bufferEvents;
    for (auto &ring : reg.rings)
        ring->reset(config.bufferEvents);
    reg.retired = {};
    reg.retiredDropped = 0;
    detail::enabledFlag.store(true, std::memory_order_relaxed);
}

std::vector<Event>
stopTracing()
{
    detail::enabledFlag.store(false, std::memory_order_relaxed);
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<Event> merged = std::exchange(reg.retired, {});
    reg.retiredDropped = 0;
    for (const auto &ring : reg.rings) {
        ring->extract(merged);
        // Drain on stop: a later stopTracing (or one with no
        // intervening start) must not re-report stale events.
        ring->reset(ring->capacity);
    }
    // (cycle, tid, seq) is a total order: all of one tid's events come
    // from one thread (per-thread seq strictly increases), so ties are
    // impossible and, with no drops, the merge is identical whatever
    // threads= was.
    std::sort(merged.begin(), merged.end(),
              [](const Event &a, const Event &b) {
                  if (a.cycle != b.cycle)
                      return a.cycle < b.cycle;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.seq < b.seq;
              });
    // Renumber seq within each tid: raw values depend on how worker
    // threads were reused, which must not leak into the artifact.
    std::unordered_map<u32, u32> next;
    for (Event &event : merged)
        event.seq = next[event.tid]++;
    return merged;
}

u64
droppedEvents()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    u64 total = reg.retiredDropped;
    for (const auto &ring : reg.rings)
        total += ring->dropped;
    return total;
}

std::size_t
detail::liveRings()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.rings.size();
}

ScopedTrace::ScopedTrace(const Options &options)
{
    if (!options.getBool("trace", false))
        return;
    path_ = options.getString("trace_out", "sasos_trace.json");
    TracerConfig config;
    config.bufferEvents =
        options.getU64("trace_buf", TracerConfig{}.bufferEvents);
    startTracing(config);
    active_ = true;
}

ScopedTrace::~ScopedTrace()
{
    if (!active_)
        return;
    const u64 dropped = droppedEvents();
    const std::vector<Event> events = stopTracing();
    std::ofstream os(path_);
    if (!os) {
        warn("cannot write trace file '", path_, "'");
        return;
    }
    writePerfettoJson(os, events, dropped);
    inform("wrote ", path_, " (", events.size(), " events, ", dropped,
           " dropped); open it at ui.perfetto.dev");
}

} // namespace sasos::obs
