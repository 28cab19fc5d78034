/**
 * @file
 * Per-thread, lock-free ring-buffer event tracer for the memory path.
 *
 * Emission is a single predicted branch when tracing is disabled (the
 * SASOS_OBS_EVENT macro evaluates none of its arguments), and when
 * enabled appends into a thread-local ring: no locks, no allocation
 * and no formatting on the hot path. A ring is registered at an OS
 * thread's first emit and freed when the thread exits, its events
 * kept for the next merge; a full ring overwrites its oldest event
 * and counts the drop, so tracing never stalls the simulation.
 *
 * Events carry a *logical* thread id (sweep cell index, set via
 * setThreadId) rather than the OS thread, and a per-emission sequence
 * number, so stopTracing() can merge all rings into one stream
 * ordered by (cycle, tid, seq) -- bit-identical whatever the worker
 * count that ran the cells, as long as no ring overflowed.
 *
 * start/stop must not race with emission: enable tracing before
 * issuing references and stop it after the workers have drained,
 * which is how ScopedTrace and the sweep driver use it.
 */

#ifndef SASOS_OBS_TRACER_HH
#define SASOS_OBS_TRACER_HH

#include <atomic>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace sasos
{
class Options;
}

namespace sasos::obs
{

/** Tracer knobs (the trace_buf= option). */
struct TracerConfig
{
    /** Ring capacity, in events, per emitting thread. */
    u64 bufferEvents = u64{1} << 20;
};

namespace detail
{
extern std::atomic<bool> enabledFlag;

/** Rings of threads that emitted and have not exited (for tests). */
std::size_t liveRings();
} // namespace detail

/** True while a trace session is collecting events. */
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/**
 * The emission hot-path hook. Compiles to one predicted-untaken
 * branch when tracing is off; `cycle`, `addr` and `arg` are not
 * evaluated unless it is on.
 */
#define SASOS_OBS_EVENT(kind, cycle, addr, arg)                           \
    do {                                                                  \
        if (::sasos::obs::enabled()) [[unlikely]] {                       \
            ::sasos::obs::emit((kind), (cycle), (addr), (arg));           \
        }                                                                 \
    } while (0)

/** Append one event to the calling thread's ring (the slow path;
 * callers normally go through SASOS_OBS_EVENT). */
void emit(EventKind kind, u64 cycle, u64 addr = 0, u64 arg = 0);

/** Set the logical thread id stamped on this thread's subsequent
 * events (e.g. the sweep cell index). Defaults to 0. */
void setThreadId(u32 tid);

/** Begin collecting; resets all rings and the drop counter. */
void startTracing(const TracerConfig &config = {});

/**
 * Stop collecting and merge every thread's ring, and the events of
 * threads that exited meanwhile, into one stream ordered by (cycle,
 * tid, seq); seq is renumbered 0..n-1 within each tid so the merge is
 * reproducible across worker counts -- but only while
 * droppedEvents() == 0. A ring is per OS thread, so which events an
 * overflow drops, and how many survive, depends on how the work was
 * spread over threads.
 */
std::vector<Event> stopTracing();

/** Events overwritten because a ring was full (since startTracing). */
u64 droppedEvents();

/**
 * Options-driven session: `trace=1` starts tracing on construction;
 * destruction stops it and writes the Perfetto JSON to `trace_out=`
 * (default sasos_trace.json). `trace_buf=` sizes the per-thread
 * rings. A default-constructed / trace=0 scope is inert.
 */
class ScopedTrace
{
  public:
    ScopedTrace() = default;
    explicit ScopedTrace(const Options &options);
    ~ScopedTrace();

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

    bool active() const { return active_; }
    const std::string &path() const { return path_; }

  private:
    bool active_ = false;
    std::string path_;
};

} // namespace sasos::obs

#endif // SASOS_OBS_TRACER_HH
