/**
 * @file
 * The memory-path event vocabulary.
 *
 * One Event is emitted per interesting step of a reference's walk
 * through the machine: the access itself (a begin/end span), each
 * hardware structure's hit/miss/fill/evict, protection and
 * translation faults, the kernel's resolve-and-retry span, domain
 * switches and SMP shootdowns. Events carry the simulated cycle at
 * emission, so a trace decomposes exactly the costs the paper's
 * Table 1 argues about.
 */

#ifndef SASOS_OBS_EVENT_HH
#define SASOS_OBS_EVENT_HH

#include "sim/types.hh"

namespace sasos::obs
{

/** What happened on the memory path. */
enum class EventKind : u8
{
    /** One reference entering / leaving the machine (B/E span). */
    AccessBegin,
    AccessEnd,
    /** Protection lookaside buffer. */
    PlbHit,
    PlbMiss,
    PlbFill,
    PlbEvict,
    /** Translation (or combined) TLB. */
    TlbHit,
    TlbMiss,
    TlbFill,
    TlbEvict,
    /** Page-group (PID) cache. */
    PgCacheHit,
    PgCacheMiss,
    PgCacheFill,
    PgCacheEvict,
    /** Key-permission registers (MPK-style key model). */
    KeyHit,
    KeyMiss,
    KeyFill,
    KeyEvict,
    /** First-level data cache. */
    DCacheHit,
    DCacheMiss,
    DCacheEvict,
    /** A whole protection structure flushed (injection, purge). */
    ProtectionFlush,
    /** Faults raised by the hardware. */
    ProtectionFault,
    TranslationFault,
    /** The kernel's fault resolution for one reference (B/E span). */
    KernelResolveBegin,
    KernelResolveEnd,
    /** A fault was repaired and the reference retries. */
    FaultRetry,
    /** The processor switched protection domains. */
    DomainSwitch,
    /** A broadcast maintenance operation interrupted remote CPUs. */
    Shootdown,
    /** A remote core took the IPI and applied the maintenance. */
    ShootdownAck,
    /** The last remote core acked; the issuer resumes. */
    ShootdownComplete,
    NumKinds,
};

/** Display name; begin/end pairs share one name ("access"). */
const char *toString(EventKind kind);

/** Chrome trace-event phase: 'B', 'E' or 'i' (instant). */
char phaseOf(EventKind kind);

/** One traced occurrence. 40 bytes (three u64s, two u32s and the
 * kind, padded to 8); rings hold these by value. */
struct Event
{
    /** Simulated cycle (CycleAccount total) at emission. */
    u64 cycle = 0;
    /** Virtual address or structure-specific payload. */
    u64 addr = 0;
    /** Secondary payload (domain, rights, size shift, CPU count...). */
    u64 arg = 0;
    /** Logical thread (sweep cell) the event belongs to. */
    u32 tid = 0;
    /** Emission order within `tid`; normalized to 0..n-1 on merge. */
    u32 seq = 0;
    EventKind kind = EventKind::AccessBegin;
};
static_assert(sizeof(Event) == 40, "an Event must be 40 bytes");

} // namespace sasos::obs

#endif // SASOS_OBS_EVENT_HH
