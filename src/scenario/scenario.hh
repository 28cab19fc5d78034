/**
 * @file
 * The application-scenario layer: seeded, reproducible scripts that
 * drive the simulated kernel the way real single-address-space
 * applications would.
 *
 * Three scenario families (ROADMAP "scenario diversity"):
 *
 *  - **CoW fork tree** (μFork-style): a root task populates a private
 *    segment, then a tree of children is forked copy-on-write; every
 *    task mutates its copy, exercising refcounted frames, shared
 *    mappings and the CoW fault path; the tree is then reaped.
 *  - **Portal RPC chains** (Opal-style): client domains write a
 *    request into a server's portal segment, traverse into the server
 *    domain, which may call the next server in the chain, and return
 *    -- protection-domain switches plus cross-domain shared segments.
 *  - **Server mix** (web-server-shaped): waves of short-lived client
 *    domains hammer a few long-lived shared-segment services under
 *    Zipf traffic with domain create/destroy churn.
 *
 * A script is a flat list of concrete operations (real domain and
 * segment ids, real addresses), a pure function of its config: the
 * builder replays the kernel operations against a probe System as it
 * generates, recording the ids the real runs must reproduce. That
 * makes replay trivially position-resumable (snapshot mid-script) and
 * lets the differential oracle run the identical stream on all four
 * protection models, clean and fault-injected.
 */

#ifndef SASOS_SCENARIO_SCENARIO_HH
#define SASOS_SCENARIO_SCENARIO_HH

#include <string>
#include <vector>

#include "os/vm_state.hh" // DomainId
#include "vm/rights.hh"
#include "vm/segment.hh"

namespace sasos::scn
{

/** What one scripted operation does. */
enum class OpKind : u8
{
    /** Issue a memory reference at `addr` (current domain). */
    Ref,
    /** kernel.switchTo(domain). */
    Switch,
    /** kernel.createDomain(...); must yield id `domain`. */
    CreateDomain,
    /** kernel.destroyDomain(domain). */
    DestroyDomain,
    /** kernel.createSegment(..., pages); must yield id `seg`. */
    CreateSegment,
    /** kernel.destroySegment(seg). */
    DestroySegment,
    /** kernel.attach(domain, seg, rights). */
    Attach,
    /** kernel.detach(domain, seg). */
    Detach,
    /** kernel.forkSegmentCow(seg, domain, rights); must yield `seg2`. */
    ForkCow,
    /** kernel.setPageRights(domain, pageOf(addr), rights). */
    SetPageRights,
    /** kernel.restrictPage(pageOf(addr), rights). */
    RestrictPage,
    /** kernel.unrestrictPage(pageOf(addr)). */
    UnrestrictPage,
};

/** One concrete operation; unused fields stay at their defaults. */
struct Op
{
    OpKind kind = OpKind::Ref;
    vm::AccessType type = vm::AccessType::Load;
    os::DomainId domain = 0;
    vm::SegmentId seg = vm::kInvalidSegment;
    /** ForkCow: the child segment id the fork must produce. */
    vm::SegmentId seg2 = vm::kInvalidSegment;
    vm::Access rights = vm::Access::None;
    /** Ref: the virtual address; page ops: any address in the page. */
    u64 addr = 0;
    /** CreateSegment: size in pages. */
    u64 pages = 0;

    bool operator==(const Op &) const = default;
};

/** A complete scenario: a replayable operation stream. */
struct Script
{
    std::string name;
    std::vector<Op> ops;
    /** Number of Ref ops (the decision-vector length). */
    u64 refs = 0;
};

/** μFork-style copy-on-write fork tree. */
struct ForkConfig
{
    u64 seed = 1;
    /** Fork-tree depth below the root (0 = root only). */
    u32 depth = 3;
    /** Children forked from each node. */
    u32 fanout = 2;
    /** Pages per task segment. */
    u64 pages = 12;
    /** References each task issues over its segment after forking. */
    u64 refsPerTask = 160;
    double storeFraction = 0.45;
    /** Upper bound on segments the tree may create (budget). */
    u32 maxSegments = 96;
    /** Destroy the non-root tasks at the end (leak check). */
    bool reap = true;
};

/** Opal-style portal RPC chains. */
struct PortalConfig
{
    u64 seed = 1;
    u32 clients = 4;
    u32 servers = 2;
    /** Servers traversed per call (client -> s0 -> s1 -> ...). */
    u32 chainLen = 2;
    u64 callsPerClient = 24;
    /** Pages per portal segment. */
    u64 portalPages = 4;
    /** References per hop (request writes + reply reads). */
    u64 refsPerHop = 6;
    /** Test hook: detach this hop's portal from its server before the
     * chains run; building then fatals ("portal into a detached
     * segment"). Leave at ~0u for a valid scenario. */
    u32 dropPortalHop = ~0u;
};

/** Web-server-shaped mix with domain churn. */
struct ServerMixConfig
{
    u64 seed = 1;
    /** Long-lived service domains, one shared segment each. */
    u32 services = 3;
    u64 servicePages = 48;
    /** Client-churn waves; each wave creates, runs and destroys
     * `clientsPerWave` short-lived client domains. */
    u32 waves = 6;
    u32 clientsPerWave = 12;
    u64 refsPerClient = 30;
    double storeFraction = 0.25;
    /** Zipf skew of the per-client page stream. */
    double zipfTheta = 0.8;
    /** Paging-style restrict/unrestrict churn per wave. */
    u32 restrictsPerWave = 2;
};

/** @name Builders
 * Each is a pure function of its config (invalid configs are clean
 * fatals, rerouteable via setFatalHandler for death tests).
 */
/// @{
Script buildForkScript(const ForkConfig &config);
Script buildPortalScript(const PortalConfig &config);
Script buildServerMixScript(const ServerMixConfig &config);

/** The standard three scenarios at default shapes, seeded. */
std::vector<Script> standardScripts(u64 seed);
/// @}

} // namespace sasos::scn

#endif // SASOS_SCENARIO_SCENARIO_HH
