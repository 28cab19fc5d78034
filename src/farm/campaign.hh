/**
 * @file
 * The sweep campaign abstraction: (model x workload x seed) cells with
 * stable identities, sliced execution, and the parallel runner.
 *
 * Promoted from bench/sweep_runner.hh so the multi-process farm
 * (src/farm/coordinator.hh), bench_sweep and bench_snap all share one
 * campaign/cell layer. Each cell owns a complete core::System -- its
 * VmState, kernel and cycle account live inside the System object --
 * so cells share no mutable state and run on any thread *or process*.
 * Every cell draws from its own Rng seeded by the cell's seed, so a
 * campaign's output (including the full stats dump) is bit-identical
 * whatever the thread count, worker-process count or kill schedule.
 *
 * Cells carry stable ids: results are merged by id, never by
 * position, so a farm retry or migrated resume cannot double-count a
 * reassigned cell. Campaign construction asserts id uniqueness.
 *
 * Wall-clock time is the only nondeterministic field; it feeds the
 * refs/sec throughput report and the BENCH_*.json perf artifacts,
 * never the simulated results.
 */

#ifndef SASOS_FARM_CAMPAIGN_HH
#define SASOS_FARM_CAMPAIGN_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/tracer.hh"
#include "sasos.hh"
#include "sim/parallel.hh"
#include "snap/snapshot.hh"
#include "workload/address_stream.hh"

namespace sasos::farm
{

/** Factory for a cell's reference stream over its heap segment. */
using StreamFactory = std::function<std::unique_ptr<wl::AddressStream>(
    vm::VAddr base, u64 pages, u64 seed)>;

/** Sentinel: the campaign assigns this cell its position as its id. */
constexpr u64 kAutoCellId = ~u64{0};

/** One independent simulation cell of a sweep campaign. */
struct SweepCell
{
    /** Stable identity within a campaign; results, retries and
     * checkpoint hand-offs are keyed by it. kAutoCellId takes the
     * cell's campaign position. */
    u64 id = kAutoCellId;
    std::string model;
    std::string workload;
    u64 seed = 0;
    core::SystemConfig config;
    /** Heap segment size the stream ranges over. */
    u64 pages = 256;
    /** References to issue through System::run. */
    u64 references = 200'000;
    vm::AccessType type = vm::AccessType::Load;
    StreamFactory makeStream;

    /** @name Warm start
     * A cell with warmRefs > 0 first executes a warm-up prefix of
     * that many references drawn from a warmSeed-seeded Rng/stream,
     * then re-seeds both from the cell's own seed for the measured
     * continuation. Because the continuation state is constructed
     * fresh in both paths, restoring the prefix from `warmImage`
     * instead of replaying it is bit-identical -- one prefix image
     * (per configuration) serves every sweep point.
     */
    /// @{
    u64 warmRefs = 0;
    u64 warmSeed = 0;
    /** Shared prefix image; null replays the prefix live (cold). */
    std::shared_ptr<const snap::Snapshot> warmImage;
    /// @}
};

/**
 * A validated set of cells. Construction resolves kAutoCellId cells
 * to their position and asserts that every id is unique -- the
 * build-time guard that makes id-keyed retry/dedup sound. Duplicate
 * ids are a SASOS_FATAL (user error in the campaign builder).
 */
class Campaign
{
  public:
    Campaign() = default;

    explicit Campaign(std::vector<SweepCell> cells)
        : cells_(std::move(cells))
    {
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (cells_[i].id == kAutoCellId)
                cells_[i].id = i;
        }
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const auto [it, inserted] = index_.emplace(cells_[i].id, i);
            if (!inserted)
                SASOS_FATAL("campaign cells ", it->second, " and ", i,
                            " share id ", cells_[i].id,
                            "; cell ids must be unique");
        }
    }

    const std::vector<SweepCell> &cells() const { return cells_; }
    std::size_t size() const { return cells_.size(); }
    bool empty() const { return cells_.empty(); }

    /** The cell with this id; null when the id is unknown. */
    const SweepCell *
    byId(u64 id) const
    {
        const auto it = index_.find(id);
        return it == index_.end() ? nullptr : &cells_[it->second];
    }

    /** Campaign position of this id; fatal when unknown. */
    std::size_t
    indexOf(u64 id) const
    {
        const auto it = index_.find(id);
        if (it == index_.end())
            SASOS_FATAL("campaign has no cell with id ", id);
        return it->second;
    }

  private:
    std::vector<SweepCell> cells_;
    std::map<u64, std::size_t> index_;
};

/** What one cell produced. Everything except the wall-clock fields is
 * deterministic for a given cell definition. */
struct CellResult
{
    u64 id = 0;
    std::string model;
    std::string workload;
    u64 seed = 0;
    u64 references = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 simCycles = 0;
    /** Full stats + cycle-breakdown dump, for bit-identity checks. */
    std::string statsDump;
    double wallSeconds = 0.0;
    double refsPerSec = 0.0;
};

/** The cells' standard single-domain setup: one app domain with one
 * read-write heap segment, switched in.
 * @return the heap base the cell's streams range over. */
inline vm::VAddr
setupCell(core::System &sys, const SweepCell &cell)
{
    const os::DomainId app = sys.kernel().createDomain("app");
    const vm::SegmentId seg = sys.kernel().createSegment("heap", cell.pages);
    sys.kernel().attach(app, seg, vm::Access::ReadWrite);
    sys.kernel().switchTo(app);
    return sys.state().segments.find(seg)->base();
}

/** Replay a cell's warm-up prefix live: warmRefs references drawn
 * from a warmSeed-seeded Rng and stream over the heap at `base`. */
inline void
replayWarmPrefix(core::System &sys, const SweepCell &cell, vm::VAddr base)
{
    Rng rng(cell.warmSeed);
    std::unique_ptr<wl::AddressStream> stream =
        cell.makeStream(base, cell.pages, cell.warmSeed);
    sys.run(*stream, cell.warmRefs, rng, cell.type);
}

/**
 * One cell's in-progress execution: the System, Rng and stream plus
 * the progress tally, steppable in slices. Running a cell in any
 * slicing is bit-identical to one straight run (the property the
 * snapshot resume oracle pins), which is what lets a farm worker
 * checkpoint mid-cell and any other worker resume the image.
 *
 * Cold construction replays the warm prefix (or restores the shared
 * warm image) exactly as the serial runner does; kForRestore skips
 * all of that and only builds objects of the right shape for a
 * checkpoint overlay.
 */
class CellExecution
{
  public:
    struct ForRestore
    {
    };
    static constexpr ForRestore kForRestore{};

    /** Cold start. @param tid logical trace thread-id stamped on the
     * cell's events; keeps merged traces deterministic whatever
     * worker ran the cell. */
    CellExecution(const SweepCell &cell, u32 tid)
        : CellExecution(cell, tid, false)
    {
    }

    /** Shape-only construction for checkpoint overlay via resume(). */
    CellExecution(const SweepCell &cell, u32 tid, ForRestore)
        : CellExecution(cell, tid, true)
    {
    }

    const SweepCell &cell() const { return *cell_; }
    u64 refsDone() const { return refsDone_; }
    u64 completed() const { return completed_; }
    u64 failed() const { return failed_; }
    bool done() const { return refsDone_ >= cell_->references; }
    u64 remaining() const { return cell_->references - refsDone_; }

    /** Issue up to n further references (clamped to the target). */
    void
    step(u64 n)
    {
        if (n > remaining())
            n = remaining();
        if (n == 0)
            return;
        const core::RunResult run =
            sys_.run(*stream_, n, *rng_, cell_->type);
        completed_ += run.completed;
        failed_ += run.failed;
        refsDone_ += n;
    }

    /** Seal the execution state (System + Rng + stream) into an
     * image any same-cell CellExecution can resume. The progress
     * tally travels beside the image, not inside it. */
    snap::Snapshot
    checkpoint() const
    {
        snap::Snapshotter snapper;
        snapper.add(sys_);
        snapper.add(*rng_);
        snapper.add(*stream_);
        return std::move(snapper).finish();
    }

    /** Overlay a checkpoint of the same cell onto this execution. */
    void
    resume(const snap::Snapshot &image, u64 refs_done, u64 completed,
           u64 failed)
    {
        snap::Restorer restorer(image);
        restorer.restore(sys_);
        restorer.restore(*rng_);
        restorer.restore(*stream_);
        restorer.finish();
        refsDone_ = refs_done;
        completed_ = completed;
        failed_ = failed;
    }

    /** The cell's deterministic result plus this execution's
     * wall-clock share. Call once the cell is done. */
    CellResult
    finish()
    {
        SASOS_ASSERT(done(), "cell ", cell_->id, " finished early: ",
                     refsDone_, " of ", cell_->references, " references");
        CellResult result;
        result.id = cell_->id;
        result.model = cell_->model;
        result.workload = cell_->workload;
        result.seed = cell_->seed;
        result.references = cell_->references;
        result.completed = completed_;
        result.failed = failed_;
        result.simCycles = sys_.cycles().count();
        std::ostringstream dump;
        sys_.dumpStats(dump);
        result.statsDump = dump.str();
        result.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        result.refsPerSec =
            result.wallSeconds > 0.0
                ? static_cast<double>(cell_->references) /
                      result.wallSeconds
                : 0.0;
        return result;
    }

  private:
    CellExecution(const SweepCell &cell, u32 tid, bool for_restore)
        : cell_(&cell), sys_(cell.config)
    {
        obs::setThreadId(tid);
        start_ = std::chrono::steady_clock::now();
        const vm::VAddr base = setupCell(sys_, cell);
        if (!for_restore && cell.warmRefs) {
            if (cell.warmImage) {
                snap::Restorer restorer(*cell.warmImage);
                restorer.restore(sys_);
                restorer.finish();
            } else {
                replayWarmPrefix(sys_, cell, base);
            }
        }
        // The continuation re-seeds from the cell's own seed in both
        // the cold and warm paths, so the restored prefix is
        // indistinguishable from the replayed one.
        rng_ = std::make_unique<Rng>(cell.seed);
        stream_ = cell.makeStream(base, cell.pages, cell.seed);
    }

    const SweepCell *cell_;
    core::System sys_;
    std::unique_ptr<Rng> rng_;
    std::unique_ptr<wl::AddressStream> stream_;
    u64 refsDone_ = 0;
    u64 completed_ = 0;
    u64 failed_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/** Runs campaign cells across host threads, deterministically. */
class SweepRunner
{
  public:
    /** @param threads worker count; 0 means defaultThreads(), 1 runs
     * inline on the caller. */
    explicit SweepRunner(unsigned threads) : threads_(threads) {}

    /** Replay a cell's warm-up prefix live and seal the result into
     * the prefix image its whole sweep family shares. */
    static std::shared_ptr<const snap::Snapshot>
    buildWarmImage(const SweepCell &cell)
    {
        core::System sys(cell.config);
        replayWarmPrefix(sys, cell, setupCell(sys, cell));
        snap::Snapshotter snapper;
        snapper.add(sys);
        return std::make_shared<snap::Snapshot>(std::move(snapper).finish());
    }

    /** Run one cell start to finish on the calling thread. */
    static CellResult
    runCell(const SweepCell &cell, u32 tid = 0)
    {
        CellExecution exec(cell, tid);
        exec.step(cell.references);
        return exec.finish();
    }

    /** Run every cell; results come back in cell order regardless of
     * which thread ran what. The trace tid is the cell's id + 1. */
    std::vector<CellResult>
    run(const Campaign &campaign)
    {
        const std::vector<SweepCell> &cells = campaign.cells();
        std::vector<CellResult> results(cells.size());
        parallelFor(threads_, cells.size(), [&](u64 i) {
            results[i] =
                runCell(cells[i], static_cast<u32>(cells[i].id) + 1);
        });
        return results;
    }

    /** Convenience: validate loose cells (positional ids) and run. */
    std::vector<CellResult>
    run(const std::vector<SweepCell> &cells)
    {
        return run(Campaign(cells));
    }

  private:
    unsigned threads_;
};

/** Cold-vs-warm comparison for the sweep artifact's "warm" block. */
struct WarmReport
{
    /** Warm-up prefix length each cold cell replayed. */
    u64 warmRefs = 0;
    /** Prefix images built (one per sweep family). */
    u64 images = 0;
    double coldWallSeconds = 0.0;
    double buildWallSeconds = 0.0;
    double warmWallSeconds = 0.0;

    /** Cold replay time over warm restore time (builds amortized in). */
    double
    speedup() const
    {
        const double warm = buildWallSeconds + warmWallSeconds;
        return warm > 0.0 ? coldWallSeconds / warm : 0.0;
    }
};

/** One point of the perf history carried across changes. */
struct TrajectoryEntry
{
    std::string date;
    std::string commit;
    u64 threads = 0;
    double refsPerSec = 0.0;
};

namespace detail
{

/** Extract `"key": <value>` from a flat JSON object body; strings come
 * back unquoted, anything else verbatim. Tolerant: missing keys yield
 * an empty string rather than an error, so a hand-edited or
 * older-schema artifact never blocks a rewrite. */
inline std::string
extractJsonField(std::string_view body, std::string_view key)
{
    const std::string pattern = "\"" + std::string(key) + "\"";
    std::size_t pos = body.find(pattern);
    if (pos == std::string_view::npos)
        return {};
    pos = body.find(':', pos + pattern.size());
    if (pos == std::string_view::npos)
        return {};
    ++pos;
    while (pos < body.size() &&
           (body[pos] == ' ' || body[pos] == '\t' || body[pos] == '\n'))
        ++pos;
    if (pos >= body.size())
        return {};
    if (body[pos] == '"') {
        const std::size_t end = body.find('"', pos + 1);
        if (end == std::string_view::npos)
            return {};
        return std::string(body.substr(pos + 1, end - pos - 1));
    }
    std::size_t end = pos;
    while (end < body.size() && body[end] != ',' && body[end] != '}' &&
           body[end] != '\n')
        ++end;
    return std::string(body.substr(pos, end - pos));
}

} // namespace detail

/** Recover the trajectory records of an existing sweep artifact so a
 * rewrite appends to the perf history instead of erasing it. String
 * extraction, not a parser: any file without a recognizable
 * "trajectory" array simply contributes no history. */
inline std::vector<TrajectoryEntry>
readTrajectory(const std::string &path)
{
    std::vector<TrajectoryEntry> entries;
    std::ifstream is(path);
    if (!is)
        return entries;
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();
    const std::size_t key = text.find("\"trajectory\"");
    if (key == std::string::npos)
        return entries;
    const std::size_t open = text.find('[', key);
    if (open == std::string::npos)
        return entries;
    const std::size_t close = text.find(']', open);
    if (close == std::string::npos)
        return entries;
    std::size_t pos = open;
    while (true) {
        const std::size_t obj = text.find('{', pos);
        if (obj == std::string::npos || obj > close)
            break;
        const std::size_t end = text.find('}', obj);
        if (end == std::string::npos || end > close)
            break;
        const std::string_view body(text.data() + obj, end - obj + 1);
        TrajectoryEntry e;
        e.date = detail::extractJsonField(body, "date");
        e.commit = detail::extractJsonField(body, "commit");
        e.threads = static_cast<u64>(
            std::strtoull(detail::extractJsonField(body, "threads").c_str(),
                          nullptr, 10));
        e.refsPerSec = std::strtod(
            detail::extractJsonField(body, "refsPerSec").c_str(), nullptr);
        entries.push_back(std::move(e));
        pos = end + 1;
    }
    return entries;
}

namespace detail
{

/** Run a git command in `dir`; its stdout with the trailing newline
 * dropped, or nullopt when git cannot run or fails. */
inline std::optional<std::string>
gitOutput(const std::filesystem::path &dir, const std::string &args)
{
    const std::string command =
        "git -C '" + dir.string() + "' " + args + " 2>/dev/null";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return std::nullopt;
    std::string out;
    char buf[256];
    while (const std::size_t got = std::fread(buf, 1, sizeof buf, pipe))
        out.append(buf, got);
    if (pclose(pipe) != 0)
        return std::nullopt;
    if (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

} // namespace detail

/** The commit to stamp on a trajectory record: git's short HEAD hash
 * for the repository holding `dir` (benches run from build/), with
 * "-dirty" appended when tracked files differ from it. "unknown" when
 * git cannot run or no repository is found, so the bench also runs
 * from an exported tarball. */
inline std::string
headCommit(const std::filesystem::path &dir = ".")
{
    const std::optional<std::string> hash =
        detail::gitOutput(dir, "rev-parse --short=12 HEAD");
    const std::optional<std::string> status =
        detail::gitOutput(dir, "status --porcelain --untracked-files=no");
    if (!hash || hash->empty() || !status)
        return "unknown";
    return status->empty() ? *hash : *hash + "-dirty";
}

/** Today as YYYY-MM-DD (UTC), for trajectory records. */
inline std::string
utcDate()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[16];
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", tm.tm_year + 1900,
                  tm.tm_mon + 1, tm.tm_mday);
    return buf;
}

/**
 * Emit the machine-readable sweep artifact. Schema:
 *
 *   { "bench": "sweep", "threads": N,
 *     "wallSeconds": W, "serialWallSeconds": S, "speedup": S/W,
 *     "totals": { "cells": N, "references": R, "simCycles": C,
 *                 "refsPerSec": R/W },
 *     "trajectory": [ { "date", "commit", "threads", "refsPerSec" } ],
 *     "warm": { "warmRefs", "images", "coldWallSeconds",
 *               "buildWallSeconds", "warmWallSeconds", "speedup" },
 *     "cells": [ { "id", "model", "workload", "seed", "references",
 *                  "completed", "failed", "simCycles",
 *                  "simCyclesPerRef", "wallSeconds", "refsPerSec" } ] }
 *
 * serialWallSeconds/speedup are 0 when no threads=1 reference run was
 * taken; the "warm" block only appears for warm-start sweeps. The
 * trajectory array is the perf history: records recovered from any
 * existing artifact at `path` are preserved and this run's aggregate
 * throughput is appended, so the file carries refs/sec across
 * changes instead of only remembering the latest run.
 */
inline void
writeSweepJson(const std::string &path,
               const std::vector<CellResult> &results, unsigned threads,
               double wall_seconds, double serial_wall_seconds = 0.0,
               const WarmReport *warm = nullptr)
{
    u64 total_refs = 0;
    u64 total_cycles = 0;
    for (const CellResult &cell : results) {
        total_refs += cell.references;
        total_cycles += cell.simCycles;
    }

    // Recover the history before the ofstream truncates the file.
    std::vector<TrajectoryEntry> trajectory = readTrajectory(path);
    TrajectoryEntry now;
    now.date = utcDate();
    now.commit = headCommit();
    now.threads = threads;
    now.refsPerSec = wall_seconds > 0.0
                         ? static_cast<double>(total_refs) / wall_seconds
                         : 0.0;
    trajectory.push_back(std::move(now));

    std::ofstream os(path);
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "sweep");
    json.member("threads", threads);
    json.member("wallSeconds", wall_seconds);
    json.member("serialWallSeconds", serial_wall_seconds);
    json.member("speedup", wall_seconds > 0.0
                               ? serial_wall_seconds / wall_seconds
                               : 0.0);
    json.key("totals");
    json.beginObject();
    json.member("cells", static_cast<u64>(results.size()));
    json.member("references", total_refs);
    json.member("simCycles", total_cycles);
    json.member("refsPerSec",
                wall_seconds > 0.0
                    ? static_cast<double>(total_refs) / wall_seconds
                    : 0.0);
    json.endObject();
    json.key("trajectory");
    json.beginArray();
    for (const TrajectoryEntry &e : trajectory) {
        json.beginObject();
        json.member("date", e.date);
        json.member("commit", e.commit);
        json.member("threads", e.threads);
        json.member("refsPerSec", e.refsPerSec);
        json.endObject();
    }
    json.endArray();
    if (warm) {
        json.key("warm");
        json.beginObject();
        json.member("warmRefs", warm->warmRefs);
        json.member("images", warm->images);
        json.member("coldWallSeconds", warm->coldWallSeconds);
        json.member("buildWallSeconds", warm->buildWallSeconds);
        json.member("warmWallSeconds", warm->warmWallSeconds);
        json.member("speedup", warm->speedup());
        json.endObject();
    }
    json.key("cells");
    json.beginArray();
    for (const CellResult &cell : results) {
        json.beginObject();
        json.member("id", cell.id);
        json.member("model", cell.model);
        json.member("workload", cell.workload);
        json.member("seed", cell.seed);
        json.member("references", cell.references);
        json.member("completed", cell.completed);
        json.member("failed", cell.failed);
        json.member("simCycles", cell.simCycles);
        json.member("simCyclesPerRef",
                    cell.references
                        ? static_cast<double>(cell.simCycles) /
                              static_cast<double>(cell.references)
                        : 0.0);
        json.member("wallSeconds", cell.wallSeconds);
        json.member("refsPerSec", cell.refsPerSec);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

/** The sweep benches' standard stream recipes. */
inline std::vector<std::pair<std::string, StreamFactory>>
standardStreams()
{
    return {
        {"sequential",
         [](vm::VAddr base, u64 pages, u64) {
             return std::make_unique<wl::SequentialStream>(
                 base, pages * vm::kPageBytes, 64);
         }},
        {"uniform",
         [](vm::VAddr base, u64 pages, u64) {
             return std::make_unique<wl::UniformStream>(
                 base, pages * vm::kPageBytes);
         }},
        {"zipf",
         [](vm::VAddr base, u64 pages, u64 seed) {
             return std::make_unique<wl::ZipfPageStream>(base, pages, 0.8,
                                                         seed);
         }},
        {"working-set",
         [](vm::VAddr base, u64 pages, u64) {
             return std::make_unique<wl::WorkingSetStream>(
                 base, pages, pages / 8 ? pages / 8 : 1, 4096);
         }},
    };
}

} // namespace sasos::farm

#endif // SASOS_FARM_CAMPAIGN_HH
