#include "farm/coordinator.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <limits>
#include <memory>
#include <poll.h>
#include <stdexcept>
#include <sys/wait.h>
#include <unistd.h>

#include "farm/wire.hh"
#include "farm/worker.hh"

/** gcov's flush hook; present only in --coverage builds. Forked
 * workers exit through _exit (no atexit, no inherited-state
 * teardown), which would otherwise drop their coverage counters. */
extern "C" void __gcov_dump(void) __attribute__((weak));

namespace sasos::farm
{

FarmOptions
FarmOptions::fromOptions(const Options &options)
{
    FarmOptions o;
    const u64 workers = options.getU64("farm_workers", o.workers);
    if (workers > 1024) {
        SASOS_FATAL("option 'farm_workers': must be at most 1024, got ",
                    workers);
    }
    o.workers = static_cast<unsigned>(workers);
    o.checkpointEvery =
        options.getU64("farm_checkpoint_every", o.checkpointEvery);
    const auto probability = [&](const char *key, double def) {
        const double p = options.getDouble(key, def);
        if (!(p >= 0.0 && p <= 1.0))
            SASOS_FATAL("option '", key, "': must be in [0, 1], got ", p);
        return p;
    };
    o.killRate = probability("farm_kill_rate", o.killRate);
    o.migrateRate = probability("farm_migrate_rate", o.migrateRate);
    o.killSeed = options.getU64("farm_kill_seed", o.killSeed);
    o.timeoutSec = options.getDouble("farm_timeout", o.timeoutSec);
    if (!(o.timeoutSec > 0.0)) {
        SASOS_FATAL("option 'farm_timeout': must be above 0, got ",
                    o.timeoutSec);
    }
    const u64 attempts =
        options.getU64("farm_max_attempts", o.maxAttempts);
    if (attempts == 0 || attempts > std::numeric_limits<unsigned>::max()) {
        SASOS_FATAL("option 'farm_max_attempts': must be in [1, ",
                    std::numeric_limits<unsigned>::max(), "], got ",
                    attempts);
    }
    o.maxAttempts = static_cast<unsigned>(attempts);
    return o;
}

namespace
{

using Clock = std::chrono::steady_clock;

void
flushChildStreams()
{
    std::fflush(stdout);
    std::fflush(stderr);
}

[[noreturn]] void
exitChild(int status)
{
    if (__gcov_dump)
        __gcov_dump();
    ::_exit(status);
}

/** decodeMessage with the fatal rerouted into a rejection, so a
 * garbage frame from a worker is the *worker's* problem. */
struct FrameRejected : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

bool
tryDecode(const std::vector<u8> &frame, Message &out, std::string &err)
{
    FatalHandler previous =
        setFatalHandler([](const std::string &message) -> void {
            throw FrameRejected(message);
        });
    bool ok = true;
    try {
        out = decodeMessage(frame);
    } catch (const FrameRejected &rejection) {
        err = rejection.what();
        ok = false;
    }
    setFatalHandler(previous);
    return ok;
}

constexpr u64 kNoWorker = ~u64{0};

/** A queued unit of work: a cell to start from scratch or to resume
 * from a checkpoint image. */
struct PendingWork
{
    std::size_t index = 0;
    std::shared_ptr<const std::vector<u8>> image;
    u64 refsDone = 0;
    u64 completed = 0;
    u64 failed = 0;
    /** Worker that last held the cell; migrations prefer a
     * different one. */
    u64 lastWorker = kNoWorker;
};

/** Per-cell campaign bookkeeping. */
struct CellState
{
    unsigned attempts = 0;
    bool done = false;
    /** Chaos is decided once, at first assignment, so a hostile
     * schedule cannot livelock a cell. */
    bool chaosDecided = false;
    bool doomKill = false;
    u64 killAfterImages = 0;
    bool migratePlanned = false;
};

struct WorkerSlot
{
    pid_t pid = -1;
    int rfd = -1;
    int wfd = -1;
    u64 index = kNoWorker;
    bool alive = false;
    bool idle = false;
    /** Campaign position of the assigned cell; -1 when idle. */
    long cell = -1;
    /** One-shot chaos kill armed for the current assignment. */
    bool doomed = false;
    u64 killAfterImages = 0;
    u64 imagesThisCell = 0;
    /** Latest accepted checkpoint for the current assignment. */
    std::shared_ptr<const std::vector<u8>> image;
    u64 refsDone = 0;
    u64 completed = 0;
    u64 failed = 0;
    Clock::time_point lastActive;
    FrameBuffer frames;
};

class Coordinator
{
  public:
    Coordinator(const Campaign &campaign, const FarmOptions &options)
        : campaign_(campaign),
          options_(options),
          chaosRng_(options.killSeed)
    {
    }

    FarmResult
    run()
    {
        const auto start = Clock::now();
        FarmResult out;
        const std::size_t total = campaign_.size();
        results_.resize(total);
        cells_.resize(total);
        if (total == 0) {
            out.ok = true;
            return out;
        }

        // A dead peer must surface as a failed write, not SIGPIPE.
        struct sigaction ignore{};
        struct sigaction oldPipe{};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, &oldPipe);

        for (std::size_t i = 0; i < total; ++i) {
            PendingWork work;
            work.index = i;
            queue_.push_back(std::move(work));
        }

        const unsigned width =
            options_.workers > 0 ? options_.workers : 1;
        slots_.resize(width);
        for (WorkerSlot &slot : slots_)
            spawn(slot);

        while (done_ < total && !failed()) {
            assignIdle();
            pollWorkers();
            enforceTimeouts();
        }

        shutdownAll();
        ::sigaction(SIGPIPE, &oldPipe, nullptr);

        out.ok = !failed() && done_ == total;
        out.error = error_;
        out.results = std::move(results_);
        out.stats = stats_;
        out.wallSeconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        return out;
    }

  private:
    bool failed() const { return !error_.empty(); }

    void
    fail(std::string why)
    {
        if (error_.empty())
            error_ = std::move(why);
    }

    void
    spawn(WorkerSlot &slot)
    {
        int toWorker[2];
        int fromWorker[2];
        if (::pipe(toWorker) != 0 || ::pipe(fromWorker) != 0) {
            fail(std::string("pipe: ") + std::strerror(errno));
            return;
        }
        flushChildStreams();
        const u64 index = nextWorkerIndex_++;
        const pid_t pid = ::fork();
        if (pid < 0) {
            fail(std::string("fork: ") + std::strerror(errno));
            ::close(toWorker[0]);
            ::close(toWorker[1]);
            ::close(fromWorker[0]);
            ::close(fromWorker[1]);
            return;
        }
        if (pid == 0) {
            // Child: drop every other worker's parent-side pipe end,
            // so a sibling's death is visible to the coordinator as
            // EOF the moment it happens.
            for (const WorkerSlot &other : slots_) {
                if (other.rfd >= 0)
                    ::close(other.rfd);
                if (other.wfd >= 0)
                    ::close(other.wfd);
            }
            ::close(toWorker[1]);
            ::close(fromWorker[0]);
            const int status =
                workerMain(campaign_, toWorker[0], fromWorker[1], index);
            exitChild(status);
        }
        ::close(toWorker[0]);
        ::close(fromWorker[1]);
        ::fcntl(fromWorker[0], F_SETFL,
                ::fcntl(fromWorker[0], F_GETFL) | O_NONBLOCK);
        slot = WorkerSlot{};
        slot.pid = pid;
        slot.rfd = fromWorker[0];
        slot.wfd = toWorker[1];
        slot.index = index;
        slot.alive = true;
        slot.idle = false; // Until its Hello arrives.
        slot.lastActive = Clock::now();
        ++stats_.forks;
    }

    /** Pick queued work for this slot; migrated cells prefer any
     * other worker when one is alive to take them. */
    bool
    takeWork(const WorkerSlot &slot, PendingWork &work)
    {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->lastWorker == slot.index && otherWorkerAlive(slot)) {
                continue;
            }
            work = std::move(*it);
            queue_.erase(it);
            return true;
        }
        return false;
    }

    bool
    otherWorkerAlive(const WorkerSlot &slot) const
    {
        for (const WorkerSlot &other : slots_)
            if (other.alive && other.index != slot.index)
                return true;
        return false;
    }

    void
    assignIdle()
    {
        for (WorkerSlot &slot : slots_) {
            if (failed() || queue_.empty())
                return;
            if (!slot.alive || !slot.idle)
                continue;
            PendingWork work;
            if (!takeWork(slot, work))
                continue;
            CellState &cell = cells_[work.index];
            if (cell.done)
                continue;
            ++cell.attempts;
            if (cell.attempts > options_.maxAttempts) {
                fail("cell id " +
                     std::to_string(campaign_.cells()[work.index].id) +
                     " exceeded " + std::to_string(options_.maxAttempts) +
                     " attempts");
                return;
            }
            if (!cell.chaosDecided) {
                cell.chaosDecided = true;
                cell.doomKill = chaosRng_.bernoulli(options_.killRate);
                cell.killAfterImages =
                    (cell.doomKill && options_.checkpointEvery)
                        ? chaosRng_.nextBelow(3)
                        : 0;
                cell.migratePlanned =
                    options_.checkpointEvery
                        ? chaosRng_.bernoulli(options_.migrateRate)
                        : false;
            }

            Message order;
            order.cell = campaign_.cells()[work.index].id;
            order.checkpointEvery = options_.checkpointEvery;
            if (work.image) {
                // Hand-off preflight: never ship a corrupt image to a
                // worker; fall back to restarting the cell.
                const std::string bad = snap::preflightEnvelope(*work.image);
                if (bad.empty()) {
                    order.kind = MsgKind::Resume;
                    order.refsDone = work.refsDone;
                    order.completed = work.completed;
                    order.failed = work.failed;
                    order.image = *work.image;
                    ++stats_.resumes;
                } else {
                    ++stats_.rejectedImages;
                    work.image.reset();
                    work.refsDone = work.completed = work.failed = 0;
                    order.kind = MsgKind::Assign;
                }
            } else {
                order.kind = MsgKind::Assign;
            }
            // A planned migration rides in the order: the worker
            // checkpoints once, ships the image stopped, and drops
            // the cell, at a point fixed by the order alone.
            if (cell.migratePlanned && options_.checkpointEvery)
                order.preemptFirst = true;

            if (!writeFrame(slot.wfd, encodeMessage(order))) {
                // Worker died before taking the order; put the work
                // back untouched and reap the slot.
                --cell.attempts;
                if (order.kind == MsgKind::Resume)
                    --stats_.resumes;
                queue_.push_front(std::move(work));
                reap(slot);
                continue;
            }

            slot.idle = false;
            slot.cell = static_cast<long>(work.index);
            slot.imagesThisCell = 0;
            slot.image = work.image;
            slot.refsDone = work.refsDone;
            slot.completed = work.completed;
            slot.failed = work.failed;
            slot.lastActive = Clock::now();
            slot.doomed = cell.doomKill;
            slot.killAfterImages = cell.killAfterImages;
            cell.doomKill = false; // One-shot.
            if (order.preemptFirst) {
                cell.migratePlanned = false; // One-shot.
                ++stats_.preempts;
            }

            if (slot.doomed && slot.killAfterImages == 0)
                chaosKill(slot);
        }
    }

    void
    chaosKill(WorkerSlot &slot)
    {
        slot.doomed = false;
        ++stats_.chaosKills;
        ::kill(slot.pid, SIGKILL);
        // Reap now rather than at the pipe's EOF. Frames the worker
        // wrote before dying (even the cell's Done) are dropped with
        // it, and the slot cannot take a new order in between, so each
        // kill costs its cell exactly one retry however fast the
        // worker ran.
        reap(slot);
    }

    void
    pollWorkers()
    {
        std::vector<struct pollfd> fds;
        std::vector<WorkerSlot *> owners;
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            struct pollfd pfd;
            pfd.fd = slot.rfd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            fds.push_back(pfd);
            owners.push_back(&slot);
        }
        if (fds.empty()) {
            if (done_ < campaign_.size())
                fail("no workers left alive");
            return;
        }
        const int ready = ::poll(fds.data(), fds.size(), 50);
        if (ready <= 0)
            return;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (failed())
                return;
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                drain(*owners[i]);
        }
    }

    /** Read everything available from a worker and act on it. */
    void
    drain(WorkerSlot &slot)
    {
        const pid_t pid = slot.pid;
        bool eof = false;
        u8 chunk[65536];
        for (;;) {
            const ssize_t n = ::read(slot.rfd, chunk, sizeof chunk);
            if (n > 0) {
                slot.frames.feed(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            eof = true; // Treat a read error like a death.
            break;
        }

        std::vector<u8> frame;
        for (;;) {
            const int got = slot.frames.next(frame);
            if (got == 0)
                break;
            if (got < 0) {
                ++stats_.poisonedFrames;
                ::kill(slot.pid, SIGKILL);
                reap(slot);
                return;
            }
            Message message;
            std::string err;
            if (!tryDecode(frame, message, err)) {
                ++stats_.poisonedFrames;
                ::kill(slot.pid, SIGKILL);
                reap(slot);
                return;
            }
            handle(slot, message);
            // Reaped, and possibly respawned: the rest of the stream,
            // and its EOF, belonged to the dead worker.
            if (!slot.alive || slot.pid != pid)
                return;
        }
        if (eof)
            reap(slot);
    }

    void
    handle(WorkerSlot &slot, const Message &message)
    {
        slot.lastActive = Clock::now();
        switch (message.kind) {
          case MsgKind::Hello:
            slot.idle = true;
            return;
          case MsgKind::Image:
            handleImage(slot, message);
            return;
          case MsgKind::Done:
            handleDone(slot, message);
            return;
          default:
            ++stats_.poisonedFrames;
            ::kill(slot.pid, SIGKILL);
            reap(slot);
            return;
        }
    }

    void
    handleImage(WorkerSlot &slot, const Message &message)
    {
        if (slot.cell < 0 ||
            campaign_.cells()[static_cast<std::size_t>(slot.cell)].id !=
                message.cell) {
            ++stats_.poisonedFrames;
            ::kill(slot.pid, SIGKILL);
            reap(slot);
            return;
        }
        ++stats_.checkpointImages;
        // Acceptance preflight: a corrupt image must never become a
        // resume point. The worker that produced it is suspect.
        const std::string bad = snap::preflightEnvelope(message.image);
        if (!bad.empty()) {
            ++stats_.rejectedImages;
            ::kill(slot.pid, SIGKILL);
            reap(slot);
            return;
        }
        if (message.stopped) {
            // The worker preempted the cell; migrate it. Requeue at
            // the front, preferring a different worker.
            PendingWork work;
            work.index = static_cast<std::size_t>(slot.cell);
            work.image = std::make_shared<const std::vector<u8>>(
                message.image);
            work.refsDone = message.refsDone;
            work.completed = message.completed;
            work.failed = message.failed;
            work.lastWorker = slot.index;
            queue_.push_front(std::move(work));
            ++stats_.migrations;
            slot.cell = -1;
            slot.idle = true;
            slot.image.reset();
            return;
        }
        slot.image =
            std::make_shared<const std::vector<u8>>(message.image);
        slot.refsDone = message.refsDone;
        slot.completed = message.completed;
        slot.failed = message.failed;
        ++slot.imagesThisCell;
        if (slot.doomed && slot.imagesThisCell >= slot.killAfterImages)
            chaosKill(slot);
    }

    void
    handleDone(WorkerSlot &slot, const Message &message)
    {
        if (slot.cell < 0 ||
            campaign_.cells()[static_cast<std::size_t>(slot.cell)].id !=
                message.cell) {
            ++stats_.poisonedFrames;
            ::kill(slot.pid, SIGKILL);
            reap(slot);
            return;
        }
        const std::size_t index = static_cast<std::size_t>(slot.cell);
        CellState &cell = cells_[index];
        if (cell.done) {
            // A reassigned cell finished twice; dedup by id. The two
            // results must agree -- cells are pure functions.
            ++stats_.duplicateResults;
            const CellResult &have = results_[index];
            if (have.statsDump != message.result.statsDump ||
                have.simCycles != message.result.simCycles)
                fail("duplicate results for cell id " +
                     std::to_string(message.cell) + " diverged");
        } else {
            results_[index] = message.result;
            cell.done = true;
            ++done_;
        }
        slot.cell = -1;
        slot.idle = true;
        slot.doomed = false;
        slot.image.reset();
    }

    /** A worker is gone: collect the corpse, requeue its cell from
     * the last good checkpoint (back of the queue -- the retry
     * backoff), and refill the pool while work remains. */
    void
    reap(WorkerSlot &slot)
    {
        if (!slot.alive)
            return;
        ++stats_.deaths;
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        ::close(slot.rfd);
        ::close(slot.wfd);
        slot.rfd = slot.wfd = -1;
        slot.alive = false;
        if (slot.cell >= 0 &&
            !cells_[static_cast<std::size_t>(slot.cell)].done) {
            ++stats_.retries;
            PendingWork work;
            work.index = static_cast<std::size_t>(slot.cell);
            work.image = slot.image;
            work.refsDone = slot.refsDone;
            work.completed = slot.completed;
            work.failed = slot.failed;
            queue_.push_back(std::move(work));
        }
        slot.cell = -1;
        slot.image.reset();
        if (done_ < campaign_.size() && !failed())
            spawn(slot);
    }

    void
    enforceTimeouts()
    {
        const auto now = Clock::now();
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive || slot.idle)
                continue;
            const double silent =
                std::chrono::duration<double>(now - slot.lastActive)
                    .count();
            if (silent > options_.timeoutSec) {
                ++stats_.timeouts;
                ::kill(slot.pid, SIGKILL);
                reap(slot);
            }
        }
    }

    void
    shutdownAll()
    {
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            if (failed()) {
                ::kill(slot.pid, SIGKILL);
            } else {
                Message bye;
                bye.kind = MsgKind::Shutdown;
                writeFrame(slot.wfd, encodeMessage(bye));
            }
            ::close(slot.wfd);
            slot.wfd = -1;
        }
        // Give clean exits a moment; a worker stuck mid-write gets
        // its pipe drained by the close below, a stuck one is shot.
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            // Drain until EOF so a worker blocked writing a large
            // frame can finish its write and exit.
            u8 chunk[65536];
            for (;;) {
                const ssize_t n = ::read(slot.rfd, chunk, sizeof chunk);
                if (n > 0)
                    continue;
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    if (Clock::now() > deadline) {
                        ::kill(slot.pid, SIGKILL);
                        break;
                    }
                    struct pollfd pfd;
                    pfd.fd = slot.rfd;
                    pfd.events = POLLIN;
                    pfd.revents = 0;
                    ::poll(&pfd, 1, 100);
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                break; // EOF or hard error: the worker is gone.
            }
            int status = 0;
            ::waitpid(slot.pid, &status, 0);
            ::close(slot.rfd);
            slot.rfd = -1;
            slot.alive = false;
        }
    }

    const Campaign &campaign_;
    const FarmOptions &options_;
    Rng chaosRng_;
    std::vector<WorkerSlot> slots_;
    std::deque<PendingWork> queue_;
    std::vector<CellState> cells_;
    std::vector<CellResult> results_;
    FarmStats stats_;
    std::size_t done_ = 0;
    u64 nextWorkerIndex_ = 0;
    std::string error_;
};

} // namespace

FarmResult
runFarm(const Campaign &campaign, const FarmOptions &options)
{
    Coordinator coordinator(campaign, options);
    return coordinator.run();
}

} // namespace sasos::farm
