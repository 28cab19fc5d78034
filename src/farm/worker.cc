#include "farm/worker.hh"

#include <csignal>

#include "farm/wire.hh"

namespace sasos::farm
{

namespace
{

/** Ship a checkpoint of the running execution. */
bool
sendImage(int wfd, const CellExecution &exec, bool stopped)
{
    Message message;
    message.kind = MsgKind::Image;
    message.cell = exec.cell().id;
    message.refsDone = exec.refsDone();
    message.completed = exec.completed();
    message.failed = exec.failed();
    message.stopped = stopped;
    message.image = exec.checkpoint().bytes;
    return writeFrame(wfd, encodeMessage(message));
}

/** Run one assignment (fresh or resumed) to completion, or to its
 * first checkpoint when the order says preemptFirst. @return false
 * when the coordinator is gone and the worker should exit. */
bool
serveCell(const Campaign &campaign, const Message &order, int wfd)
{
    const SweepCell *cell = campaign.byId(order.cell);
    if (cell == nullptr)
        SASOS_FATAL("farm worker assigned unknown cell id ", order.cell);
    const u32 tid = static_cast<u32>(cell->id) + 1;

    std::unique_ptr<CellExecution> exec;
    if (order.kind == MsgKind::Resume) {
        snap::Snapshot image;
        image.bytes = order.image;
        exec = std::make_unique<CellExecution>(
            *cell, tid, CellExecution::kForRestore);
        exec->resume(image, order.refsDone, order.completed, order.failed);
    } else {
        exec = std::make_unique<CellExecution>(*cell, tid);
    }

    // With no checkpoint cadence the whole cell is one slice.
    const u64 slice = order.checkpointEvery ? order.checkpointEvery
                                            : cell->references;
    for (exec->step(slice); !exec->done(); exec->step(slice)) {
        // A stopped image is the migration handle: the coordinator
        // resumes the cell on another worker from exactly this point.
        if (!sendImage(wfd, *exec, order.preemptFirst))
            return false;
        if (order.preemptFirst)
            return true;
    }

    Message done;
    done.kind = MsgKind::Done;
    done.cell = cell->id;
    done.result = exec->finish();
    return writeFrame(wfd, encodeMessage(done));
}

} // namespace

int
workerMain(const Campaign &campaign, int rfd, int wfd, u64 worker)
{
    // The coordinator may vanish (or SIGKILL a sibling holding the
    // pipe); writes must fail with EPIPE, not kill the process.
    std::signal(SIGPIPE, SIG_IGN);

    Message hello;
    hello.kind = MsgKind::Hello;
    hello.worker = worker;
    if (!writeFrame(wfd, encodeMessage(hello)))
        return 1;

    std::string err;
    for (;;) {
        std::vector<u8> frame;
        const ReadStatus status = readFrame(rfd, frame, err);
        if (status == ReadStatus::Eof)
            return 0;
        if (status == ReadStatus::Error)
            SASOS_FATAL("farm worker ", worker, ": ", err);
        const Message message = decodeMessage(frame);
        switch (message.kind) {
          case MsgKind::Shutdown:
            return 0;
          case MsgKind::Assign:
          case MsgKind::Resume:
            if (!serveCell(campaign, message, wfd))
                return 0;
            break;
          default:
            SASOS_FATAL("farm worker ", worker,
                        " got unexpected message kind ",
                        static_cast<unsigned>(message.kind));
        }
    }
}

} // namespace sasos::farm
