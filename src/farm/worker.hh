/**
 * @file
 * The farm_worker entry point, run in a forked child of the
 * coordinator (fork without exec: a cell's StreamFactory is an
 * arbitrary closure, so the campaign definition rides into the child
 * as inherited memory instead of needing a serializable spec).
 *
 * The worker is a message loop over two inherited pipe fds: it
 * announces itself (Hello), then runs whatever cells the coordinator
 * assigns, one at a time. With a checkpoint cadence it ships a sealed
 * snapshot image every checkpointEvery references -- the
 * coordinator's resume point when this worker is killed. An order
 * flagged `preemptFirst` is the one way to stop a running cell: the
 * worker ships its first image flagged `stopped` and drops the cell,
 * so another worker can resume it. The worker reads no frame while a
 * cell runs; a vanished coordinator shows at the next write, which
 * fails with EPIPE (SIGPIPE is ignored), and the worker returns.
 * Every path ends in results bit-identical to an uninterrupted run,
 * which the farm oracle enforces.
 */

#ifndef SASOS_FARM_WORKER_HH
#define SASOS_FARM_WORKER_HH

#include "farm/campaign.hh"

namespace sasos::farm
{

/**
 * Serve cell assignments until Shutdown or EOF.
 * @param campaign the (inherited) campaign; cells are named by id.
 * @param rfd pipe end carrying coordinator -> worker frames.
 * @param wfd pipe end carrying worker -> coordinator frames.
 * @param worker this worker's farm index, echoed in Hello.
 * @return process exit status (0 on clean shutdown).
 */
int workerMain(const Campaign &campaign, int rfd, int wfd, u64 worker);

} // namespace sasos::farm

#endif // SASOS_FARM_WORKER_HH
