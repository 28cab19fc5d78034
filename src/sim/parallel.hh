/**
 * @file
 * The simulation driver's only host concurrency: an index loop fanned
 * out over a few threads.
 *
 * Large experiments are sweeps of independent (model x geometry x
 * workload x seed) cells; each cell owns a complete core::System, so
 * cells share no mutable state and parallelize perfectly. Workers
 * claim indices from one atomic counter. Determinism is the caller's
 * job and is easy: write results into a slot indexed by cell, never
 * into shared accumulators.
 */

#ifndef SASOS_SIM_PARALLEL_HH
#define SASOS_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "sim/types.hh"

namespace sasos
{

/** The `threads=` default: hardware concurrency, at least 1. */
inline unsigned
defaultThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Run fn(i) for every i in [0, n) and return when all have finished.
 * `threads` 0 means defaultThreads(). With one thread, or at most one
 * index, the loop runs inline on the calling thread (the threads=1
 * determinism baseline). Otherwise min(threads, n) workers run the
 * indices and the caller only waits, so its trace tid is left alone.
 * fn must not throw.
 */
template <typename Fn>
void
parallelFor(unsigned threads, u64 n, Fn &&fn)
{
    if (threads == 0)
        threads = defaultThreads();
    if (threads <= 1 || n <= 1) {
        for (u64 i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<u64> next{0};
    // Joined when the vector goes out of scope.
    std::vector<std::jthread> workers(std::min<u64>(threads, n));
    for (std::jthread &worker : workers) {
        worker = std::jthread([&] {
            for (u64 i = next++; i < n; i = next++)
                fn(i);
        });
    }
}

} // namespace sasos

#endif // SASOS_SIM_PARALLEL_HH
