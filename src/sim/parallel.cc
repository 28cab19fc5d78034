#include "sim/parallel.hh"

#include "sim/logging.hh"

namespace sasos
{

namespace
{

/** Which pool (if any) the current thread is a worker of, so that
 * submit() from inside a task lands on the caller's own deque. */
thread_local ThreadPool *tls_pool = nullptr;
thread_local unsigned tls_index = 0;

} // namespace

unsigned
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    queues_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(Task task)
{
    SASOS_ASSERT(task != nullptr, "null task submitted to the pool");
    unsigned target = tls_index;
    {
        // Count the task before it becomes visible: once pushed, a
        // thief may run and finish it at once, and its decrements
        // must never drive the counters through zero (which would
        // wake wait() with work still outstanding).
        std::lock_guard<std::mutex> lock(sleepMutex_);
        if (tls_pool != this)
            target = static_cast<unsigned>(nextQueue_++ % queues_.size());
        ++queued_;
        ++pending_;
    }
    {
        std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(sleepMutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
}

bool
ThreadPool::tryRun(unsigned self)
{
    Task task;
    // Own deque first, newest task (back): it is the cache-warm one.
    {
        Worker &own = *queues_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.back());
            own.tasks.pop_back();
        }
    }
    // Then steal the oldest task (front) from the first busy victim.
    for (unsigned step = 1; task == nullptr && step < queues_.size();
         ++step) {
        Worker &victim = *queues_[(self + step) % queues_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            task = std::move(victim.tasks.front());
            victim.tasks.pop_front();
        }
    }
    if (task == nullptr)
        return false;
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        --queued_;
    }
    task();
    finishTask();
    return true;
}

void
ThreadPool::finishTask()
{
    bool drained = false;
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        drained = --pending_ == 0;
    }
    if (drained)
        idle_.notify_all();
}

void
ThreadPool::workerLoop(unsigned self)
{
    tls_pool = this;
    tls_index = self;
    for (;;) {
        if (tryRun(self))
            continue;
        std::unique_lock<std::mutex> lock(sleepMutex_);
        wake_.wait(lock, [this] { return stop_ || queued_ > 0; });
        if (stop_ && queued_ == 0)
            return;
    }
}

} // namespace sasos
