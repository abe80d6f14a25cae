/**
 * @file
 * The driver's internal shard pool (not part of the public API).
 */
#ifndef DRIVER_SHARDED_H
#define DRIVER_SHARDED_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::driver {

/** Resolve a requested worker count against the item count. */
inline unsigned
resolveThreads(unsigned requested, size_t numItems)
{
    if (requested == 0) {
        requested = std::thread::hardware_concurrency();
        if (requested == 0)
            requested = 1;
    }
    if (static_cast<size_t>(requested) > numItems)
        requested = static_cast<unsigned>(numItems ? numItems : 1);
    return requested;
}

/**
 * The work-stealing shard pool shared by matchModules (match and
 * transform stages), the transform-verification harness and the
 * fault-injection campaign:
 * @p work(item, worker) runs once per item index on one of
 * @p numThreads workers (already resolved via resolveThreads). One
 * shared counter is the queue: idle workers pop the next unclaimed
 * item, so expensive items do not serialize the tail. The first
 * exception wins, stops the pool, and is rethrown after the join.
 */
template <typename WorkFn>
void
runSharded(size_t numItems, unsigned numThreads, WorkFn &&work)
{
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errorMutex;
    std::exception_ptr firstError;

    auto worker = [&](unsigned w) {
        try {
            for (size_t i =
                     next.fetch_add(1, std::memory_order_relaxed);
                 i < numItems &&
                 !failed.load(std::memory_order_relaxed);
                 i = next.fetch_add(1, std::memory_order_relaxed)) {
                work(i, w);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!firstError)
                firstError = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
        }
    };

    if (numThreads <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(numThreads);
        try {
            for (unsigned w = 0; w < numThreads; ++w)
                pool.emplace_back(worker, w);
        } catch (...) {
            // Thread creation failed (resource exhaustion): drain the
            // queue with the started workers, then report the error —
            // destroying a joinable std::thread would terminate().
            failed.store(true, std::memory_order_relaxed);
            for (auto &t : pool)
                t.join();
            throw;
        }
        for (auto &t : pool)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace repro::driver

#endif // DRIVER_SHARDED_H
