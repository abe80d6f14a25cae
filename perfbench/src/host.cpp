#include <cstdio>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.h"

namespace pb {

namespace {

/** A fixed amount of dependent integer work the optimizer keeps. */
uint64_t
spin(uint64_t iterations)
{
    volatile uint64_t sink = 0;
    uint64_t x = 1;
    for (uint64_t i = 0; i < iterations; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    return sink;
}

/** Seconds for @p threads threads to each spin @p iterations. */
double
spinSeconds(unsigned threads, uint64_t iterations)
{
    double t0 = nowS();
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t)
        ts.emplace_back([iterations] { spin(iterations); });
    for (auto &t : ts)
        t.join();
    return nowS() - t0;
}

} // namespace

std::string
hostFacts()
{
    const uint64_t iterations = 20'000'000;
    spinSeconds(1, iterations / 4); // warm up the clock
    const double one = spinSeconds(1, iterations);
    const double two = spinSeconds(2, iterations);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\": %ld, \"spin_1t_s\": %.4f, "
                  "\"spin_2t_s\": %.4f, \"parallel_efficiency_2t\": %.3f, "
                  "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                  "\"traced_binary\": %s}",
                  ::sysconf(_SC_NPROCESSORS_ONLN), one, two,
                  two > 0 ? one / two : 0.0, PB_BUILD_TYPE, __VERSION__,
                  PB_TRACED ? "true" : "false");
    return buf;
}

} // namespace pb
