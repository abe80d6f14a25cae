/**
 * @file
 * Regenerates Table 2: compile time without and with IDL detection,
 * and the overhead percentage. (The paper reports an average overhead
 * of 82% for its solver; we report what our solver measures.)
 */
#include <chrono>
#include <cstdio>

#include "bench_common.h"

using namespace repro;

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    auto d = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

int
main()
{
    std::printf("Table 2: Compile time cost (milliseconds)\n");
    std::printf("%-8s %12s %12s %10s\n", "bench", "without IDL",
                "with IDL", "overhead");
    double total_without = 0, total_with = 0;
    const int reps = 5;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        double without_ms = 1e30, with_ms = 1e30;
        for (int r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            ir::Module m1;
            frontend::compileMiniCOrDie(b.source, m1);
            without_ms = std::min(without_ms, msSince(t0));

            auto t1 = std::chrono::steady_clock::now();
            ir::Module m2;
            frontend::compileMiniCOrDie(b.source, m2);
            driver::MatchingDriver{}.matchModule(m2);
            with_ms = std::min(with_ms, msSince(t1));
        }
        double overhead = (with_ms / without_ms - 1.0) * 100.0;
        std::printf("%-8s %12.2f %12.2f %9.0f%%\n", b.name.c_str(),
                    without_ms, with_ms, overhead);
        total_without += without_ms;
        total_with += with_ms;
    }
    std::printf("%-8s %12.2f %12.2f %9.0f%%\n", "all",
                total_without, total_with,
                (total_with / total_without - 1.0) * 100.0);
    std::printf("\nPaper: overhead ranges 24%%..484%%, average 82%%\n");
    return 0;
}
