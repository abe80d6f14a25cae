/**
 * @file
 * Shared types of the perfbench workloads: options, the measured
 * phase, metrics and small statistics helpers.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.h"
#include "trace.h"

namespace pb {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Fixed amount of work instead of a time bound (0 = time bound). */
    uint64_t units = 0;
    /** Directory for the trace files. */
    std::string outDir = ".bench_build/perfbench-out";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one measured phase saw. */
struct Phase
{
    /** Latency of every unit, in completion order (all threads). */
    std::vector<double> latencyMs;
    /** Completion time of every unit, seconds since the phase began. */
    std::vector<double> doneAtS;
    /** Compile-side time of every unit (see compile_ms). */
    std::vector<double> compileMs;
    /** Units whose compile times add up to one compile_ms figure. */
    double unitsPerCompileFigure = 1;
    double elapsedS = 0;
    uint64_t failed = 0;
};

/** splitmix64: the one source of seeded randomness. */
struct Rng
{
    uint64_t state;

    explicit Rng(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/** FNV-1a over a byte string, folded into @p h. */
inline uint64_t
fnv1a(uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile of an unsorted sample (copy). */
inline double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0;
    size_t k = static_cast<size_t>(p * static_cast<double>(xs.size() - 1) +
                                   0.5);
    std::nth_element(xs.begin(), xs.begin() + k, xs.end());
    return xs[k];
}

inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Static IR instructions of @p module. */
inline size_t
instructionCount(const repro::ir::Module &module)
{
    size_t n = 0;
    for (const auto &f : module.functions())
        for (const auto &bb : f->blocks())
            n += bb->insts().size();
    return n;
}

/** Mean span time of @p name per unit of work, in ms. */
inline double
perUnitMs(const trace::Analysis &a, const std::string &name,
          double units)
{
    auto it = a.byName.find(name);
    return it == a.byName.end() || units <= 0 ? 0
                                              : it->second.totalMs / units;
}

/**
 * A workload: set-up (repeatable; the last one is kept), measured
 * phases, then the output oracle over everything it recorded.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build all inputs and state the measured phases need. */
    virtual void setup() = 0;
    /** Drop the state of a set-up that will be repeated. */
    virtual void teardown() = 0;
    /** Run units for @p seconds, or @p units of work when non-zero. */
    virtual Phase measure(double seconds, uint64_t units) = 0;
    /** Check every recorded output; returns the number of failures. */
    virtual uint64_t verify() = 0;
    /** End-to-end metrics beyond the common ones. */
    virtual std::vector<Metric> endToEnd() = 0;
    /** Per-layer metrics of the last (traced) phase. */
    virtual std::vector<Metric> layers(const trace::Analysis &a) = 0;
    /** Further figures printed on an informational line. */
    virtual std::map<std::string, double> info() { return {}; }
    /** Counts that must repeat exactly for a given seed. */
    virtual std::map<std::string, uint64_t> deterministic() = 0;
    /** Units of work the per-layer metrics are normalised by. */
    virtual double workUnits() const = 0;
};

std::unique_ptr<Workload> makePipeline(const Options &opts);
std::unique_ptr<Workload> makeService(const Options &opts, bool churn);

/** Host facts printed with every run. */
std::string hostFacts();

} // namespace pb

#endif // PERFBENCH_BENCH_H
