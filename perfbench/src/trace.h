/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is (name, start, end, parent, unit). Each thread appends to
 * its own buffer, so recording takes no lock; the buffers are only
 * read after every recording thread has stopped. The recorder is off
 * unless enable(true) was called: a disabled Span costs one relaxed
 * atomic load.
 *
 * Span names are "<layer>.<stage>", e.g. "frontend.parse" or
 * "solver.idiom.GEMM"; the layer is the text before the first dot.
 * A unit is one measured piece of work (a suite program, a SUBMIT
 * round trip); its root span is the first span a thread opens while
 * that unit is current. Spans recorded on server threads carry no
 * unit; analyze() assigns them to the client unit whose root span
 * encloses them on the client named by their tag.
 *
 * A span opened while a "transform.*" span is the innermost open one
 * is not recorded: the passes a transform runs count as its own time.
 *
 * A "service.submit" span (MatchService::submit) first waits for the
 * service's session lock; analyze() moves the time before its first
 * child span into the pseudo-span "wait.session_lock" (layer "wait").
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb::trace {

/** Event counters the wrappers and workloads accumulate. */
enum Counter
{
    kAssignments,
    kChecks,
    kSolutions,
    kIrInsts,
    kNumCounters,
};

extern std::atomic<bool> gEnabled;
extern const char *const kSubmitSpan;
extern const char *const kLockWaitSpan;

inline bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void enable(bool on);

/** Monotonic clock in nanoseconds. */
int64_t nowNs();

/** A stable pointer for a dynamically built span name. */
const char *intern(const std::string &name);

/** Make @p unit the current unit of the calling thread (-1 = none). */
void setUnit(int64_t unit);

void add(Counter c, uint64_t v);
uint64_t counter(Counter c);

/** Drop every recorded span and zero the counters. */
void reset();

/** RAII span; @p tag identifies the client on server threads. */
class Span
{
  public:
    explicit Span(const char *name, int32_t tag = -1)
    {
        if (enabled())
            open(name, tag);
    }
    ~Span()
    {
        if (index_ >= 0)
            close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(const char *name, int32_t tag);
    void close();
    int32_t index_ = -1;
};

/**
 * Per-name aggregate over the spans inside a unit: self time over all
 * of them; count, total and percentiles over the outermost ones (a
 * span nested in one of the same name is not counted twice).
 */
struct NameStats
{
    uint64_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
    double p50Ms = 0;
    double p99Ms = 0;
};

/** Result of analyze(). */
struct Analysis
{
    std::map<std::string, NameStats> byName;
    /** Self time per layer, summed over all units. */
    std::map<std::string, double> layerSelfMs;
    size_t units = 0;
    /** Sum of unit latencies (root span durations). */
    double unitMs = 0;
    /** Root self time of "bench.*" roots: time no layer claims. */
    double unattributedMs = 0;
    /** Units whose layer self times miss their latency by > 5%. */
    size_t unitsOff = 0;
    size_t spans = 0;
};

/**
 * Resolve units, compute self times and aggregates, and write the
 * Chrome trace-event file @p chromePath (at most @p maxEvents spans;
 * "" = none).
 */
Analysis analyze(const std::string &chromePath, size_t maxEvents);

} // namespace pb::trace

#endif // PERFBENCH_TRACE_H
