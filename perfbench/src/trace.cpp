#include "trace.h"

#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_set>

namespace pb::trace {

std::atomic<bool> gEnabled{false};

const char *const kSubmitSpan = "service.submit";
const char *const kLockWaitSpan = "wait.session_lock";

namespace {

struct SpanRec
{
    const char *name;
    int64_t start;
    int64_t end;
    int32_t parent;
    int32_t tag;
    int64_t unit;
};

struct ThreadBuf
{
    std::vector<SpanRec> spans;
    std::vector<int32_t> stack;
    int64_t unit = -1;
    int tid = 0;
};

std::mutex gMutex;
std::vector<std::unique_ptr<ThreadBuf>> gBufs;
std::atomic<uint64_t> gCounters[kNumCounters];

ThreadBuf &
threadBuf()
{
    thread_local ThreadBuf *buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lock(gMutex);
        gBufs.push_back(std::make_unique<ThreadBuf>());
        buf = gBufs.back().get();
        buf->tid = static_cast<int>(gBufs.size());
    }
    return *buf;
}

void
writeJsonString(FILE *f, const char *s)
{
    std::fputc('"', f);
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            std::fputc('\\', f);
        std::fputc(*s, f);
    }
    std::fputc('"', f);
}

/** Layer of a span name: the text before its first dot. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

void
enable(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
intern(const std::string &name)
{
    static std::mutex m;
    static std::unordered_set<std::string> names;
    std::lock_guard<std::mutex> lock(m);
    return names.insert(name).first->c_str();
}

void
setUnit(int64_t unit)
{
    threadBuf().unit = unit;
}

void
add(Counter c, uint64_t v)
{
    gCounters[c].fetch_add(v, std::memory_order_relaxed);
}

uint64_t
counter(Counter c)
{
    return gCounters[c].load(std::memory_order_relaxed);
}

void
reset()
{
    std::lock_guard<std::mutex> lock(gMutex);
    for (auto &b : gBufs) {
        b->spans.clear();
        b->stack.clear();
    }
    for (auto &c : gCounters)
        c.store(0);
}

void
Span::open(const char *name, int32_t tag)
{
    ThreadBuf &b = threadBuf();
    int32_t parent = b.stack.empty() ? -1 : b.stack.back();
    // The clean-up passes and analyses a transform runs are transform
    // work: they stay in the enclosing transform span's self time.
    if (parent >= 0 &&
        std::strncmp(b.spans[parent].name, "transform.", 10) == 0)
        return;
    index_ = static_cast<int32_t>(b.spans.size());
    b.spans.push_back({name, nowNs(), 0, parent, tag, b.unit});
    b.stack.push_back(index_);
}

void
Span::close()
{
    ThreadBuf &b = threadBuf();
    b.spans[index_].end = nowNs();
    if (!b.stack.empty() && b.stack.back() == index_)
        b.stack.pop_back();
}

Analysis
analyze(const std::string &chromePath, size_t maxEvents)
{
    std::lock_guard<std::mutex> lock(gMutex);
    Analysis a;

    // Unit roots per client tag, in start order.
    struct Root
    {
        int64_t start, end;
        ThreadBuf *buf;
        int32_t index;
    };
    std::map<int32_t, std::vector<Root>> roots;
    for (auto &b : gBufs) {
        for (size_t i = 0; i < b->spans.size(); ++i) {
            const SpanRec &s = b->spans[i];
            if (s.unit >= 0 && s.parent < 0 && s.end > 0)
                roots[s.tag].push_back(
                    {s.start, s.end, b.get(), static_cast<int32_t>(i)});
        }
    }
    for (auto &[tag, rs] : roots)
        std::sort(rs.begin(), rs.end(),
                  [](const Root &x, const Root &y) {
                      return x.start < y.start;
                  });

    // Server-thread spans: attach each top-level span to the unit of
    // the client (thread tag) whose root encloses it; children inherit.
    std::map<std::pair<ThreadBuf *, int32_t>, int64_t> crossChildNs;
    for (auto &b : gBufs) {
        int32_t client = -1;
        for (const SpanRec &s : b->spans) {
            if (s.unit < 0 && s.tag >= 0) {
                client = s.tag;
                break;
            }
        }
        for (SpanRec &s : b->spans) {
            if (s.unit >= 0 || s.end == 0)
                continue;
            if (s.parent >= 0) {
                s.unit = b->spans[s.parent].unit;
                continue;
            }
            auto it = roots.find(client);
            if (client < 0 || it == roots.end())
                continue;
            const auto &rs = it->second;
            auto r = std::upper_bound(
                rs.begin(), rs.end(), s.start,
                [](int64_t t, const Root &x) { return t < x.start; });
            if (r == rs.begin())
                continue;
            --r;
            if (s.start > r->end || s.end > r->end)
                continue;
            s.unit = r->buf->spans[r->index].unit;
            crossChildNs[{r->buf, r->index}] += s.end - s.start;
        }
    }

    // Self times, per-name and per-layer aggregates.
    std::map<std::string, std::vector<double>> durs;
    std::map<int64_t, double> unitLatency, unitLayerSelf;
    int64_t t0 = INT64_MAX;
    for (auto &b : gBufs) {
        std::vector<int64_t> childNs(b->spans.size(), 0);
        std::vector<int64_t> firstChild(b->spans.size(), INT64_MAX);
        for (const SpanRec &s : b->spans) {
            if (s.unit >= 0 && s.end > 0 && s.parent >= 0) {
                childNs[s.parent] += s.end - s.start;
                firstChild[s.parent] =
                    std::min(firstChild[s.parent], s.start);
            }
        }
        for (size_t i = 0; i < b->spans.size(); ++i) {
            const SpanRec &s = b->spans[i];
            if (s.unit < 0 || s.end == 0)
                continue;
            t0 = std::min(t0, s.start);
            auto cross = crossChildNs.find({b.get(), int32_t(i)});
            int64_t children =
                childNs[i] +
                (cross == crossChildNs.end() ? 0 : cross->second);
            double durMs = double(s.end - s.start) / 1e6;
            double selfMs = double(s.end - s.start - children) / 1e6;
            if (std::strcmp(s.name, kSubmitSpan) == 0 &&
                firstChild[i] != INT64_MAX) {
                // MatchService::submit takes the session lock before its
                // first traced call: that gap is waiting, not service work.
                const double waitMs = double(firstChild[i] - s.start) / 1e6;
                selfMs -= waitMs;
                NameStats &w = a.byName[kLockWaitSpan];
                ++w.count;
                w.totalMs += waitMs;
                w.selfMs += waitMs;
                durs[kLockWaitSpan].push_back(waitMs);
                a.layerSelfMs[layerOf(kLockWaitSpan)] += waitMs;
                unitLayerSelf[s.unit] += waitMs;
            }
            NameStats &ns = a.byName[s.name];
            ns.selfMs += selfMs;
            // A span inside one of the same name (optimizeFunction
            // calling aggressiveDCE) is already in its parent's total.
            if (s.parent < 0 ||
                std::strcmp(b->spans[s.parent].name, s.name) != 0) {
                ++ns.count;
                ns.totalMs += durMs;
                durs[s.name].push_back(durMs);
            }
            std::string layer = layerOf(s.name);
            a.layerSelfMs[layer] += selfMs;
            if (layer == "bench")
                a.unattributedMs += selfMs;
            else
                unitLayerSelf[s.unit] += selfMs;
            ++a.spans;
        }
    }
    for (auto &[tag, rs] : roots) {
        for (const Root &r : rs) {
            const SpanRec &s = r.buf->spans[r.index];
            unitLatency[s.unit] = double(s.end - s.start) / 1e6;
        }
    }
    for (auto &[name, ds] : durs) {
        a.byName[name].p50Ms = pb::percentile(ds, 0.50);
        a.byName[name].p99Ms = pb::percentile(ds, 0.99);
    }
    for (auto &[unit, latency] : unitLatency) {
        ++a.units;
        a.unitMs += latency;
        double covered = unitLayerSelf[unit];
        if (latency > 0 && std::abs(latency - covered) > 0.05 * latency)
            ++a.unitsOff;
    }

    if (chromePath.empty())
        return a;
    FILE *f = std::fopen(chromePath.c_str(), "w");
    if (!f)
        return a;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    size_t written = 0;
    for (auto &b : gBufs) {
        for (const SpanRec &s : b->spans) {
            if (s.unit < 0 || s.end == 0 || written >= maxEvents)
                continue;
            std::fprintf(f, "%s\n{\"name\":", written ? "," : "");
            writeJsonString(f, s.name);
            std::fprintf(f,
                         ",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                         "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                         "\"args\":{\"unit\":%lld,\"parent\":%d}}",
                         layerOf(s.name).c_str(),
                         double(s.start - t0) / 1e3,
                         double(s.end - s.start) / 1e3, b->tid,
                         static_cast<long long>(s.unit), s.parent);
            ++written;
        }
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return a;
}

} // namespace pb::trace
