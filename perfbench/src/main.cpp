/**
 * @file
 * perfbench: one command for the whole system.
 *
 *   perfbench --workload <suite-pipeline|service-edit|service-churn>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--units <n>] [--out <dir>]
 *
 * Prints host facts and informational lines prefixed with "# ", then,
 * as the last line, one JSON object {correct, attempted, failed,
 * metrics}. With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 (run perfbench_traced) they are the per-layer ones from a
 * traced phase, and the Chrome trace plus a per-layer aggregate are
 * written under --out. run.py checks the metric names and units
 * against BENCHMARK.json and puts them in its order. --units replaces the time bound by a fixed
 * amount of work (passes, or SUBMITs per client), for determinism
 * checks. Exits 1 when any output was wrong.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.h"

namespace {

using pb::Metric;

/** Equal time segments a phase's timing figures are taken over. */
constexpr size_t kSegments = 5;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<suite-pipeline|service-edit|service-churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--units <n>] [--out <dir>]\n",
                 msg);
    std::exit(2);
}

pb::Options
parseArgs(int argc, char **argv)
{
    pb::Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (a == "--units")
            o.units = std::strtoull(v, nullptr, 10);
        else if (a == "--out")
            o.outDir = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** End-to-end timing figures of a phase. */
struct Figures
{
    double throughput = 0, p50 = 0, p90 = 0, p99 = 0, compileMs = 0;
};

/** Figures over the units [b, e) of @p ph, completed in @p spanS. */
Figures
figures(const pb::Phase &ph, size_t b, size_t e, double spanS)
{
    Figures f;
    if (e <= b || spanS <= 0)
        return f;
    const std::vector<double> lat(ph.latencyMs.begin() + b,
                                  ph.latencyMs.begin() + e);
    double compile = 0;
    for (size_t i = b; i < e; ++i)
        compile += ph.compileMs[i];
    f.throughput = double(e - b) / spanS;
    f.p50 = pb::percentile(lat, 0.50);
    f.p90 = pb::percentile(lat, 0.90);
    f.p99 = pb::percentile(lat, 0.99);
    f.compileMs = compile / double(e - b) * ph.unitsPerCompileFigure;
    return f;
}

/**
 * Each timing is the median of its values over kSegments equal time
 * segments of the phase. Every unit of the run counts, in the segment
 * it completed in; no segment is chosen by what it measured. A burst of
 * neighbour load on a shared host moves at most a minority of the
 * segments, while a change that slows some units in every segment (a
 * slow path, periodic stalls) moves every segment's figure.
 */
Figures
segmentFigures(const pb::Phase &ph)
{
    std::vector<double> tput, p50, p90, p99, compile;
    const double len = ph.elapsedS / double(kSegments);
    for (size_t k = 0, b = 0; k < kSegments; ++k) {
        size_t e = b;
        while (e < ph.doneAtS.size() &&
               (k + 1 == kSegments || ph.doneAtS[e] < len * double(k + 1)))
            ++e;
        if (e > b) {
            const Figures f = figures(ph, b, e, len);
            tput.push_back(f.throughput);
            p50.push_back(f.p50);
            p90.push_back(f.p90);
            p99.push_back(f.p99);
            compile.push_back(f.compileMs);
        }
        b = e;
    }
    return {pb::median(tput), pb::median(p50), pb::median(p90),
            pb::median(p99), pb::median(compile)};
}

std::string
jsonMap(const std::map<std::string, double> &m)
{
    std::string out = "{";
    char buf[64];
    for (const auto &[k, v] : m) {
        std::snprintf(buf, sizeof(buf), "%.10g", v);
        out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
    }
    return out + "}";
}

/** The per-layer metrics every workload shares, from the trace. */
std::vector<Metric>
commonLayers(const pb::trace::Analysis &a, double n, double overheadMs)
{
    using pb::perUnitMs;
    auto perUnit = [n](double total) { return n > 0 ? total / n : 0; };
    std::vector<Metric> m;
    for (const char *stage : {"parse", "codegen", "mem2reg", "optimize"})
        m.push_back({std::string("frontend.") + stage + "_ms",
                     perUnitMs(a, std::string("frontend.") + stage, n),
                     "ms"});
    m.push_back({"frontend.ir_insts",
                 perUnit(double(pb::trace::counter(pb::trace::kIrInsts))),
                 "count"});
    m.push_back({"ir.verify_ms", perUnitMs(a, "ir.verify", n), "ms"});
    m.push_back(
        {"analysis.build_ms", perUnitMs(a, "analysis.build", n), "ms"});
    auto builds = a.byName.find("analysis.build");
    m.push_back({"analysis.builds",
                 builds == a.byName.end() ? 0
                                          : perUnit(double(builds->second.count)),
                 "count"});
    m.push_back({"solver.detect_ms", perUnitMs(a, "solver.detect", n), "ms"});
    for (const char *idiom : {"GEMM", "SPMV", "Stencil3D", "Stencil2D",
                              "Stencil1D", "Histogram", "Reduction"})
        m.push_back({std::string("solver.idiom.") + idiom + "_ms",
                     perUnitMs(a, std::string("solver.idiom.") + idiom, n),
                     "ms"});
    const double assignments =
        double(pb::trace::counter(pb::trace::kAssignments));
    const double solutions =
        double(pb::trace::counter(pb::trace::kSolutions));
    m.push_back({"solver.assignments", perUnit(assignments), "count"});
    m.push_back({"solver.checks",
                 perUnit(double(pb::trace::counter(pb::trace::kChecks))),
                 "count"});
    m.push_back({"solver.solutions", perUnit(solutions), "count"});
    m.push_back({"solver.yield",
                 assignments > 0 ? solutions / assignments : 0, "ratio"});
    m.push_back({"driver.match_ms", perUnitMs(a, "driver.match", n), "ms"});
    m.push_back({"driver.replay_ms", perUnitMs(a, "driver.replay", n), "ms"});
    m.push_back({"driver.store_ms", perUnitMs(a, "driver.store", n), "ms"});
    m.push_back({"service.lock_wait_ms",
                 perUnitMs(a, pb::trace::kLockWaitSpan, n), "ms"});
    for (const char *layer : {"frontend", "ir", "analysis", "solver",
                              "driver", "transform", "interp", "service",
                              "wait"}) {
        auto it = a.layerSelfMs.find(layer);
        m.push_back({std::string("self.") + layer + "_ms",
                     it == a.layerSelfMs.end() ? 0 : perUnit(it->second),
                     "ms"});
    }
    m.push_back({"trace.overhead_ms", overheadMs, "ms"});
    m.push_back({"trace.unattributed_ms", perUnit(a.unattributedMs), "ms"});
    m.push_back({"trace.coverage",
                 a.unitMs > 0 ? 1.0 - a.unattributedMs / a.unitMs : 0,
                 "ratio"});
    return m;
}

/** Write the per-name and per-layer aggregate of a traced phase. */
void
writeLayers(const std::string &path, const pb::trace::Analysis &a,
            const std::string &host)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "{\n  \"host\": %s,\n  \"units\": %zu,\n"
                    "  \"unit_ms_total\": %.6f,\n"
                    "  \"unattributed_ms_total\": %.6f,\n"
                    "  \"units_outside_5pct\": %zu,\n  \"spans\": {",
                 host.c_str(), a.units, a.unitMs, a.unattributedMs,
                 a.unitsOff);
    bool first = true;
    for (const auto &[name, s] : a.byName) {
        std::fprintf(f,
                     "%s\n    \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                     "\"self_ms\": %.6f, \"p50_ms\": %.6f, \"p99_ms\": %.6f}",
                     first ? "" : ",", name.c_str(),
                     (unsigned long long)s.count, s.totalMs, s.selfMs,
                     s.p50Ms, s.p99Ms);
        first = false;
    }
    std::fprintf(f, "\n  },\n  \"layer_self_ms\": {");
    first = true;
    for (const auto &[layer, ms] : a.layerSelfMs) {
        std::fprintf(f, "%s\n    \"%s\": %.6f", first ? "" : ",",
                     layer.c_str(), ms);
        first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options opts = parseArgs(argc, argv);
    std::unique_ptr<pb::Workload> wl;
    // Service set-ups take milliseconds: more of them steady the median.
    int setups = 41;
    if (opts.workload == "suite-pipeline") {
        wl = pb::makePipeline(opts);
        setups = 11;
    } else if (opts.workload == "service-edit") {
        wl = pb::makeService(opts, false);
    } else if (opts.workload == "service-churn") {
        wl = pb::makeService(opts, true);
    } else {
        usage(("unknown workload " + opts.workload).c_str());
    }
    std::filesystem::create_directories(opts.outDir);

    const std::string host = pb::hostFacts();
    std::printf("# host %s\n", host.c_str());

    try {
        // Set up several times and keep the last: setup_s is the median.
        std::vector<double> setupS;
        for (int r = 0; r < setups; ++r) {
            if (r > 0)
                wl->teardown();
            const double t0 = pb::nowS();
            wl->setup();
            setupS.push_back(pb::nowS() - t0);
        }

        uint64_t attempted = 0, failed = 0;
        std::vector<Metric> metrics;
        std::map<std::string, double> extra;
        if (!opts.trace) {
            pb::Phase ph = wl->measure(opts.seconds, opts.units);
            attempted += ph.latencyMs.size();
            failed += ph.failed;
            wl->teardown();
            failed += wl->verify();
            const Figures fig = segmentFigures(ph);
            metrics = {
                {"throughput_per_s", fig.throughput, "1/s"},
                {"latency_p50_ms", fig.p50, "ms"},
                {"latency_p90_ms", fig.p90, "ms"},
                {"setup_s", pb::median(setupS), "s"},
                {"peak_rss_mb", peakRssMb(), "MB"},
                {"compile_ms", fig.compileMs, "ms"},
            };
            for (const Metric &m : wl->endToEnd())
                metrics.push_back(m);
            const Figures run =
                figures(ph, 0, ph.latencyMs.size(), ph.elapsedS);
            extra["samples"] = double(ph.latencyMs.size());
            extra["segments"] = double(kSegments);
            // Not bounded: see METRICS.md on why the p99 is left out.
            extra["latency_p99_ms"] = fig.p99;
            extra["run_p50_ms"] = run.p50;
            extra["run_p99_ms"] = run.p99;
            extra["run_throughput_per_s"] = run.throughput;
        } else {
            // Untraced then traced phase of the same process: their p50
            // difference is the tracing overhead. Spans stay in memory,
            // so the traced phase is capped.
            const double tracedS = std::min(opts.seconds * 0.5, 8.0);
            pb::Phase plain =
                wl->measure(opts.seconds - tracedS, opts.units);
            pb::trace::reset();
            pb::trace::enable(true);
            pb::Phase traced = wl->measure(tracedS, opts.units);
            pb::trace::enable(false);
            attempted += plain.latencyMs.size() + traced.latencyMs.size();
            failed += plain.failed + traced.failed;
            wl->teardown();
            failed += wl->verify();

            const std::string stem = opts.outDir + "/" + opts.workload +
                                     "-seed" + std::to_string(opts.seed);
            pb::trace::Analysis a =
                pb::trace::analyze(stem + ".trace.json", 50000);
            writeLayers(stem + ".layers.json", a, host);
            const double overhead = pb::percentile(traced.latencyMs, 0.5) -
                                    pb::percentile(plain.latencyMs, 0.5);
            metrics = commonLayers(a, wl->workUnits(), overhead);
            for (const Metric &m : wl->layers(a))
                metrics.push_back(m);
            extra["untraced_p50_ms"] = pb::percentile(plain.latencyMs, 0.5);
            extra["traced_p50_ms"] = pb::percentile(traced.latencyMs, 0.5);
            extra["trace_units"] = double(a.units);
            extra["trace_spans"] = double(a.spans);
            extra["trace_units_outside_5pct"] = double(a.unitsOff);
            std::printf("# trace %s.trace.json %s.layers.json\n",
                        stem.c_str(), stem.c_str());
        }
        for (const auto &[k, v] : wl->info())
            extra[k] = v;
        extra["failed_ratio"] =
            attempted ? double(failed) / double(attempted) : 1.0;
        std::printf("# info %s\n", jsonMap(extra).c_str());
        std::string det;
        for (const auto &[k, v] : wl->deterministic())
            det += (det.empty() ? "{\"" : ", \"") + k +
                   "\": " + std::to_string(v);
        std::printf("# deterministic %s}\n", det.c_str());

        const bool correct = failed == 0 && attempted > 0;
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted) +
               ", \"failed\": " + std::to_string(failed) +
               ", \"metrics\": {";
        char buf[96];
        for (size_t i = 0; i < metrics.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
            out += (i ? ", \"" : "\"") + metrics[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   metrics[i].unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
