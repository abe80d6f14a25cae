/**
 * @file
 * Snapshot persistence of the matching service: save, load and the
 * warm-restart round, the part of the service path perfbench's
 * socket workloads never exercise.
 *
 * Each client owns a module of ~10 functions (idiomatic kernels —
 * reduction, histogram, stencil, gemm-like nest — plus plain
 * helpers), seeded with client-specific constants so every client's
 * first submission is a genuine cold solve. Those cold submissions
 * fill the MatchCache; the cache is then snapshotted to disk and
 * restored into a fresh service (a simulated daemon restart, what
 * --snapshot= does), and every client resubmits its module against
 * the recovered cache. Reported: save/load cost, snapshot size, and
 * the restart round's latency and hit rate, written as
 * BENCH_service.json. Exits non-zero when the restart hit rate falls
 * below 90%. Request latency and the steady-state hit rate of an
 * edit trace are perfbench's service-edit workload
 * (`python3 perfbench/run.py --workload service-edit --seed 1
 * --seconds 10 --trace 0`).
 *
 * Flags:
 *   --json=PATH    output path (default BENCH_service.json)
 *   --clients=N    client modules (default 8)
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "driver/cache_snapshot.h"
#include "service/service.h"

using namespace repro;

namespace {

constexpr size_t kFunctionsPerModule = 10;

/**
 * The synthetic module: ten functions whose loop bounds / constants
 * come from @p knobs (one knob per function), so clients with
 * different knobs submit structurally different functions.
 */
std::string
moduleSource(const std::vector<int> &knobs)
{
    const int *k = knobs.data();
    std::ostringstream os;
    os << "void reduce_sum(double *a, double *out) {\n"
          "    double s = 0.0;\n"
          "    for (int i = 0; i < " << 100 + k[0] << "; i++)\n"
          "        s = s + a[i];\n"
          "    out[0] = s;\n"
          "}\n"
          "void reduce_dot(double *a, double *b, double *out) {\n"
          "    double s = 0.0;\n"
          "    for (int i = 0; i < " << 100 + k[1] << "; i++)\n"
          "        s = s + a[i] * b[i];\n"
          "    out[0] = s;\n"
          "}\n"
          "void histogram(int *keys, int *bins) {\n"
          "    for (int i = 0; i < " << 100 + k[2] << "; i++)\n"
          "        bins[keys[i]] = bins[keys[i]] + 1;\n"
          "}\n"
          "void stencil3(double *in, double *out) {\n"
          "    for (int i = 1; i < " << 100 + k[3] << "; i++)\n"
          "        out[i] = in[i - 1] + in[i] + in[i + 1];\n"
          "}\n"
          "void gemm_like(double *a, double *b, double *c) {\n"
          "    for (int i = 0; i < " << 10 + k[4] % 7 << "; i++)\n"
          "        for (int j = 0; j < 12; j++) {\n"
          "            double s = 0.0;\n"
          "            for (int p = 0; p < 14; p++)\n"
          "                s = s + a[i * 14 + p] * b[p * 12 + j];\n"
          "            c[i * 12 + j] = s;\n"
          "        }\n"
          "}\n"
          "void scale(double *a, double *out) {\n"
          "    for (int i = 0; i < " << 100 + k[5] << "; i++)\n"
          "        out[i] = a[i] * " << 2 + k[5] % 5 << ".0;\n"
          "}\n"
          "void saxpy(double *x, double *y, double *out) {\n"
          "    for (int i = 0; i < " << 100 + k[6] << "; i++)\n"
          "        out[i] = " << 1 + k[6] % 9 << ".0 * x[i] + y[i];\n"
          "}\n"
          "int clampi(int x) {\n"
          "    if (x < " << k[7] % 50 << ")\n"
          "        return " << k[7] % 50 << ";\n"
          "    return x;\n"
          "}\n"
          "int mix(int a, int b) {\n"
          "    return a * " << 3 + k[8] % 11 << " + b * "
       << 5 + k[8] % 13 << ";\n"
          "}\n"
          "void memset_like(int *a) {\n"
          "    for (int i = 0; i < " << 100 + k[9] << "; i++)\n"
          "        a[i] = " << k[9] % 17 << ";\n"
          "}\n";
    return os.str();
}

/** Deterministic trace randomness (xorshift; seeded per run). */
struct Rng
{
    uint64_t state;

    uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_service.json";
    size_t clients = 8;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strncmp(argv[i], "--clients=", 10) == 0)
            clients = static_cast<size_t>(std::atoll(argv[i] + 10));
    }

    service::MatchService svc;
    Rng rng{0x9e3779b97f4a7c15ull};

    // Client-specific knob vectors: every client cold-solves its own
    // ten functions (no cross-client freebies on the first submit).
    std::vector<std::vector<int>> knobs(clients);
    for (size_t c = 0; c < clients; ++c) {
        knobs[c].resize(kFunctionsPerModule);
        for (size_t f = 0; f < kFunctionsPerModule; ++f)
            knobs[c][f] =
                static_cast<int>((rng.next() >> 17) % 4000);
    }

    std::vector<double> coldMs;
    for (size_t c = 0; c < clients; ++c) {
        const std::string module = "client" + std::to_string(c);
        double t0 = bench::nowMs();
        auto outcome = svc.submit(module, moduleSource(knobs[c]));
        coldMs.push_back(bench::nowMs() - t0);
        if (!outcome.ok) {
            std::fprintf(stderr, "FAIL: cold submit (%s): %s\n",
                         module.c_str(), outcome.error.c_str());
            return 1;
        }
    }

    // Snapshot + warm restart: persist the heated cache, load it into
    // a fresh service, and replay every client's module. With the
    // cache recovered, the restart round should be all replays.
    const std::string snapPath =
        "/tmp/bench_service_" + std::to_string(::getpid()) + ".snap";
    double t0 = bench::nowMs();
    auto saved = driver::saveSnapshot(svc.cache(), snapPath);
    const double saveMs = bench::nowMs() - t0;
    if (!saved.ok) {
        std::fprintf(stderr, "FAIL: snapshot save: %s\n",
                     saved.detail.c_str());
        return 1;
    }

    service::MatchService restarted;
    t0 = bench::nowMs();
    auto loaded = driver::loadSnapshot(restarted.cache(), snapPath);
    const double loadMs = bench::nowMs() - t0;
    ::unlink(snapPath.c_str());
    if (!loaded.ok || loaded.records != saved.records) {
        std::fprintf(stderr,
                     "FAIL: snapshot load: %zu of %zu records (%s)\n",
                     loaded.records, saved.records,
                     loaded.detail.c_str());
        return 1;
    }

    std::vector<double> restartMs;
    for (size_t c = 0; c < clients; ++c) {
        const std::string module = "client" + std::to_string(c);
        t0 = bench::nowMs();
        auto outcome =
            restarted.submit(module, moduleSource(knobs[c]));
        restartMs.push_back(bench::nowMs() - t0);
        if (!outcome.ok) {
            std::fprintf(stderr, "FAIL: restart submit (%s): %s\n",
                         module.c_str(), outcome.error.c_str());
            return 1;
        }
    }
    const auto restartCounters = restarted.cacheCounters();
    const double restartHitRate =
        restartCounters.hits + restartCounters.misses > 0
            ? static_cast<double>(restartCounters.hits) /
                  static_cast<double>(restartCounters.hits +
                                      restartCounters.misses)
            : 0.0;
    const double coldP50 = percentile(coldMs, 0.50);
    const double restartP50 = percentile(restartMs, 0.50);

    std::printf("service snapshot bench: %zu clients x %zu functions\n",
                clients, kFunctionsPerModule);
    std::printf("  cold submit p50 %.3f ms\n", coldP50);
    std::printf("  snapshot save %.3f ms, load %.3f ms "
                "(%zu records, %llu bytes)\n",
                saveMs, loadMs, saved.records,
                static_cast<unsigned long long>(saved.bytes));
    std::printf("  warm restart p50 %.3f ms, hit rate %.1f%% "
                "(%zu submissions)\n",
                restartP50, restartHitRate * 100.0,
                restartMs.size());

    std::ofstream out(json_path);
    out << "{\n"
        << "  \"workload\": \"service-snapshot-restart\",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"functions_per_module\": " << kFunctionsPerModule
        << ",\n"
        << "  \"cold_submissions\": " << coldMs.size() << ",\n"
        << "  \"cold_p50_ms\": " << coldP50 << ",\n"
        << "  \"snapshot_save_ms\": " << saveMs << ",\n"
        << "  \"snapshot_load_ms\": " << loadMs << ",\n"
        << "  \"snapshot_records\": " << saved.records << ",\n"
        << "  \"snapshot_bytes\": " << saved.bytes << ",\n"
        << "  \"restart_submissions\": " << restartMs.size() << ",\n"
        << "  \"restart_p50_ms\": " << restartP50 << ",\n"
        << "  \"restart_hit_rate\": " << restartHitRate << "\n"
        << "}\n";
    out.close();
    if (out.fail()) {
        std::fprintf(stderr, "FAIL: could not write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    // A restart that re-solves what the snapshot recovered defeats
    // the persistence: every current body was cached pre-save, so
    // the restart round must be overwhelmingly replays.
    if (restartHitRate < 0.9) {
        std::fprintf(stderr,
                     "FAIL: warm-restart hit rate %.1f%% below 90%%\n",
                     restartHitRate * 100.0);
        return 1;
    }
    return 0;
}
