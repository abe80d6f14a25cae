#include "runtime/cost.h"

#include <algorithm>
#include <cctype>

namespace repro::runtime {

using idioms::IdiomClass;

std::vector<BackendTarget>
legalTargets(IdiomClass cls)
{
    std::vector<BackendTarget> targets;
    for (Api api : allApis())
        for (Platform p : allPlatforms())
            if (apiAvailableOn(p, api, cls))
                targets.push_back(BackendTarget{api, p, 0.0});
    return targets;
}

BackendTarget
fixedTarget(IdiomClass cls)
{
    switch (cls) {
      case IdiomClass::SparseMatrixOp:
        return {Api::MKL, Platform::CPU, 0.0};
      case IdiomClass::MatrixOp:
        return {Api::MKL, Platform::CPU, 0.0};
      case IdiomClass::ScalarReduction:
        return {Api::Lift, Platform::CPU, 0.0};
      case IdiomClass::HistogramReduction:
        return {Api::Lift, Platform::CPU, 0.0};
      case IdiomClass::Stencil:
        return {Api::Halide, Platform::CPU, 0.0};
      case IdiomClass::Other:
        break;
    }
    return {Api::MKL, Platform::CPU, 0.0};
}

double
predictMs(Platform p, Api api, const analysis::WorkloadDescriptor &wd,
          IdiomClass cls)
{
    WorkProfile work;
    work.flops = wd.flops;
    work.bytes = wd.bytes;
    work.transferBytes = wd.transferBytes;
    work.offloadFraction = 1.0;
    work.cls = cls;
    std::optional<double> t = apiTimeOn(p, api, work, false);
    return t ? *t : -1.0;
}

std::vector<BackendTarget>
rankTargets(IdiomClass cls, const analysis::WorkloadDescriptor &wd)
{
    std::vector<BackendTarget> ranked = legalTargets(cls);
    for (BackendTarget &t : ranked)
        t.predictedMs = predictMs(t.platform, t.api, wd, cls);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const BackendTarget &a, const BackendTarget &b) {
                         return a.predictedMs < b.predictedMs;
                     });
    return ranked;
}

std::string
backendToken(const BackendTarget &t)
{
    return std::string(apiName(t.api)) + "@" +
           platformName(t.platform);
}

std::string
backendSymbol(const BackendTarget &t)
{
    std::string sym = backendToken(t);
    std::string out;
    for (char c : sym) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    return out;
}

} // namespace repro::runtime
