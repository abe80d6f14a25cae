#include "service/service.h"

#include <chrono>
#include <map>

#include "transform/rewrite.h"

namespace repro::service {

namespace {

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

driver::DriverOptions
sessionDriverOptions(const ServiceOptions &opts,
                     std::shared_ptr<driver::MatchCache> cache)
{
    driver::DriverOptions d;
    d.limits = opts.limits;
    d.cache = std::move(cache);
    return d;
}

} // namespace

MatchService::MatchService(ServiceOptions opts)
    : opts_(opts),
      cache_(std::make_shared<driver::MatchCache>(opts.cacheCapacity)),
      driver_(sessionDriverOptions(opts, cache_))
{}

SubmitOutcome
MatchService::submit(const std::string &moduleName,
                     const std::string &source,
                     uint64_t deadlineMillis)
{
    std::lock_guard<std::mutex> lock(mutex_);

    SubmitOutcome outcome;
    outcome.module = moduleName;

    // Compile into a fresh module first: a failed submission must
    // leave the previous session fully intact. Unchanged functions
    // are cloned from that session's module.
    auto module = std::make_unique<ir::Module>();
    module->setName(moduleName);
    auto t0 = std::chrono::steady_clock::now();
    frontend::PreviousCompile previous;
    auto it = sessions_.find(moduleName);
    if (it != sessions_.end())
        previous = {it->second.module.get(), &it->second.keys};
    // The compile always ends with the full IR verifier on every
    // function it compiled fresh, whatever the VerifyMode; reused
    // functions are clones of bodies that passed it when this session
    // was stored. So nothing malformed reaches the session store or
    // the shared match cache; a rejection carries the verifier's rule
    // id and location ("invalid-ir rule=... function=@...").
    DiagEngine diags;
    frontend::CompileResult compiled = frontend::compileMiniCReusing(
        source, *module, diags, previous);
    if (!compiled.ok) {
        if (compiled.invalidIr)
            ++counters_.invalidIr;
        outcome.error = diags.all().empty()
                            ? std::string("compilation failed")
                            : diags.all().front().str();
        return outcome;
    }
    counters_.compileReused += compiled.reused.size();
    outcome.compileMillis = millisSince(t0);

    // The deadline clock starts when the solve starts, not when the
    // request was parsed: compile time is not solver effort. mutex_
    // serializes submissions, so setSolverLimits never races.
    uint64_t effectiveDeadline = deadlineMillis != 0
                                     ? deadlineMillis
                                     : opts_.defaultDeadlineMillis;
    driver_.setSolverLimits(solver::SolverLimits::withDeadline(
        opts_.limits, effectiveDeadline));
    t0 = std::chrono::steady_clock::now();
    driver::MatchReport report = driver_.matchModule(*module);
    outcome.matchMillis = millisSince(t0);

    outcome.ok = true;
    outcome.degraded = solver::solveStatusToken(report.status);
    if (report.status == solver::SolveStatus::BudgetExhausted)
        ++counters_.degradedBudget;
    else if (report.status == solver::SolveStatus::DeadlineExceeded)
        ++counters_.degradedDeadline;
    outcome.functions = report.functions.size();
    outcome.matches = report.matchCount();
    outcome.cacheHits = report.cacheHits;
    outcome.cacheMisses = report.cacheMisses;
    // Backend selection for MATCH lines: plan every match (replayed
    // or fresh — the cache stores matches only, so selection always
    // reflects the CURRENT policy); each plan's record carries the
    // backend the transform stage would commit and the ranked
    // alternatives it rejects. Planning is pure (no IR mutation, no
    // kernel extraction); a match the translation schemes cannot
    // express simply carries no backend keys.
    std::map<size_t, transform::Replacement> decisionByIndex;
    if (opts_.backendPolicy == transform::BackendPolicy::CostModel) {
        transform::BackendConfig config;
        config.policy = transform::BackendPolicy::CostModel;
        for (auto &plan :
             transform::RewriteEngine(*module, ir::VerifyMode::Off, config)
                 .planAll(report.allMatches()))
            decisionByIndex.emplace(plan.matchIndex,
                                    std::move(plan.record));
    }

    size_t matchIndex = 0;
    for (const auto &fr : report.functions) {
        FunctionOutcome fo;
        fo.name = fr.function->name();
        fo.contentHash = fr.contentHash;
        fo.matches = fr.matches.size();
        fo.fromCache = fr.fromCache;
        outcome.perFunction.push_back(std::move(fo));
        for (const auto &m : fr.matches) {
            MatchOutcome mo;
            mo.function = fr.function->name();
            mo.idiom = m.idiom;
            mo.cls = m.cls;
            auto it = decisionByIndex.find(matchIndex++);
            if (it != decisionByIndex.end()) {
                mo.hasBackend = true;
                mo.backend = runtime::backendToken(it->second.target);
                mo.predictedMs = it->second.target.predictedMs;
                for (const auto &alt : it->second.rejected)
                    mo.rejected.emplace_back(
                        runtime::backendToken(alt), alt.predictedMs);
            }
            outcome.matchList.push_back(std::move(mo));
        }
    }

    Session &session = sessions_[moduleName];
    session.keys = std::move(compiled.keys);
    // Destroying the replaced module is safe: the driver holds no IR
    // and the new report holds no pointers into it.
    session.module = std::move(module);
    session.outcome = outcome;
    return outcome;
}

bool
MatchService::lastOutcome(const std::string &moduleName,
                          SubmitOutcome *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(moduleName);
    if (it == sessions_.end())
        return false;
    *out = it->second.outcome;
    return true;
}

bool
MatchService::drop(const std::string &moduleName)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(moduleName);
    if (it == sessions_.end())
        return false;
    sessions_.erase(it);
    return true;
}

void
MatchService::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.clear();
    cache_->clear();
}

size_t
MatchService::sessionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

driver::CacheCounters
MatchService::cacheCounters() const
{
    return cache_->counters();
}

ServiceCounters
MatchService::serviceCounters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceCounters out = counters_;
    out.shedConnections = shedConnections_.load();
    out.shedSubmits = shedSubmits_.load();
    return out;
}

size_t
MatchService::cacheSize() const
{
    return cache_->size();
}

size_t
MatchService::cacheCapacity() const
{
    return cache_->capacity();
}

void
MatchService::setCacheCapacity(size_t capacity)
{
    cache_->setCapacity(capacity);
}

uint64_t
MatchService::idiomSetHash() const
{
    return idioms::idiomSetHash();
}

} // namespace repro::service
