/**
 * @file
 * suite-pipeline: the paper's own use. Each pass shuffles the 21
 * NAS/Parboil programs by seed and takes every program through
 * compile → cache-less match → transform (default Fixed policy) →
 * bind → bytecode run on the program's seeded heap. One unit is one
 * program.
 *
 * Oracle: per-program idiom class counts against the suite's expected
 * Table 1 counts, and the watched outputs and return value against the
 * original program run once per set-up under the reference
 * tree-walking interpreter. The per-pass deterministic counts
 * (dynamic steps, static IR instructions, replacements) must repeat
 * in every pass.
 */
#include <stdexcept>

#include "bench.h"
#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"
#include "transform/binder.h"
#include "transform/rewrite.h"
#include "transform/transform.h"

using namespace repro;

namespace pb {

namespace {

using trace::Span;

/** Reference outputs of one original program. */
struct Reference
{
    interp::RuntimeValue ret;
    std::string watched;
};

/** Bytes of every watched array of @p inst in @p mem. */
std::string
watchedBytes(const interp::Memory &mem, const benchmarks::Instance &inst)
{
    std::string out;
    auto grab = [&](const std::vector<std::pair<uint64_t, size_t>> &ws,
                    size_t elem) {
        for (const auto &[addr, count] : ws) {
            interp::Memory::RawSpan span(mem, addr, count * elem);
            out.append(reinterpret_cast<const char *>(span.data()),
                       span.size());
        }
    };
    grab(inst.watchDoubles, 8);
    grab(inst.watchInts, 4);
    return out;
}

int
classCount(const benchmarks::ExpectedIdioms &e, idioms::IdiomClass c)
{
    switch (c) {
      case idioms::IdiomClass::ScalarReduction: return e.scalarReductions;
      case idioms::IdiomClass::HistogramReduction: return e.histograms;
      case idioms::IdiomClass::Stencil: return e.stencils;
      case idioms::IdiomClass::MatrixOp: return e.matrixOps;
      case idioms::IdiomClass::SparseMatrixOp: return e.sparseOps;
      default: return 0;
    }
}

const idioms::IdiomClass kClasses[] = {
    idioms::IdiomClass::ScalarReduction,
    idioms::IdiomClass::HistogramReduction, idioms::IdiomClass::Stencil,
    idioms::IdiomClass::MatrixOp, idioms::IdiomClass::SparseMatrixOp};

/** Deterministic totals of one pass. */
struct PassCounts
{
    uint64_t steps = 0;
    uint64_t codeInsts = 0;
    uint64_t replacements = 0;
    uint64_t matches = 0;

    bool
    operator==(const PassCounts &o) const
    {
        return steps == o.steps && codeInsts == o.codeInsts &&
               replacements == o.replacements && matches == o.matches;
    }
};

class Pipeline : public Workload
{
  public:
    explicit Pipeline(const Options &opts)
        : opts_(opts), suite_(benchmarks::nasParboilSuite())
    {
    }

    void
    setup() override
    {
        refs_.clear();
        originalSteps_ = 0;
        for (const auto &p : suite_) {
            ir::Module module;
            compile(p, module);
            interp::Memory mem;
            interp::Interpreter in(module, mem);
            interp::registerMathBuiltins(in);
            benchmarks::Instance inst = p.setup(mem);
            Reference ref;
            ref.ret = in.runReference(module.functionByName(p.entry),
                                      inst.args);
            originalSteps_ += in.stepsExecuted();
            ref.watched = watchedBytes(mem, inst);
            refs_.push_back(std::move(ref));
        }
    }

    void teardown() override {}

    Phase
    measure(double seconds, uint64_t units) override
    {
        Phase ph;
        ph.unitsPerCompileFigure = double(suite_.size());
        passesInPhase_ = 0;
        runMsPerPass_.clear();
        engine_ = {};
        const double t0 = nowS();
        for (uint64_t pass = 0;; ++pass) {
            if (units ? pass >= units : nowS() - t0 >= seconds)
                break;
            runPass(ph, t0);
            ++passesInPhase_;
        }
        ph.elapsedS = nowS() - t0;
        return ph;
    }

    uint64_t
    verify() override
    {
        return 0; // every unit is checked as it completes
    }

    std::vector<Metric>
    endToEnd() override
    {
        return {{"code_insts", double(first_.codeInsts), "count"}};
    }

    std::vector<Metric>
    layers(const trace::Analysis &a) override
    {
        const double n = workUnits();
        const double runMs = perUnitMs(a, "interp.run", n);
        const double steps = n > 0 ? double(first_.steps) : 0;
        const auto &e = engine_;
        return {
            {"transform.apply_ms", perUnitMs(a, "transform.apply", n), "ms"},
            {"transform.bind_ms", perUnitMs(a, "transform.bind", n), "ms"},
            {"transform.planned", e.planned / n, "count"},
            {"transform.committed", e.committed / n, "count"},
            {"transform.dropped_overlap", e.droppedOverlap / n, "count"},
            {"transform.failed_validation", e.failedValidation / n, "count"},
            {"transform.rolled_back", e.rolledBack / n, "count"},
            {"transform.commit_ratio",
             e.planned ? double(e.committed) / double(e.planned) : 0,
             "ratio"},
            {"interp.run_ms", runMs, "ms"},
            {"interp.steps", steps, "count"},
            {"interp.steps_per_us", runMs > 0 ? steps / (runMs * 1e3) : 0,
             "1/us"},
        };
    }

    std::map<std::string, double>
    info() override
    {
        return {{"run_ms", median(runMsPerPass_)},
                {"run_steps", double(first_.steps)},
                {"replacements", double(first_.replacements)},
                {"matches", double(first_.matches)},
                {"passes", double(passesInPhase_)}};
    }

    std::map<std::string, uint64_t>
    deterministic() override
    {
        return {{"run_steps", first_.steps},
                {"original_steps", originalSteps_},
                {"code_insts", first_.codeInsts},
                {"replacements", first_.replacements},
                {"matches", first_.matches},
                {"order_hash", orderHash_}};
    }

    double
    workUnits() const override
    {
        return double(passesInPhase_);
    }

  private:
    struct EngineTotals
    {
        double planned = 0, committed = 0, droppedOverlap = 0,
               failedValidation = 0, rolledBack = 0;
    };

    void
    runPass(Phase &ph, double t0)
    {
        std::vector<size_t> order(suite_.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(opts_.seed * 0x100000001b3ull + passCounter_++);
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.next() % i]);
        for (size_t i : order)
            orderHash_ = fnv1a(orderHash_, suite_[i].name + ";");

        PassCounts counts;
        double runMs = 0;
        for (size_t i : order) {
            double c = 0, r = 0, latency = 0;
            if (!runProgram(i, &counts, &c, &r, &latency))
                ++ph.failed;
            runMs += r;
            ph.compileMs.push_back(c);
            ph.latencyMs.push_back(latency);
            ph.doneAtS.push_back(nowS() - t0);
        }
        runMsPerPass_.push_back(runMs);
        if (!haveFirst_) {
            first_ = counts;
            haveFirst_ = true;
        } else if (!(counts == first_)) {
            std::fprintf(stderr,
                         "perfbench: pass counts changed between passes "
                         "(steps %llu vs %llu)\n",
                         (unsigned long long)counts.steps,
                         (unsigned long long)first_.steps);
            ++ph.failed;
        }
    }

    /** compileMiniC itself, so that the traced build sees the call. */
    static void
    compile(const benchmarks::BenchmarkProgram &p, ir::Module &module)
    {
        DiagEngine diags;
        if (!frontend::compileMiniC(p.source, module, diags))
            throw std::runtime_error(p.name + " does not compile: " +
                                     diags.dump());
    }

    /** One unit; returns false when any output is wrong. */
    bool
    runProgram(size_t index, PassCounts *counts, double *compileMs,
               double *runMs, double *latencyMs)
    {
        const benchmarks::BenchmarkProgram &p = suite_[index];
        interp::Memory mem;
        benchmarks::Instance inst = p.setup(mem);
        ir::Module module;
        driver::MatchReport report;
        std::vector<transform::Replacement> replacements;
        interp::RuntimeValue ret;
        uint64_t steps = 0;

        trace::setUnit(int64_t(unitCounter_++));
        const int64_t a = trace::nowNs();
        int64_t b = 0, c = 0;
        {
            Span unit("bench.unit", 0);
            compile(p, module);
            driver::MatchingDriver matcher;
            report = matcher.matchModule(module);
            transform::Transformer transformer(module);
            {
                Span s("transform.apply");
                replacements = transformer.applyAll(report.allMatches());
            }
            const auto &st = transformer.engine().stats();
            engine_.planned += st.planned;
            engine_.committed += st.committed;
            engine_.droppedOverlap += st.droppedOverlap;
            engine_.failedValidation += st.failedValidation;
            engine_.rolledBack += st.rolledBack;
            b = trace::nowNs();
            interp::Interpreter in(module, mem);
            {
                Span s("interp.load");
                interp::registerMathBuiltins(in);
            }
            {
                Span s("transform.bind");
                transform::bindReplacements(in, replacements);
            }
            c = trace::nowNs();
            {
                Span s("interp.run");
                ret = in.run(module.functionByName(p.entry), inst.args);
            }
            steps = in.stepsExecuted();
        }
        const int64_t d = trace::nowNs();
        trace::setUnit(-1);
        // Interpreter construction and binding (b..c) count towards
        // the unit latency but neither to compile_ms nor to run_ms.
        *compileMs = double(b - a) / 1e6;
        *runMs = double(d - c) / 1e6;
        *latencyMs = double(d - a) / 1e6;

        counts->steps += steps;
        counts->codeInsts += instructionCount(module);
        counts->replacements += replacements.size();
        counts->matches += report.matchCount();

        bool ok = true;
        std::map<idioms::IdiomClass, int> found;
        for (const auto &m : report.allMatches())
            ++found[m.cls];
        for (idioms::IdiomClass cls : kClasses) {
            if (found[cls] != classCount(p.expected, cls)) {
                std::fprintf(stderr,
                             "perfbench: %s found %d %s idioms, "
                             "expected %d\n",
                             p.name.c_str(), found[cls],
                             idioms::idiomClassName(cls),
                             classCount(p.expected, cls));
                ok = false;
            }
        }
        const Reference &ref = refs_[index];
        if (!interp::RuntimeValue::bitsEqual(ret, ref.ret) ||
            watchedBytes(mem, inst) != ref.watched) {
            std::fprintf(stderr,
                         "perfbench: %s output differs from the "
                         "reference run of the original program\n",
                         p.name.c_str());
            ok = false;
        }
        return ok;
    }

    Options opts_;
    const std::vector<benchmarks::BenchmarkProgram> &suite_;
    std::vector<Reference> refs_;
    uint64_t originalSteps_ = 0;
    uint64_t passCounter_ = 0;
    uint64_t unitCounter_ = 0;
    uint64_t orderHash_ = kFnvBasis;
    uint64_t passesInPhase_ = 0;
    std::vector<double> runMsPerPass_;
    PassCounts first_;
    bool haveFirst_ = false;
    EngineTotals engine_;
};

} // namespace

std::unique_ptr<Workload>
makePipeline(const Options &opts)
{
    return std::make_unique<Pipeline>(opts);
}

} // namespace pb
