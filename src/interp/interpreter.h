/**
 * @file
 * Interpreters for the SSA IR.
 *
 * The execution layer fills two roles in the reproduction:
 *  - executing benchmark kernels before and after idiom replacement to
 *    verify that transformations preserve semantics; and
 *  - profiling dynamic instruction counts per loop/instruction, which
 *    drives the runtime-coverage experiment (Figure 17 of the paper).
 *
 * Two engines share one Interpreter object and are required to be
 * observably identical (byte-identical heaps, return values and
 * Profile counts — tests/test_interp_compiled.cpp enforces it):
 *
 *  - run() lowers each function to register-addressed bytecode
 *    (interp/compiled.h) on first execution and runs that — the fast
 *    path every benchmark uses; and
 *  - runReference() walks the IR tree directly — the slow,
 *    obviously-correct engine kept as the differential-testing
 *    baseline, exactly like Solver::solveAllReference on the
 *    matching side.
 */
#ifndef INTERP_INTERPRETER_H
#define INTERP_INTERPRETER_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "interp/memory.h"
#include "ir/function.h"
#include "ir/verifier.h"

namespace repro::interp {

/** A dynamic value: integer (includes pointers) or floating point. */
struct RuntimeValue
{
    enum class Kind { Int, FP, Void };

    Kind kind = Kind::Void;
    int64_t i = 0;
    double f = 0.0;

    static RuntimeValue
    makeInt(int64_t v)
    {
        RuntimeValue out;
        out.kind = Kind::Int;
        out.i = v;
        return out;
    }
    static RuntimeValue
    makeFP(double v)
    {
        RuntimeValue out;
        out.kind = Kind::FP;
        out.f = v;
        return out;
    }
    static RuntimeValue makeVoid() { return {}; }

    /**
     * Bitwise equality (NaN-safe): the engines' byte-identical
     * contract — stricter than operator== on doubles would be.
     */
    static bool
    bitsEqual(const RuntimeValue &a, const RuntimeValue &b)
    {
        return a.kind == b.kind && a.i == b.i &&
               std::memcmp(&a.f, &b.f, sizeof(double)) == 0;
    }
};

class Interpreter;
class CompiledFunction;

/** Round to float precision (via an actual float round-trip). */
inline double
roundToFloatPrecision(double v)
{
    return static_cast<double>(static_cast<float>(v));
}

/**
 * The shared rounding rule of both execution engines: float-typed
 * results round to float precision so native skeletons, the bytecode
 * engine and the tree-walker agree bit for bit. The predicate is
 * exposed separately so the bytecode compiler can bake it into a
 * per-instruction flag.
 */
inline bool
floatResultRounds(const ir::Type *type)
{
    return type->kind() == ir::Type::Kind::Float;
}

inline double
roundIfFloat(const ir::Type *type, double v)
{
    return floatResultRounds(type) ? roundToFloatPrecision(v) : v;
}

/**
 * Signature of a native handler standing in for an external API. The
 * interpreter reference lets heterogeneous-API skeletons call back
 * into extracted IR kernel functions.
 */
using NativeFn = std::function<RuntimeValue(
    const std::vector<RuntimeValue> &args, Interpreter &interp)>;

/** Per-instruction dynamic execution counts. */
struct Profile
{
    std::map<const ir::Instruction *, uint64_t> counts;
    uint64_t totalSteps = 0;

    /** Dynamic instructions attributed to instructions in @p set. */
    uint64_t countIn(const std::set<const ir::Instruction *> &set) const;
};

/** Executes IR functions over a Memory heap. */
class Interpreter
{
  public:
    // Constructor and destructor are out of line: members reference
    // CompiledFunction, which is incomplete here (interp/compiled.h
    // completes it for interpreter.cpp).
    explicit Interpreter(ir::Module &module, Memory &mem);
    ~Interpreter();

    /**
     * Register a native implementation for calls to the declared
     * function @p name (the heterogeneous API entry points).
     */
    void registerNative(const std::string &name, NativeFn fn);

    /**
     * Execute @p func with @p args via the bytecode engine; returns
     * its return value. Functions are compiled lazily and cached for
     * the lifetime of this Interpreter — construct a fresh
     * Interpreter after mutating the module (the transformation
     * pipeline already does).
     */
    RuntimeValue run(ir::Function *func,
                     const std::vector<RuntimeValue> &args);

    /**
     * Execute @p func via the tree-walking reference engine. Same
     * observable behavior as run(), kept for differential testing.
     */
    RuntimeValue runReference(ir::Function *func,
                              const std::vector<RuntimeValue> &args);

    /**
     * Re-entrant call used by native skeletons to run IR kernels.
     * Dispatches to whichever engine the enclosing run started.
     */
    RuntimeValue call(ir::Function *func,
                      const std::vector<RuntimeValue> &args);

    ir::Module &module() { return module_; }

    /** Abort execution after this many dynamic instructions. */
    void setStepLimit(uint64_t limit) { stepLimit_ = limit; }

    void enableProfile(bool on) { profiling_ = on; }
    const Profile &profile() const { return profile_; }
    void clearProfile();

    /** Dynamic instructions executed by the last top-level run. */
    uint64_t stepsExecuted() const { return steps_; }

    Memory &memory() { return mem_; }

    /**
     * Pass-boundary verification of functions entering the bytecode
     * compiler. Defaults to the REPRO_VERIFY environment switch; with
     * VerifyMode::Boundaries every function is re-verified right
     * before its first lowering ("pre-bytecode" boundary), so the
     * executor can never run bytecode compiled from malformed IR.
     * The tree-walking reference engine is unaffected.
     */
    void setVerifyMode(ir::VerifyMode mode) { verify_ = mode; }

  private:
    friend class CompiledExec;

    enum class Engine { Compiled, Reference };

    RuntimeValue evalConstant(const ir::Constant *c) const;
    RuntimeValue runFunction(ir::Function *func,
                             const std::vector<RuntimeValue> &args,
                             int depth);

    /** Give every module global a heap address (idempotent). */
    void materializeGlobals();

    /** Bytecode of @p func, compiled on first request. */
    const CompiledFunction &compiledFor(ir::Function *func);

    /** Dense per-instruction counters of @p cf (lazily sized). */
    uint64_t *profileBufferFor(const CompiledFunction &cf);

    /** Merge the dense bytecode counters into profile_.counts. */
    void flushProfileBuffers();

    ir::Module &module_;
    Memory &mem_;
    std::map<std::string, NativeFn> natives_;
    std::map<const ir::GlobalVariable *, uint64_t> globalAddrs_;
    uint64_t stepLimit_ = 5'000'000'000ULL;
    uint64_t steps_ = 0;
    bool profiling_ = false;
    Profile profile_;
    Engine engine_ = Engine::Compiled;
    ir::VerifyMode verify_ = ir::defaultVerifyMode();
    std::map<const ir::Function *, std::unique_ptr<CompiledFunction>>
        compiled_;
    std::map<const CompiledFunction *, std::vector<uint64_t>>
        profileBuffers_;
};

} // namespace repro::interp

#endif // INTERP_INTERPRETER_H
