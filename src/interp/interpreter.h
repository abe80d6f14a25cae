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
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/memory.h"
#include "ir/function.h"
#include "ir/verifier.h"

namespace repro::interp {

/**
 * Name of the reliability-hardening trap function. Calls to a
 * declaration with this name throw FaultDetected in both engines,
 * before any native-handler lookup: hardened code (transform/harden)
 * branches to it when a duplicated computation or a control-flow
 * signature diverges.
 */
inline constexpr const char *kHardenTrapFunction = "__harden_fault";

/**
 * Raised when hardened code detects a fault at runtime. Deliberately
 * distinct from FatalError: the fault-injection campaign classifies
 * FaultDetected as "detected by the hardening checks" and FatalError
 * (out-of-bounds access, division by zero, step-limit watchdog) as
 * "crashed", a system-level detection the passes get no credit for.
 */
class FaultDetected : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A deterministic single-bit fault. The interpreter flips exactly one
 * bit in one value slot of one dynamic execution of @p function: at
 * the first instruction boundary (before executing a non-phi
 * instruction in a frame of the target function) where the fault
 * counter has reached @p step, bit @p bit of the runtime value of
 * faultValueList(func)[valueIndex % size] is inverted. The counter
 * advances exactly like the dynamic step counter restricted to the
 * target function's frames, so the same plan hits the same dynamic
 * site in the bytecode and the reference engine.
 */
struct FaultPlan
{
    std::string function;
    uint64_t step = 0;
    uint32_t valueIndex = 0;
    uint32_t bit = 0;
};

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

/**
 * The fault-injectable value slots of a function: arguments first,
 * then every non-void instruction in block layout order — exactly the
 * frame-slot order the bytecode compiler assigns (compiled.cpp pass
 * 1), so FaultPlan::valueIndex selects the same value in both
 * engines. Constants and globals are excluded: they are immutable
 * module state, not per-run values.
 */
std::vector<const ir::Value *> faultValueList(const ir::Function &func);

/**
 * Flip bit @p bit of @p v as a value of IR type @p kind. Integer
 * kinds flip within their width (I1 always flips the truth bit; both
 * engines keep I32 values sign-extended in a 64-bit lane, so only
 * the low 32 bits are targeted, without re-truncation). Float flips
 * in the 32-bit representation and widens back; Double flips in the
 * 64-bit representation.
 */
void flipFaultBits(ir::Type::Kind kind, RuntimeValue &v, uint32_t bit);

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

    /**
     * Arm a single-bit fault injection for subsequent runs. The fault
     * counter and fired flag reset at every top-level run()/
     * runReference(), so one armed plan replays the identical fault
     * in either engine. A plan with step = UINT64_MAX never fires and
     * turns the counter into a pure charge probe: run once, then read
     * faultCounter() to learn how many injectable boundaries the
     * target function executed.
     */
    void
    armFault(const FaultPlan &plan)
    {
        fault_ = plan;
        faultFired_ = false;
        faultCounter_ = 0;
    }
    /** Dynamic charges counted in the target function's frames. */
    uint64_t faultCounter() const { return faultCounter_; }
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
    ir::VerifyMode verifyMode() const { return verify_; }

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

    /**
     * Inject the armed fault into the reference engine's environment:
     * resolves the plan's value slot against @p func and flips the
     * chosen bit of its current (possibly still undefined) value.
     */
    void
    injectFaultReference(
        const ir::Function *func,
        std::unordered_map<const ir::Value *, RuntimeValue> &env);

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
    std::optional<FaultPlan> fault_;
    bool faultFired_ = false;
    uint64_t faultCounter_ = 0;
    std::map<const ir::Function *, std::unique_ptr<CompiledFunction>>
        compiled_;
    std::map<const CompiledFunction *, std::vector<uint64_t>>
        profileBuffers_;
};

} // namespace repro::interp

#endif // INTERP_INTERPRETER_H
