/**
 * @file
 * Register-addressed bytecode compilation of IR functions.
 *
 * The tree-walking reference interpreter pays, per dynamic
 * instruction, an `unordered_map` lookup per operand, a map insertion
 * per result, a branchy opcode dispatch and, when profiling, a
 * `std::map<const Instruction *, uint64_t>` bump. Compilation removes
 * all of it from the execution loop, mirroring the solver's
 * slot-addressed compile step (solver/compiled.h):
 *
 *  - Register words. Every value (argument, instruction result,
 *    interned constant, global address) gets a dense `uint32_t` slot
 *    in a flat frame of 8-byte Words, so an operand read is one index
 *    and a result write one 8-byte store. A Word has no kind tag: it
 *    is read as the IR type of the value it holds. Where a Word
 *    becomes a RuntimeValue or back, the conversion follows the IR
 *    type: arguments take the parameter's type, `Ret` the function's
 *    return type, call arguments the operand's type and a call's
 *    result the call's type (the tree-walker converts at the same
 *    four places, so both engines agree even on ill-typed inputs).
 *  - Instructions become one contiguous BcInst array in block layout
 *    order. Branches are pre-resolved program-counter jumps, types
 *    are pre-resolved into specialized opcodes (LoadF64, StoreI32,
 *    ...), GEP scales and alloca sizes are pre-computed, and
 *    float-rounding is a pre-computed flag.
 *  - Folded extensions. `SExt`, `ZExt` and `FPExt` do nothing to a
 *    Word, so they emit no bytecode: the result shares its source's
 *    slot, through chains of extensions. This is safe in SSA: a
 *    source slot is only rewritten when its definition runs again,
 *    and any non-phi use of the extension's result runs the
 *    extension again first (the extension dominates the use, and
 *    every path from the source's definition to the use passes it).
 *    Phi moves read all their sources before writing. A folded
 *    instruction is still charged and profiled: each BcInst charges
 *    1 plus the extensions folded just before it in its block, whose
 *    profile indices are contiguous and end just before its own.
 *  - Phi groups are pre-resolved into per-CFG-edge parallel move
 *    groups: taking an edge copies the incoming slots of the target
 *    block's phis, through a scratch buffer only when one move's
 *    destination is another's source.
 *  - Segments. A segment is a straight run of bytecode that ends at a
 *    terminator or a `Call`. Outside precise mode the executor
 *    charges a whole segment (and the phis of the edge into it) with
 *    one check, `steps + n > limit`, as it enters; each BcInst stores
 *    `rest`, the steps from itself to its segment's end. A segment
 *    ends at each `Call` so that a native callback never sees steps
 *    charged for caller instructions that have not run yet. When an
 *    exception leaves a frame mid-segment, the frame subtracts the
 *    charge of the segment's unexecuted tail.
 *  - Precise mode charges every instruction as it runs, exactly as
 *    the tree-walker does. It runs when profiling is on (counters are
 *    a dense `uint64_t[]` per function, merged into the Profile map
 *    once per run), and for a segment whose charge would cross the
 *    step limit: that segment always ends in an exception, so the
 *    frame finishes in precise mode. One loop serves both modes,
 *    instantiated on a compile-time flag.
 *  - Frames and callees. The Interpreter owns one stack of frames
 *    indexed by live frames (native handlers count as frames), and a
 *    call refills the frame at its depth from the callee's template
 *    instead of allocating one. Each call site resolves its callee
 *    once per Interpreter, to a LoadedFunction or a native handler.
 *
 * A CompiledFunction is immutable after construction; a
 * LoadedFunction adds what one Interpreter resolves for it. The
 * Interpreter keeps the tree-walker as Interpreter::runReference;
 * both engines must produce byte-identical heaps, return values,
 * step counts, step-limit failures and Profile counts (the
 * differential contract tests/test_interp_compiled.cpp and
 * MatchingDriver::verifyTransforms enforce across the whole
 * benchmark suite).
 */
#ifndef INTERP_COMPILED_H
#define INTERP_COMPILED_H

#include <cstdint>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "ir/function.h"

namespace repro::interp {

/** One register: any IR value, read as its IR type. */
union Word
{
    int64_t i;
    double f;
};

/** The RuntimeValue kind an IR type converts to and from. */
inline RuntimeValue::Kind
kindOf(const ir::Type *type)
{
    if (type->isVoid())
        return RuntimeValue::Kind::Void;
    return type->isFloatingPoint() ? RuntimeValue::Kind::FP
                                   : RuntimeValue::Kind::Int;
}

inline Word
toWord(const RuntimeValue &v, RuntimeValue::Kind kind)
{
    Word w{};
    if (kind == RuntimeValue::Kind::FP)
        w.f = v.f;
    else
        w.i = v.i;
    return w;
}

inline RuntimeValue
toValue(Word w, RuntimeValue::Kind kind)
{
    switch (kind) {
      case RuntimeValue::Kind::Int: return RuntimeValue::makeInt(w.i);
      case RuntimeValue::Kind::FP: return RuntimeValue::makeFP(w.f);
      default: return RuntimeValue::makeVoid();
    }
}

/** Bytecode operations; memory/conversion ops are type-specialized. */
enum class BcOp : uint8_t
{
    // Integer arithmetic: dst = a op b.
    Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr,
    // Floating point arithmetic: dst = a op b (round flag honored).
    FAdd, FSub, FMul, FDiv,
    // Memory: Load* dst = [a]; Store* [b] = a.
    LoadI1, LoadI32, LoadI64, LoadF32, LoadF64, LoadPtr,
    StoreI1, StoreI32, StoreI64, StoreF32, StoreF64, StorePtr,
    // dst = a + sum(slot_k * scale_k) over extra[b, c).
    Gep,
    // dst = allocate(allocSize(a)).
    Alloca,
    // Comparisons (pred field) and selection dst = a ? b : c.
    ICmp, FCmp, Select,
    // Control flow: Jmp to pc a (edge moves g0); CondBr on a to pc
    // b (moves g0) or pc c (moves g1); Ret returns slot a.
    Jmp, CondBr, Ret, RetVoid,
    // Conversions. Mov is a Trunc that keeps the Word as it is.
    Mov, TruncI32, TruncI1, SIToFP, FPToSI, FPTrunc,
    // dst = call(a); dst absent for void calls. Ends its segment.
    Call,
    // Always throws FatalError(trapMessage(a)); compiled in place
    // of operations the tree-walker would reject at execution time.
    Trap,
};

/** One bytecode instruction. */
struct BcInst
{
    static constexpr uint32_t kNoSlot = 0xffffffffu;
    static constexpr uint32_t kNoGroup = 0xffffffffu;

    BcOp op = BcOp::Trap;
    /** FAdd/FSub/FMul/FDiv/SIToFP: round result to float precision. */
    bool round = false;
    ir::CmpPred pred = ir::CmpPred::EQ;
    uint32_t dst = kNoSlot;
    /** Operand slots, pcs or table indices, as BcOp describes. */
    uint32_t a = 0, b = 0, c = 0;
    /** Edge move-group ids of Jmp (g0) and CondBr (g0 true, g1 false). */
    uint32_t g0 = kNoGroup, g1 = kNoGroup;
    /** Dense profile index of the first IR instruction it charges. */
    uint32_t prof = 0;
    /** Steps it charges: 1 plus the extensions folded before it. */
    uint32_t charge = 1;
    /** Steps from this instruction to its segment's end, inclusive. */
    uint32_t rest = 1;
};

/** One pre-resolved phi move: frame[dst] = frame[src]. */
struct BcMove
{
    uint32_t dst = 0;
    uint32_t src = 0;
};

/**
 * The phi moves of one CFG edge. All sources are read before any
 * destination is written (the group is atomic, as in the
 * tree-walker), and each member phi is charged one dynamic
 * instruction: profile indices [profBegin, profBegin + count).
 */
struct BcMoveGroup
{
    uint32_t movesBegin = 0;
    uint32_t count = 0;
    uint32_t profBegin = 0;
    /** Some destination is also a source: move through scratch. */
    bool overlaps = false;
    /** The count-th phi has no incoming for the predecessor: taking
     *  the edge charges count phis and throws, as the tree-walker
     *  does. */
    bool trap = false;
};

/** One call site: callee, arguments and how Words cross over. */
struct BcCall
{
    ir::Function *callee = nullptr;
    /** Argument range in CompiledFunction::callArgs(). */
    uint32_t argsBegin = 0, argsEnd = 0;
    /** Kind of the call's result (Void when it has none). */
    RuntimeValue::Kind result = RuntimeValue::Kind::Void;
    /** A defined callee returns a Word of the result's kind; else the
     *  result is zero (the two conversions of an ill-typed call). */
    bool resultMatches = true;
};

/** One call argument: its slot, kind, and parameter agreement. */
struct BcCallArg
{
    uint32_t slot = 0;
    RuntimeValue::Kind kind = RuntimeValue::Kind::Int;
    /** The callee's parameter has the same kind; else it gets zero. */
    bool matches = true;
};

/** An ir::Function lowered to bytecode. Immutable after construction. */
class CompiledFunction
{
  public:
    explicit CompiledFunction(const ir::Function &func);

    const std::vector<BcInst> &code() const { return code_; }
    uint32_t entryPc() const { return entryPc_; }
    uint32_t numSlots() const
    {
        return static_cast<uint32_t>(frameTemplate_.size());
    }

    /** Fresh frame with constants in place; callers fill argument
     *  and global slots. */
    const std::vector<Word> &frameTemplate() const
    {
        return frameTemplate_;
    }

    /** (slot, global) pairs the executor resolves per Interpreter. */
    const std::vector<std::pair<uint32_t, const ir::GlobalVariable *>> &
    globalSlots() const
    {
        return globalSlots_;
    }

    /** Kinds of the parameters (slots [0, numArgs)) and the result. */
    const std::vector<RuntimeValue::Kind> &paramKinds() const
    {
        return paramKinds_;
    }
    RuntimeValue::Kind returnKind() const { return returnKind_; }

    const std::vector<uint32_t> &extra() const { return extra_; }
    /** GEP scale factors, parallel to extra(). */
    const std::vector<uint64_t> &scales() const { return scales_; }
    const std::vector<BcMove> &moves() const { return moves_; }
    const BcMoveGroup &moveGroup(uint32_t id) const
    {
        return groups_[id];
    }
    const std::vector<BcCall> &calls() const { return calls_; }
    const std::vector<BcCallArg> &callArgs() const { return callArgs_; }
    uint64_t allocSize(uint32_t idx) const { return allocSizes_[idx]; }
    const std::string &trapMessage(uint32_t idx) const
    {
        return trapMessages_[idx];
    }

    /** Number of profiled (= all) instructions of the function. */
    uint32_t numProfiled() const
    {
        return static_cast<uint32_t>(profInsts_.size());
    }

    /** Source instruction of dense profile index @p i. */
    const std::vector<const ir::Instruction *> &profInstructions() const
    {
        return profInsts_;
    }

  private:
    uint32_t slotOf(const ir::Value *v);
    uint32_t resultSlot(const ir::Instruction *inst) const;
    void compile(const ir::Function &func);
    void markSegments(const std::vector<bool> &blockEnds);

    std::vector<BcInst> code_;
    std::vector<uint32_t> extra_;
    std::vector<uint64_t> scales_;
    std::vector<BcMove> moves_;
    std::vector<BcMoveGroup> groups_;
    std::vector<Word> frameTemplate_;
    std::vector<std::pair<uint32_t, const ir::GlobalVariable *>>
        globalSlots_;
    std::vector<RuntimeValue::Kind> paramKinds_;
    RuntimeValue::Kind returnKind_ = RuntimeValue::Kind::Void;
    std::vector<BcCall> calls_;
    std::vector<BcCallArg> callArgs_;
    std::vector<uint64_t> allocSizes_;
    std::vector<std::string> trapMessages_;
    std::vector<const ir::Instruction *> profInsts_;
    /** Value -> slot, while compiling. */
    PointerMap slots_;
    uint32_t entryPc_ = 0;
};

struct LoadedFunction;

/** What a call site resolved to: bytecode or a native handler. */
struct Callee
{
    LoadedFunction *code = nullptr;
    const NativeFn *native = nullptr;
};

/** A CompiledFunction plus what one Interpreter resolves for it. */
struct LoadedFunction
{
    explicit LoadedFunction(const ir::Function &func) : code(func) {}

    CompiledFunction code;
    /** code.frameTemplate() with this Interpreter's global addresses. */
    std::vector<Word> frame;
    /** Per call site, resolved on its first execution. */
    std::vector<Callee> callees;
    /** Dense profile counters, sized on the first profiled run. */
    std::vector<uint64_t> profile;
};

/** The bytecode executor; a friend of Interpreter. */
class CompiledExec
{
  public:
    /**
     * Execute @p func (lowering it on first use) with @p args as the
     * frame at call depth @p depth; dispatches declarations to their
     * native handlers.
     */
    static RuntimeValue run(Interpreter &interp, ir::Function *func,
                            const std::vector<RuntimeValue> &args,
                            int depth);

  private:
    /**
     * Run @p fn on the frame @p regs from @p pc, after applying the
     * phi moves of edge group @p group (kNoGroup for none). The fast
     * instantiation (kPrecise = false) continues in precise mode from
     * the first segment whose charge would cross the step limit.
     */
    template <bool kPrecise>
    static Word execute(Interpreter &it, LoadedFunction &fn, Word *regs,
                        uint32_t pc, uint32_t group, int depth);

    /** Run @p fn from its entry on the frame at @p depth. */
    static Word enter(Interpreter &it, LoadedFunction &fn, int depth);

    /** Execute call site @p idx of @p fn from the frame @p regs. */
    static Word call(Interpreter &it, LoadedFunction &fn, uint32_t idx,
                     const Word *regs, int depth);

    /** Precise charging: @p n steps, one check each, counted at
     *  profile indices [first, first + n) when @p prof is set. */
    static void chargeEach(Interpreter &it, uint64_t *prof,
                           uint32_t first, uint32_t n);

    /** Precise edge: charge each phi of @p group, then move. */
    static void movePrecise(Interpreter &it, const CompiledFunction &cf,
                            Word *regs, uint64_t *prof, uint32_t group);

    /** The parallel copy of one move group. */
    static void move(Interpreter &it, const CompiledFunction &cf,
                     Word *regs, const BcMoveGroup &g);
};

} // namespace repro::interp

#endif // INTERP_COMPILED_H
