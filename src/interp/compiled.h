/**
 * @file
 * Register-addressed bytecode compilation of IR functions.
 *
 * The tree-walking reference interpreter pays, per dynamic
 * instruction, an `unordered_map` lookup per operand, a map insertion
 * per result, a string-free but branchy opcode dispatch, and — when
 * profiling — a `std::map<const Instruction *, uint64_t>` bump. Now
 * that PR 3 made matching ~10x faster, that is the dominant cost of
 * every end-to-end experiment (Figures 16-19). Compilation removes
 * all of it from the execution loop, mirroring the solver's
 * slot-addressed compile step (solver/compiled.h):
 *
 *  - every value (argument, instruction result, interned constant,
 *    global address) gets a dense `uint32_t` slot in a flat frame of
 *    RuntimeValues, so an operand read is one vector index and a
 *    result write is one vector store;
 *  - instructions become one contiguous `BcInst` array in block
 *    layout order; branches are pre-resolved program-counter jumps,
 *    types are pre-resolved into specialized opcodes (LoadF64,
 *    StoreI32, ...), GEP scales and alloca sizes are pre-computed
 *    immediates, and float-rounding is a pre-computed flag;
 *  - phi groups are pre-resolved into per-CFG-edge parallel move
 *    groups: taking an edge copies the incoming slots of the target
 *    block's phis (through a scratch buffer, preserving the atomic
 *    group semantics) instead of scanning instructions and hashing
 *    values at run time;
 *  - profile counters are a dense `uint64_t[]` indexed by instruction
 *    slot, merged into the name-keyed Profile map once per run
 *    instead of a map bump per dynamic instruction.
 *
 * A CompiledFunction is immutable after construction. The Interpreter
 * owns one per executed function and keeps the tree-walker as
 * Interpreter::runReference; both engines must produce byte-identical
 * heaps, return values and Profile counts (the differential contract
 * tests/test_interp_compiled.cpp and MatchingDriver::verifyTransforms
 * enforce across the whole benchmark suite).
 */
#ifndef INTERP_COMPILED_H
#define INTERP_COMPILED_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "ir/function.h"

namespace repro::interp {

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
    // dst = a + sum(slot_k * scale_k) over extra[extraBegin, extraEnd).
    Gep,
    // dst = allocate(imm).
    Alloca,
    // Comparisons (pred field) and selection dst = a ? b : c.
    ICmp, FCmp, Select,
    // Control flow: Jmp to pc a (edge moves g0); CondBr on a to pc
    // b (moves g0) or pc c (moves g1); Ret returns slot a.
    Jmp, CondBr, Ret, RetVoid,
    // Conversions: Mov covers SExt/ZExt/FPExt (no-ops on the
    // RuntimeValue representation).
    Mov, TruncI32, TruncI1, SIToFP, FPToSI, FPTrunc,
    // dst = callee(imm)(extra slots); dst absent for void callees.
    Call,
    // Always throws FatalError(trapMessage(imm)); compiled in place
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
    uint32_t a = 0, b = 0, c = 0;
    /** Edge move-group ids of Jmp (g0) and CondBr (g0 true, g1 false). */
    uint32_t g0 = kNoGroup, g1 = kNoGroup;
    /** Dense profile index of the source IR instruction. */
    uint32_t prof = 0;
    /** Alloca size / Call callee index / Trap message index. */
    uint64_t imm = 0;
    /** Gep index slots (paired with scales) / Call argument slots. */
    uint32_t extraBegin = 0, extraEnd = 0;
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
    /** Edge whose phi had no incoming for the predecessor: taking it
     *  throws (matches the tree-walker's execution-time error). */
    bool trap = false;
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

    /** Fresh frame with constants pre-evaluated; callers fill
     *  argument and global slots. */
    const std::vector<RuntimeValue> &frameTemplate() const
    {
        return frameTemplate_;
    }

    /** (slot, global) pairs the executor resolves per Interpreter. */
    const std::vector<std::pair<uint32_t, const ir::GlobalVariable *>> &
    globalSlots() const
    {
        return globalSlots_;
    }

    const std::vector<uint32_t> &extra() const { return extra_; }
    /** GEP scale factors, parallel to the Gep extra slot range. */
    const std::vector<uint64_t> &scales() const { return scales_; }
    const std::vector<BcMove> &moves() const { return moves_; }
    const BcMoveGroup &moveGroup(uint32_t id) const
    {
        return groups_[id];
    }
    ir::Function *callee(uint64_t idx) const { return callees_[idx]; }
    const std::string &trapMessage(uint64_t idx) const
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
    void compile(const ir::Function &func);

    std::vector<BcInst> code_;
    std::vector<uint32_t> extra_;
    std::vector<uint64_t> scales_;
    std::vector<BcMove> moves_;
    std::vector<BcMoveGroup> groups_;
    std::vector<RuntimeValue> frameTemplate_;
    std::vector<std::pair<uint32_t, const ir::GlobalVariable *>>
        globalSlots_;
    std::vector<ir::Function *> callees_;
    std::vector<std::string> trapMessages_;
    std::vector<const ir::Instruction *> profInsts_;
    std::map<const ir::Value *, uint32_t> slots_;
    uint32_t entryPc_ = 0;
};

/** The bytecode executor; a friend of Interpreter. */
class CompiledExec
{
  public:
    /** Execute @p func (compiling it on first use) with @p args. */
    static RuntimeValue run(Interpreter &interp, ir::Function *func,
                            const std::vector<RuntimeValue> &args,
                            int depth);
};

} // namespace repro::interp

#endif // INTERP_COMPILED_H
