#include "interp/compiled.h"

#include "support/diagnostics.h"

namespace repro::interp {

using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

/** An extension that shares its source's register. */
bool
isFoldedExt(const Value *v)
{
    if (!v->isInstruction())
        return false;
    const auto *inst = static_cast<const Instruction *>(v);
    return inst->is(Opcode::SExt) || inst->is(Opcode::ZExt) ||
           inst->is(Opcode::FPExt);
}

/** Ends a segment: the executor charges steps up to here at once. */
bool
endsSegment(BcOp op)
{
    return op == BcOp::Jmp || op == BcOp::CondBr || op == BcOp::Ret ||
           op == BcOp::RetVoid || op == BcOp::Call;
}

[[noreturn]] void
throwStepLimit()
{
    throw FatalError("interpreter: step limit exceeded");
}

} // namespace

// --------------------------------------------------------- compilation

CompiledFunction::CompiledFunction(const ir::Function &func)
{
    compile(func);
}

uint32_t
CompiledFunction::slotOf(const Value *v)
{
    // Follow a chain of folded extensions to its source. The bound
    // only matters for malformed IR, where an extension may reach
    // itself; such an extension gets a register of its own.
    for (size_t hops = 0; isFoldedExt(v) && hops < profInsts_.size();
         ++hops) {
        v = static_cast<const Instruction *>(v)->operand(0);
    }
    int known = slots_.find(v);
    if (known >= 0)
        return static_cast<uint32_t>(known);
    const auto slot = static_cast<uint32_t>(frameTemplate_.size());
    slots_.insert(v, static_cast<int>(slot));

    Word init{};
    if (v->isConstant()) {
        const auto *c = static_cast<const ir::Constant *>(v);
        if (c->isFP()) {
            init.f = c->fpValue();
            if (floatResultRounds(c->type()))
                init.f = roundToFloatPrecision(init.f);
        } else {
            init.i = c->intValue();
        }
    } else if (v->isGlobal()) {
        globalSlots_.emplace_back(
            slot, static_cast<const ir::GlobalVariable *>(v));
    }
    frameTemplate_.push_back(init);
    return slot;
}

uint32_t
CompiledFunction::resultSlot(const Instruction *inst) const
{
    int slot = slots_.find(inst);
    reproAssert(slot >= 0, "compiled interp: result without a slot");
    return static_cast<uint32_t>(slot);
}

void
CompiledFunction::compile(const ir::Function &func)
{
    // Arguments occupy slots [0, numArgs) so the executor can copy
    // call arguments without a mapping step.
    for (size_t i = 0; i < func.numArgs(); ++i) {
        uint32_t slot = slotOf(func.arg(i));
        reproAssert(slot == i, "compiled interp: argument slot layout");
        paramKinds_.push_back(kindOf(func.arg(i)->type()));
    }
    returnKind_ = kindOf(func.returnType());

    // Pass 1: dense profile indices for every instruction (phis and
    // folded extensions included: they are charged through edge
    // move groups and the instruction after them), in layout order,
    // and result slots for every value-producing one, so forward
    // references (phis, cross-block uses) resolve during emission.
    // A block's profile indices start at blockProf.
    PointerMap blockProf;
    for (const auto &bb : func.blocks()) {
        blockProf.insert(bb.get(), static_cast<int>(profInsts_.size()));
        for (const auto &inst : bb->insts()) {
            profInsts_.push_back(inst.get());
            if (!inst->type()->isVoid() && !isFoldedExt(inst.get()))
                slotOf(inst.get());
        }
    }

    // Pass 2: block layout. A block's code starts after its leading
    // phi group; leading phis and folded extensions emit nothing.
    PointerMap blockPc;
    uint32_t pc = 0;
    for (const auto &bb : func.blocks()) {
        blockPc.insert(bb.get(), static_cast<int>(pc));
        bool leading = true;
        for (const auto &inst : bb->insts()) {
            if (inst->is(Opcode::Phi) && leading)
                continue;
            leading = false;
            if (!isFoldedExt(inst.get()))
                ++pc;
        }
    }
    auto pcOf = [&](const ir::BasicBlock *bb) {
        int at = blockPc.find(bb);
        reproAssert(at >= 0, "compiled interp: branch to a foreign block");
        return static_cast<uint32_t>(at);
    };
    entryPc_ = pcOf(func.entry());

    // Builds the move group of the CFG edge pred -> target; kNoGroup
    // when the target has no leading phis.
    auto edgeGroup = [&](const ir::BasicBlock *pred,
                         const ir::BasicBlock *target) -> uint32_t {
        size_t nphis = 0;
        while (nphis < target->size() &&
               target->insts()[nphis]->is(Opcode::Phi)) {
            ++nphis;
        }
        if (nphis == 0)
            return BcInst::kNoGroup;
        BcMoveGroup g;
        g.movesBegin = static_cast<uint32_t>(moves_.size());
        g.count = static_cast<uint32_t>(nphis);
        g.profBegin = static_cast<uint32_t>(blockProf.find(target));
        for (size_t k = 0; k < nphis; ++k) {
            const Instruction *phi = target->insts()[k].get();
            const Value *in = phi->incomingFor(pred);
            if (!in) {
                g.trap = true;
                g.count = static_cast<uint32_t>(k + 1);
                break;
            }
            moves_.push_back({resultSlot(phi), slotOf(in)});
        }
        const BcMove *mv = moves_.data() + g.movesBegin;
        const size_t nmoves = moves_.size() - g.movesBegin;
        for (size_t i = 0; i < nmoves && !g.overlaps; ++i) {
            for (size_t j = 0; j < nmoves; ++j) {
                if (i != j && mv[i].dst == mv[j].src) {
                    g.overlaps = true;
                    break;
                }
            }
        }
        groups_.push_back(g);
        return static_cast<uint32_t>(groups_.size() - 1);
    };

    auto trapOp = [&](BcInst &bc, const std::string &message) {
        bc.op = BcOp::Trap;
        bc.a = static_cast<uint32_t>(trapMessages_.size());
        trapMessages_.push_back(message);
    };

    auto loadOpFor = [](Type::Kind kind, BcOp &out) {
        switch (kind) {
          case Type::Kind::I1: out = BcOp::LoadI1; return true;
          case Type::Kind::I32: out = BcOp::LoadI32; return true;
          case Type::Kind::I64: out = BcOp::LoadI64; return true;
          case Type::Kind::Float: out = BcOp::LoadF32; return true;
          case Type::Kind::Double: out = BcOp::LoadF64; return true;
          case Type::Kind::Pointer: out = BcOp::LoadPtr; return true;
          default: return false;
        }
    };
    auto storeOpFor = [](Type::Kind kind, BcOp &out) {
        switch (kind) {
          case Type::Kind::I1: out = BcOp::StoreI1; return true;
          case Type::Kind::I32: out = BcOp::StoreI32; return true;
          case Type::Kind::I64: out = BcOp::StoreI64; return true;
          case Type::Kind::Float: out = BcOp::StoreF32; return true;
          case Type::Kind::Double: out = BcOp::StoreF64; return true;
          case Type::Kind::Pointer: out = BcOp::StorePtr; return true;
          default: return false;
        }
    };

    // Pass 3: emission. blockEnds marks the last instruction of each
    // block, where a segment ends whatever its op.
    std::vector<bool> blockEnds;
    uint32_t prof = 0; // profile index of inst, as in pass 1
    for (const auto &bb : func.blocks()) {
        bool leading = true;
        uint32_t folded = 0;
        const size_t blockBegin = code_.size();
        for (const auto &instPtr : bb->insts()) {
            const Instruction *inst = instPtr.get();
            const uint32_t instProf = prof++;
            if (inst->is(Opcode::Phi) && leading)
                continue; // handled by edge move groups
            leading = false;
            if (isFoldedExt(inst)) {
                ++folded;
                continue;
            }

            BcInst bc;
            bc.prof = instProf - folded;
            bc.charge = 1 + folded;
            folded = 0;
            if (!inst->type()->isVoid())
                bc.dst = resultSlot(inst);

            switch (inst->opcode()) {
              case Opcode::Phi:
                // A phi below a non-phi never occurs in verified IR;
                // refuse at execution time rather than miscompile.
                trapOp(bc, "interpreter: phi not at block start");
                break;
              case Opcode::Add: bc.op = BcOp::Add; goto binary;
              case Opcode::Sub: bc.op = BcOp::Sub; goto binary;
              case Opcode::Mul: bc.op = BcOp::Mul; goto binary;
              case Opcode::SDiv: bc.op = BcOp::SDiv; goto binary;
              case Opcode::SRem: bc.op = BcOp::SRem; goto binary;
              case Opcode::And: bc.op = BcOp::And; goto binary;
              case Opcode::Or: bc.op = BcOp::Or; goto binary;
              case Opcode::Xor: bc.op = BcOp::Xor; goto binary;
              case Opcode::Shl: bc.op = BcOp::Shl; goto binary;
              case Opcode::AShr: bc.op = BcOp::AShr; goto binary;
              case Opcode::FAdd:
              case Opcode::FSub:
              case Opcode::FMul:
              case Opcode::FDiv:
                bc.op = inst->opcode() == Opcode::FAdd   ? BcOp::FAdd
                        : inst->opcode() == Opcode::FSub ? BcOp::FSub
                        : inst->opcode() == Opcode::FMul ? BcOp::FMul
                                                         : BcOp::FDiv;
                bc.round = floatResultRounds(inst->type());
                goto binary;
              binary:
                bc.a = slotOf(inst->operand(0));
                bc.b = slotOf(inst->operand(1));
                break;
              case Opcode::Load:
                if (!loadOpFor(inst->type()->kind(), bc.op)) {
                    trapOp(bc, "load of unsupported type " +
                                   inst->type()->str());
                    break;
                }
                bc.a = slotOf(inst->operand(0));
                break;
              case Opcode::Store:
                if (!storeOpFor(inst->operand(0)->type()->kind(),
                                bc.op)) {
                    trapOp(bc, "store of unsupported type " +
                                   inst->operand(0)->type()->str());
                    break;
                }
                bc.a = slotOf(inst->operand(0));
                bc.b = slotOf(inst->operand(1));
                break;
              case Opcode::GEP: {
                bc.op = BcOp::Gep;
                bc.a = slotOf(inst->operand(0));
                bc.b = static_cast<uint32_t>(extra_.size());
                Type *cur = inst->accessType();
                extra_.push_back(slotOf(inst->operand(1)));
                scales_.push_back(cur->sizeInBytes());
                for (size_t k = 2; k < inst->numOperands(); ++k) {
                    cur = cur->element();
                    extra_.push_back(slotOf(inst->operand(k)));
                    scales_.push_back(cur->sizeInBytes());
                }
                bc.c = static_cast<uint32_t>(extra_.size());
                break;
              }
              case Opcode::Alloca:
                bc.op = BcOp::Alloca;
                bc.a = static_cast<uint32_t>(allocSizes_.size());
                allocSizes_.push_back(inst->accessType()->sizeInBytes());
                break;
              case Opcode::ICmp:
              case Opcode::FCmp:
                bc.op = inst->opcode() == Opcode::ICmp ? BcOp::ICmp
                                                       : BcOp::FCmp;
                bc.pred = inst->cmpPred();
                bc.a = slotOf(inst->operand(0));
                bc.b = slotOf(inst->operand(1));
                break;
              case Opcode::Select:
                bc.op = BcOp::Select;
                bc.a = slotOf(inst->operand(0));
                bc.b = slotOf(inst->operand(1));
                bc.c = slotOf(inst->operand(2));
                break;
              case Opcode::Br:
                if (inst->isConditionalBranch()) {
                    bc.op = BcOp::CondBr;
                    bc.a = slotOf(inst->operand(0));
                    bc.b = pcOf(inst->blockTargets()[0]);
                    bc.c = pcOf(inst->blockTargets()[1]);
                    bc.g0 = edgeGroup(bb.get(),
                                      inst->blockTargets()[0]);
                    bc.g1 = edgeGroup(bb.get(),
                                      inst->blockTargets()[1]);
                } else {
                    bc.op = BcOp::Jmp;
                    bc.a = pcOf(inst->blockTargets()[0]);
                    bc.g0 = edgeGroup(bb.get(),
                                      inst->blockTargets()[0]);
                }
                break;
              case Opcode::Ret:
                if (inst->numOperands() == 0) {
                    bc.op = BcOp::RetVoid;
                } else {
                    bc.op = BcOp::Ret;
                    bc.a = slotOf(inst->operand(0));
                }
                break;
              case Opcode::SExt:
              case Opcode::ZExt:
              case Opcode::FPExt:
                break; // folded above, never emitted
              case Opcode::Trunc:
                bc.op = inst->type()->kind() == Type::Kind::I32
                            ? BcOp::TruncI32
                        : inst->type()->kind() == Type::Kind::I1
                            ? BcOp::TruncI1
                            : BcOp::Mov;
                bc.a = slotOf(inst->operand(0));
                break;
              case Opcode::SIToFP:
                bc.op = BcOp::SIToFP;
                bc.round = floatResultRounds(inst->type());
                bc.a = slotOf(inst->operand(0));
                break;
              case Opcode::FPToSI:
                bc.op = BcOp::FPToSI;
                bc.a = slotOf(inst->operand(0));
                break;
              case Opcode::FPTrunc:
                bc.op = BcOp::FPTrunc;
                bc.a = slotOf(inst->operand(0));
                break;
              case Opcode::Call: {
                const ir::Function *callee = inst->callee();
                const bool defined = !callee->isDeclaration();
                BcCall call;
                call.callee = inst->callee();
                call.argsBegin = static_cast<uint32_t>(callArgs_.size());
                for (size_t k = 0; k < inst->numOperands(); ++k) {
                    BcCallArg arg;
                    arg.slot = slotOf(inst->operand(k));
                    arg.kind = kindOf(inst->operand(k)->type());
                    if (defined && k < callee->numArgs()) {
                        arg.matches =
                            kindOf(callee->arg(k)->type()) == arg.kind;
                    }
                    callArgs_.push_back(arg);
                }
                call.argsEnd = static_cast<uint32_t>(callArgs_.size());
                call.result = kindOf(inst->type());
                call.resultMatches =
                    !defined ||
                    kindOf(callee->returnType()) == call.result;
                bc.op = BcOp::Call;
                bc.a = static_cast<uint32_t>(calls_.size());
                calls_.push_back(call);
                break;
              }
            }
            code_.push_back(bc);
            blockEnds.push_back(false);
        }
        if (code_.size() > blockBegin)
            blockEnds.back() = true;
    }
    markSegments(blockEnds);
}

void
CompiledFunction::markSegments(const std::vector<bool> &blockEnds)
{
    uint32_t rest = 0;
    for (size_t k = code_.size(); k-- > 0;) {
        BcInst &bc = code_[k];
        if (blockEnds[k] || endsSegment(bc.op))
            rest = 0;
        rest += bc.charge;
        bc.rest = rest;
    }
}

// ----------------------------------------------------------- execution

RuntimeValue
CompiledExec::run(Interpreter &it, ir::Function *func,
                  const std::vector<RuntimeValue> &args, int depth)
{
    if (depth > Interpreter::kMaxDepth)
        throw FatalError("interpreter: call depth exceeded");
    if (func->isDeclaration()) {
        auto nat = it.natives_.find(func->name());
        if (nat == it.natives_.end()) {
            throw FatalError("interpreter: no native handler for @" +
                             func->name());
        }
        return it.callNative(nat->second, args, depth);
    }
    reproAssert(args.size() == func->numArgs(),
                "interpreter: wrong argument count");

    LoadedFunction &fn = it.load(func);
    std::vector<Word> &frame = it.frames_[static_cast<size_t>(depth)];
    frame.assign(fn.frame.begin(), fn.frame.end());
    const auto &kinds = fn.code.paramKinds();
    for (size_t i = 0; i < args.size(); ++i)
        frame[i] = toWord(args[i], kinds[i]);
    return toValue(enter(it, fn, depth), fn.code.returnKind());
}

Word
CompiledExec::enter(Interpreter &it, LoadedFunction &fn, int depth)
{
    Word *regs = it.frames_[static_cast<size_t>(depth)].data();
    const uint32_t pc = fn.code.entryPc();
    if (it.profiling_)
        return execute<true>(it, fn, regs, pc, BcInst::kNoGroup, depth);
    return execute<false>(it, fn, regs, pc, BcInst::kNoGroup, depth);
}

Word
CompiledExec::call(Interpreter &it, LoadedFunction &fn, uint32_t idx,
                   const Word *regs, int depth)
{
    const int calleeDepth = depth + 1;
    if (calleeDepth > Interpreter::kMaxDepth)
        throw FatalError("interpreter: call depth exceeded");
    const BcCall &site = fn.code.calls()[idx];
    const BcCallArg *args = fn.code.callArgs().data() + site.argsBegin;
    const uint32_t nargs = site.argsEnd - site.argsBegin;

    Callee &callee = fn.callees[idx];
    if (!callee.code && !callee.native) {
        ir::Function *target = site.callee;
        if (target->isDeclaration()) {
            auto nat = it.natives_.find(target->name());
            if (nat == it.natives_.end()) {
                throw FatalError("interpreter: no native handler for @" +
                                 target->name());
            }
            callee.native = &nat->second;
        } else {
            reproAssert(nargs == target->numArgs(),
                        "interpreter: wrong argument count");
            callee.code = &it.load(target);
        }
    }

    if (callee.native) {
        std::vector<RuntimeValue> &values =
            it.nativeArgs_[static_cast<size_t>(calleeDepth)];
        values.clear();
        for (uint32_t k = 0; k < nargs; ++k)
            values.push_back(toValue(regs[args[k].slot], args[k].kind));
        return toWord(it.callNative(*callee.native, values, calleeDepth),
                      site.result);
    }

    LoadedFunction &target = *callee.code;
    std::vector<Word> &frame =
        it.frames_[static_cast<size_t>(calleeDepth)];
    // The template's argument slots are zero: an argument whose kind
    // differs from its parameter's stays zero, as the two
    // conversions of the tree-walker leave it.
    frame.assign(target.frame.begin(), target.frame.end());
    for (uint32_t k = 0; k < nargs; ++k) {
        if (args[k].matches)
            frame[k] = regs[args[k].slot];
    }
    Word result = enter(it, target, calleeDepth);
    if (!site.resultMatches)
        result.i = 0;
    return result;
}

inline void
CompiledExec::chargeEach(Interpreter &it, uint64_t *prof, uint32_t first,
                         uint32_t n)
{
    for (uint32_t k = 0; k < n; ++k) {
        if (++it.steps_ > it.stepLimit_)
            throwStepLimit();
        if (prof) {
            ++prof[first + k];
            ++it.profile_.totalSteps;
        }
    }
}

void
CompiledExec::move(Interpreter &it, const CompiledFunction &cf,
                   Word *regs, const BcMoveGroup &g)
{
    const BcMove *mv = cf.moves().data() + g.movesBegin;
    if (!g.overlaps) {
        for (uint32_t k = 0; k < g.count; ++k)
            regs[mv[k].dst] = regs[mv[k].src];
        return;
    }
    std::vector<Word> &scratch = it.moveScratch_;
    scratch.resize(g.count);
    for (uint32_t k = 0; k < g.count; ++k)
        scratch[k] = regs[mv[k].src];
    for (uint32_t k = 0; k < g.count; ++k)
        regs[mv[k].dst] = scratch[k];
}

void
CompiledExec::movePrecise(Interpreter &it, const CompiledFunction &cf,
                          Word *regs, uint64_t *prof, uint32_t group)
{
    if (group == BcInst::kNoGroup)
        return;
    const BcMoveGroup &g = cf.moveGroup(group);
    chargeEach(it, prof, g.profBegin, g.count);
    if (g.trap)
        throw FatalError("interpreter: phi without incoming for pred");
    move(it, cf, regs, g);
}

template <bool kPrecise>
Word
CompiledExec::execute(Interpreter &it, LoadedFunction &fn, Word *r,
                      uint32_t pc, uint32_t group, int depth)
{
    const CompiledFunction &cf = fn.code;
    const BcInst *code = cf.code().data();
    const uint32_t *extra = cf.extra().data();
    const uint64_t *scales = cf.scales().data();
    Memory &mem = it.mem_;
    uint64_t &steps = it.steps_;
    const uint64_t limit = it.stepLimit_;
    uint64_t *prof = nullptr;
    if constexpr (kPrecise) {
        if (it.profiling_) {
            if (fn.profile.empty())
                fn.profile.assign(cf.numProfiled(), 0);
            prof = fn.profile.data();
        }
        movePrecise(it, cf, r, prof, group);
    }

    // Fast mode charges a whole segment as it enters; false when the
    // charge would cross the limit (the segment then runs precisely).
    auto charge = [&](uint64_t n) {
        if (steps + n > limit)
            return false;
        steps += n;
        return true;
    };
    // Takes the edge into pc `target` with move group g: one charge
    // covers the edge's phis and the target's segment.
    auto takeEdge = [&](uint32_t g, uint32_t target) {
        if constexpr (kPrecise) {
            movePrecise(it, cf, r, prof, g);
        } else if (g == BcInst::kNoGroup) {
            if (!charge(code[target].rest))
                return false;
        } else {
            const BcMoveGroup &mg = cf.moveGroup(g);
            if (mg.trap || !charge(mg.count + code[target].rest))
                return false;
            move(it, cf, r, mg);
        }
        pc = target;
        return true;
    };

    try {
        if constexpr (!kPrecise) {
            if (!charge(code[pc].rest))
                goto precise;
        }
        while (true) {
            const BcInst &bc = code[pc];
            if constexpr (kPrecise)
                chargeEach(it, prof, bc.prof, bc.charge);

            switch (bc.op) {
              case BcOp::Add:
                r[bc.dst].i = r[bc.a].i + r[bc.b].i;
                ++pc;
                break;
              case BcOp::Sub:
                r[bc.dst].i = r[bc.a].i - r[bc.b].i;
                ++pc;
                break;
              case BcOp::Mul:
                r[bc.dst].i = r[bc.a].i * r[bc.b].i;
                ++pc;
                break;
              case BcOp::SDiv: {
                int64_t d = r[bc.b].i;
                if (d == 0)
                    throw FatalError("interpreter: division by zero");
                r[bc.dst].i = r[bc.a].i / d;
                ++pc;
                break;
              }
              case BcOp::SRem: {
                int64_t d = r[bc.b].i;
                if (d == 0)
                    throw FatalError("interpreter: remainder by zero");
                r[bc.dst].i = r[bc.a].i % d;
                ++pc;
                break;
              }
              case BcOp::And:
                r[bc.dst].i = r[bc.a].i & r[bc.b].i;
                ++pc;
                break;
              case BcOp::Or:
                r[bc.dst].i = r[bc.a].i | r[bc.b].i;
                ++pc;
                break;
              case BcOp::Xor:
                r[bc.dst].i = r[bc.a].i ^ r[bc.b].i;
                ++pc;
                break;
              case BcOp::Shl:
                // As Interpreter::run: shift the bits of the int64_t.
                r[bc.dst].i = static_cast<int64_t>(
                    static_cast<uint64_t>(r[bc.a].i)
                    << (r[bc.b].i & 63));
                ++pc;
                break;
              case BcOp::AShr:
                r[bc.dst].i = r[bc.a].i >> (r[bc.b].i & 63);
                ++pc;
                break;
              case BcOp::FAdd: {
                double v = r[bc.a].f + r[bc.b].f;
                r[bc.dst].f = bc.round ? roundToFloatPrecision(v) : v;
                ++pc;
                break;
              }
              case BcOp::FSub: {
                double v = r[bc.a].f - r[bc.b].f;
                r[bc.dst].f = bc.round ? roundToFloatPrecision(v) : v;
                ++pc;
                break;
              }
              case BcOp::FMul: {
                double v = r[bc.a].f * r[bc.b].f;
                r[bc.dst].f = bc.round ? roundToFloatPrecision(v) : v;
                ++pc;
                break;
              }
              case BcOp::FDiv: {
                double v = r[bc.a].f / r[bc.b].f;
                r[bc.dst].f = bc.round ? roundToFloatPrecision(v) : v;
                ++pc;
                break;
              }
              case BcOp::LoadI1:
                r[bc.dst].i =
                    mem.load<uint8_t>(static_cast<uint64_t>(r[bc.a].i)) !=
                    0;
                ++pc;
                break;
              case BcOp::LoadI32:
                r[bc.dst].i =
                    mem.load<int32_t>(static_cast<uint64_t>(r[bc.a].i));
                ++pc;
                break;
              case BcOp::LoadI64:
                r[bc.dst].i =
                    mem.load<int64_t>(static_cast<uint64_t>(r[bc.a].i));
                ++pc;
                break;
              case BcOp::LoadF32:
                r[bc.dst].f =
                    mem.load<float>(static_cast<uint64_t>(r[bc.a].i));
                ++pc;
                break;
              case BcOp::LoadF64:
                r[bc.dst].f =
                    mem.load<double>(static_cast<uint64_t>(r[bc.a].i));
                ++pc;
                break;
              case BcOp::LoadPtr:
                r[bc.dst].i = static_cast<int64_t>(
                    mem.load<uint64_t>(static_cast<uint64_t>(r[bc.a].i)));
                ++pc;
                break;
              case BcOp::StoreI1:
                mem.store<uint8_t>(static_cast<uint64_t>(r[bc.b].i),
                                   r[bc.a].i != 0);
                ++pc;
                break;
              case BcOp::StoreI32:
                mem.store<int32_t>(static_cast<uint64_t>(r[bc.b].i),
                                   static_cast<int32_t>(r[bc.a].i));
                ++pc;
                break;
              case BcOp::StoreI64:
                mem.store<int64_t>(static_cast<uint64_t>(r[bc.b].i),
                                   r[bc.a].i);
                ++pc;
                break;
              case BcOp::StoreF32:
                mem.store<float>(static_cast<uint64_t>(r[bc.b].i),
                                 static_cast<float>(r[bc.a].f));
                ++pc;
                break;
              case BcOp::StoreF64:
                mem.store<double>(static_cast<uint64_t>(r[bc.b].i),
                                  r[bc.a].f);
                ++pc;
                break;
              case BcOp::StorePtr:
                mem.store<uint64_t>(static_cast<uint64_t>(r[bc.b].i),
                                    static_cast<uint64_t>(r[bc.a].i));
                ++pc;
                break;
              case BcOp::Gep: {
                uint64_t addr = static_cast<uint64_t>(r[bc.a].i);
                for (uint32_t k = bc.b; k < bc.c; ++k)
                    addr += static_cast<uint64_t>(r[extra[k]].i) *
                            scales[k];
                r[bc.dst].i = static_cast<int64_t>(addr);
                ++pc;
                break;
              }
              case BcOp::Alloca:
                r[bc.dst].i =
                    static_cast<int64_t>(mem.allocate(cf.allocSize(bc.a)));
                ++pc;
                break;
              case BcOp::ICmp: {
                int64_t a = r[bc.a].i;
                int64_t b = r[bc.b].i;
                bool v = false;
                switch (bc.pred) {
                  case ir::CmpPred::EQ: v = a == b; break;
                  case ir::CmpPred::NE: v = a != b; break;
                  case ir::CmpPred::LT: v = a < b; break;
                  case ir::CmpPred::LE: v = a <= b; break;
                  case ir::CmpPred::GT: v = a > b; break;
                  case ir::CmpPred::GE: v = a >= b; break;
                }
                r[bc.dst].i = v;
                ++pc;
                break;
              }
              case BcOp::FCmp: {
                double a = r[bc.a].f;
                double b = r[bc.b].f;
                bool v = false;
                switch (bc.pred) {
                  case ir::CmpPred::EQ: v = a == b; break;
                  case ir::CmpPred::NE: v = a != b; break;
                  case ir::CmpPred::LT: v = a < b; break;
                  case ir::CmpPred::LE: v = a <= b; break;
                  case ir::CmpPred::GT: v = a > b; break;
                  case ir::CmpPred::GE: v = a >= b; break;
                }
                r[bc.dst].i = v;
                ++pc;
                break;
              }
              case BcOp::Select:
                r[bc.dst] = r[bc.a].i != 0 ? r[bc.b] : r[bc.c];
                ++pc;
                break;
              case BcOp::Jmp:
                if (!takeEdge(bc.g0, bc.a)) {
                    group = bc.g0;
                    pc = bc.a;
                    goto precise;
                }
                break;
              case BcOp::CondBr: {
                const bool taken = r[bc.a].i != 0;
                const uint32_t g = taken ? bc.g0 : bc.g1;
                const uint32_t target = taken ? bc.b : bc.c;
                if (!takeEdge(g, target)) {
                    group = g;
                    pc = target;
                    goto precise;
                }
                break;
              }
              case BcOp::Ret:
                return r[bc.a];
              case BcOp::RetVoid:
                return Word{};
              case BcOp::Mov:
                r[bc.dst] = r[bc.a];
                ++pc;
                break;
              case BcOp::TruncI32:
                r[bc.dst].i = static_cast<int32_t>(r[bc.a].i);
                ++pc;
                break;
              case BcOp::TruncI1:
                r[bc.dst].i = r[bc.a].i & 1;
                ++pc;
                break;
              case BcOp::SIToFP: {
                double v = static_cast<double>(r[bc.a].i);
                r[bc.dst].f = bc.round ? roundToFloatPrecision(v) : v;
                ++pc;
                break;
              }
              case BcOp::FPToSI:
                r[bc.dst].i = static_cast<int64_t>(r[bc.a].f);
                ++pc;
                break;
              case BcOp::FPTrunc:
                r[bc.dst].f = roundToFloatPrecision(r[bc.a].f);
                ++pc;
                break;
              case BcOp::Call: {
                Word v = call(it, fn, bc.a, r, depth);
                if (bc.dst != BcInst::kNoSlot)
                    r[bc.dst] = v;
                ++pc;
                // The call ended a segment; the next one starts here.
                if constexpr (!kPrecise) {
                    if (!charge(code[pc].rest)) {
                        group = BcInst::kNoGroup;
                        goto precise;
                    }
                }
                break;
              }
              case BcOp::Trap:
                throw FatalError(cf.trapMessage(bc.a));
            }
        }
    } catch (...) {
        // The segment was charged whole as it was entered: give back
        // the steps of the instructions after the one that threw.
        if constexpr (!kPrecise)
            steps -= code[pc].rest - code[pc].charge;
        throw;
    }

precise:
    // Only the fast instantiation gets here: the segment at pc (and
    // the phis of group) would cross the step limit.
    return execute<true>(it, fn, r, pc, group, depth);
}

} // namespace repro::interp
