#include "interp/compiled.h"

#include "support/diagnostics.h"

namespace repro::interp {

using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;


// --------------------------------------------------------- compilation

CompiledFunction::CompiledFunction(const ir::Function &func)
{
    compile(func);
}

uint32_t
CompiledFunction::slotOf(const Value *v)
{
    auto [it, inserted] =
        slots_.emplace(v, static_cast<uint32_t>(frameTemplate_.size()));
    if (!inserted)
        return it->second;

    RuntimeValue init = RuntimeValue::makeVoid();
    if (v->isConstant()) {
        const auto *c = static_cast<const ir::Constant *>(v);
        if (c->isFP()) {
            double val = c->fpValue();
            if (floatResultRounds(c->type()))
                val = roundToFloatPrecision(val);
            init = RuntimeValue::makeFP(val);
        } else {
            init = RuntimeValue::makeInt(c->intValue());
        }
    } else if (v->isGlobal()) {
        globalSlots_.emplace_back(
            it->second, static_cast<const ir::GlobalVariable *>(v));
    }
    frameTemplate_.push_back(init);
    return it->second;
}

void
CompiledFunction::compile(const ir::Function &func)
{
    // Arguments occupy slots [0, numArgs) so the executor can copy
    // call arguments without a mapping step.
    for (size_t i = 0; i < func.numArgs(); ++i) {
        uint32_t slot = slotOf(func.arg(i));
        reproAssert(slot == i, "compiled interp: argument slot layout");
    }

    // Pass 1: dense profile indices for every instruction (phis
    // included — they are charged through edge move groups) and
    // result slots for every value-producing instruction, so forward
    // references (phis, cross-block uses) resolve during emission.
    std::map<const Instruction *, uint32_t> profIdx;
    for (const auto &bb : func.blocks()) {
        for (const auto &inst : bb->insts()) {
            profIdx[inst.get()] =
                static_cast<uint32_t>(profInsts_.size());
            profInsts_.push_back(inst.get());
            if (!inst->type()->isVoid())
                slotOf(inst.get());
        }
    }

    // Pass 2: block layout. A block's code starts after its leading
    // phi group (leading phis emit no instruction of their own).
    std::map<const ir::BasicBlock *, uint32_t> blockPc;
    uint32_t pc = 0;
    for (const auto &bb : func.blocks()) {
        blockPc[bb.get()] = pc;
        size_t leading = 0;
        while (leading < bb->size() &&
               bb->insts()[leading]->is(Opcode::Phi)) {
            ++leading;
        }
        pc += static_cast<uint32_t>(bb->size() - leading);
    }
    entryPc_ = blockPc.at(func.entry());

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
        g.profBegin = profIdx.at(target->insts()[0].get());
        for (size_t k = 0; k < nphis; ++k) {
            const Instruction *phi = target->insts()[k].get();
            const Value *in = phi->incomingFor(pred);
            if (!in) {
                g.trap = true;
                break;
            }
            moves_.push_back({slots_.at(phi), slotOf(in)});
        }
        groups_.push_back(g);
        return static_cast<uint32_t>(groups_.size() - 1);
    };

    auto trapOp = [&](BcInst &bc, const std::string &message) {
        bc.op = BcOp::Trap;
        bc.imm = trapMessages_.size();
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

    // Pass 3: emission.
    for (const auto &bb : func.blocks()) {
        bool leading = true;
        for (const auto &instPtr : bb->insts()) {
            const Instruction *inst = instPtr.get();
            if (inst->is(Opcode::Phi) && leading)
                continue; // handled by edge move groups
            leading = false;

            BcInst bc;
            bc.prof = profIdx.at(inst);
            if (!inst->type()->isVoid())
                bc.dst = slots_.at(inst);

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
                bc.extraBegin = static_cast<uint32_t>(extra_.size());
                Type *cur = inst->accessType();
                extra_.push_back(slotOf(inst->operand(1)));
                scales_.push_back(cur->sizeInBytes());
                for (size_t k = 2; k < inst->numOperands(); ++k) {
                    cur = cur->element();
                    extra_.push_back(slotOf(inst->operand(k)));
                    scales_.push_back(cur->sizeInBytes());
                }
                bc.extraEnd = static_cast<uint32_t>(extra_.size());
                break;
              }
              case Opcode::Alloca:
                bc.op = BcOp::Alloca;
                bc.imm = inst->accessType()->sizeInBytes();
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
                    bc.b = blockPc.at(inst->blockTargets()[0]);
                    bc.c = blockPc.at(inst->blockTargets()[1]);
                    bc.g0 = edgeGroup(bb.get(),
                                      inst->blockTargets()[0]);
                    bc.g1 = edgeGroup(bb.get(),
                                      inst->blockTargets()[1]);
                } else {
                    bc.op = BcOp::Jmp;
                    bc.a = blockPc.at(inst->blockTargets()[0]);
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
                bc.op = BcOp::Mov;
                bc.a = slotOf(inst->operand(0));
                break;
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
              case Opcode::Call:
                bc.op = BcOp::Call;
                bc.imm = callees_.size();
                callees_.push_back(inst->callee());
                bc.extraBegin = static_cast<uint32_t>(extra_.size());
                for (size_t k = 0; k < inst->numOperands(); ++k) {
                    extra_.push_back(slotOf(inst->operand(k)));
                    scales_.push_back(0); // keep scales_ aligned
                }
                bc.extraEnd = static_cast<uint32_t>(extra_.size());
                break;
            }
            code_.push_back(bc);
        }
    }
}

// ----------------------------------------------------------- execution

RuntimeValue
CompiledExec::run(Interpreter &it, ir::Function *func,
                  const std::vector<RuntimeValue> &args, int depth)
{
    if (depth > 64)
        throw FatalError("interpreter: call depth exceeded");
    if (func->isDeclaration()) {
        auto nat = it.natives_.find(func->name());
        if (nat == it.natives_.end()) {
            throw FatalError("interpreter: no native handler for @" +
                             func->name());
        }
        return nat->second(args, it);
    }
    reproAssert(args.size() == func->numArgs(),
                "interpreter: wrong argument count");

    const CompiledFunction &cf = it.compiledFor(func);
    std::vector<RuntimeValue> slots = cf.frameTemplate();
    for (size_t i = 0; i < args.size(); ++i)
        slots[i] = args[i];
    for (const auto &[slot, global] : cf.globalSlots()) {
        slots[slot] = RuntimeValue::makeInt(
            static_cast<int64_t>(it.globalAddrs_.at(global)));
    }

    uint64_t *prof =
        it.profiling_ ? it.profileBufferFor(cf) : nullptr;
    uint64_t &steps = it.steps_;
    const uint64_t limit = it.stepLimit_;
    Memory &mem = it.mem_;
    const BcInst *code = cf.code().data();
    const uint32_t *extra = cf.extra().data();
    const uint64_t *scales = cf.scales().data();
    std::vector<RuntimeValue> moveScratch;

    // Applies the phi moves of one CFG edge: every member phi is
    // charged one dynamic instruction (matching the reference
    // engine's per-phi accounting), all sources are read before any
    // destination is written.
    auto applyMoves = [&](uint32_t groupId) {
        if (groupId == BcInst::kNoGroup)
            return;
        const BcMoveGroup &g = cf.moveGroup(groupId);
        if (g.trap) {
            throw FatalError(
                "interpreter: phi without incoming for pred");
        }
        for (uint32_t k = 0; k < g.count; ++k) {
            if (++steps > limit)
                throw FatalError("interpreter: step limit exceeded");
            if (prof) {
                ++prof[g.profBegin + k];
                ++it.profile_.totalSteps;
            }
        }
        const BcMove *mv = cf.moves().data() + g.movesBegin;
        if (g.count == 1) {
            slots[mv[0].dst] = slots[mv[0].src];
            return;
        }
        moveScratch.clear();
        for (uint32_t k = 0; k < g.count; ++k)
            moveScratch.push_back(slots[mv[k].src]);
        for (uint32_t k = 0; k < g.count; ++k)
            slots[mv[k].dst] = moveScratch[k];
    };

    uint32_t pc = cf.entryPc();
    while (true) {
        const BcInst &bc = code[pc];
        if (++steps > limit)
            throw FatalError("interpreter: step limit exceeded");
        if (prof) {
            ++prof[bc.prof];
            ++it.profile_.totalSteps;
        }

        switch (bc.op) {
          case BcOp::Add:
            slots[bc.dst] =
                RuntimeValue::makeInt(slots[bc.a].i + slots[bc.b].i);
            ++pc;
            break;
          case BcOp::Sub:
            slots[bc.dst] =
                RuntimeValue::makeInt(slots[bc.a].i - slots[bc.b].i);
            ++pc;
            break;
          case BcOp::Mul:
            slots[bc.dst] =
                RuntimeValue::makeInt(slots[bc.a].i * slots[bc.b].i);
            ++pc;
            break;
          case BcOp::SDiv: {
            int64_t d = slots[bc.b].i;
            if (d == 0)
                throw FatalError("interpreter: division by zero");
            slots[bc.dst] = RuntimeValue::makeInt(slots[bc.a].i / d);
            ++pc;
            break;
          }
          case BcOp::SRem: {
            int64_t d = slots[bc.b].i;
            if (d == 0)
                throw FatalError("interpreter: remainder by zero");
            slots[bc.dst] = RuntimeValue::makeInt(slots[bc.a].i % d);
            ++pc;
            break;
          }
          case BcOp::And:
            slots[bc.dst] =
                RuntimeValue::makeInt(slots[bc.a].i & slots[bc.b].i);
            ++pc;
            break;
          case BcOp::Or:
            slots[bc.dst] =
                RuntimeValue::makeInt(slots[bc.a].i | slots[bc.b].i);
            ++pc;
            break;
          case BcOp::Xor:
            slots[bc.dst] =
                RuntimeValue::makeInt(slots[bc.a].i ^ slots[bc.b].i);
            ++pc;
            break;
          case BcOp::Shl:
            // As Interpreter::run: shift the bits of the int64_t.
            slots[bc.dst] = RuntimeValue::makeInt(static_cast<int64_t>(
                static_cast<uint64_t>(slots[bc.a].i)
                << (slots[bc.b].i & 63)));
            ++pc;
            break;
          case BcOp::AShr:
            slots[bc.dst] = RuntimeValue::makeInt(
                slots[bc.a].i >> (slots[bc.b].i & 63));
            ++pc;
            break;
          case BcOp::FAdd: {
            double v = slots[bc.a].f + slots[bc.b].f;
            slots[bc.dst] =
                RuntimeValue::makeFP(bc.round ? roundToFloatPrecision(v) : v);
            ++pc;
            break;
          }
          case BcOp::FSub: {
            double v = slots[bc.a].f - slots[bc.b].f;
            slots[bc.dst] =
                RuntimeValue::makeFP(bc.round ? roundToFloatPrecision(v) : v);
            ++pc;
            break;
          }
          case BcOp::FMul: {
            double v = slots[bc.a].f * slots[bc.b].f;
            slots[bc.dst] =
                RuntimeValue::makeFP(bc.round ? roundToFloatPrecision(v) : v);
            ++pc;
            break;
          }
          case BcOp::FDiv: {
            double v = slots[bc.a].f / slots[bc.b].f;
            slots[bc.dst] =
                RuntimeValue::makeFP(bc.round ? roundToFloatPrecision(v) : v);
            ++pc;
            break;
          }
          case BcOp::LoadI1:
            slots[bc.dst] = RuntimeValue::makeInt(
                mem.load<uint8_t>(
                    static_cast<uint64_t>(slots[bc.a].i)) != 0);
            ++pc;
            break;
          case BcOp::LoadI32:
            slots[bc.dst] = RuntimeValue::makeInt(mem.load<int32_t>(
                static_cast<uint64_t>(slots[bc.a].i)));
            ++pc;
            break;
          case BcOp::LoadI64:
            slots[bc.dst] = RuntimeValue::makeInt(mem.load<int64_t>(
                static_cast<uint64_t>(slots[bc.a].i)));
            ++pc;
            break;
          case BcOp::LoadF32:
            slots[bc.dst] = RuntimeValue::makeFP(mem.load<float>(
                static_cast<uint64_t>(slots[bc.a].i)));
            ++pc;
            break;
          case BcOp::LoadF64:
            slots[bc.dst] = RuntimeValue::makeFP(mem.load<double>(
                static_cast<uint64_t>(slots[bc.a].i)));
            ++pc;
            break;
          case BcOp::LoadPtr:
            slots[bc.dst] = RuntimeValue::makeInt(
                static_cast<int64_t>(mem.load<uint64_t>(
                    static_cast<uint64_t>(slots[bc.a].i))));
            ++pc;
            break;
          case BcOp::StoreI1:
            mem.store<uint8_t>(static_cast<uint64_t>(slots[bc.b].i),
                               slots[bc.a].i != 0);
            ++pc;
            break;
          case BcOp::StoreI32:
            mem.store<int32_t>(static_cast<uint64_t>(slots[bc.b].i),
                               static_cast<int32_t>(slots[bc.a].i));
            ++pc;
            break;
          case BcOp::StoreI64:
            mem.store<int64_t>(static_cast<uint64_t>(slots[bc.b].i),
                               slots[bc.a].i);
            ++pc;
            break;
          case BcOp::StoreF32:
            mem.store<float>(static_cast<uint64_t>(slots[bc.b].i),
                             static_cast<float>(slots[bc.a].f));
            ++pc;
            break;
          case BcOp::StoreF64:
            mem.store<double>(static_cast<uint64_t>(slots[bc.b].i),
                              slots[bc.a].f);
            ++pc;
            break;
          case BcOp::StorePtr:
            mem.store<uint64_t>(static_cast<uint64_t>(slots[bc.b].i),
                                static_cast<uint64_t>(slots[bc.a].i));
            ++pc;
            break;
          case BcOp::Gep: {
            uint64_t addr = static_cast<uint64_t>(slots[bc.a].i);
            for (uint32_t k = bc.extraBegin; k < bc.extraEnd; ++k) {
                addr += static_cast<uint64_t>(slots[extra[k]].i) *
                        scales[k];
            }
            slots[bc.dst] =
                RuntimeValue::makeInt(static_cast<int64_t>(addr));
            ++pc;
            break;
          }
          case BcOp::Alloca:
            slots[bc.dst] = RuntimeValue::makeInt(
                static_cast<int64_t>(mem.allocate(bc.imm)));
            ++pc;
            break;
          case BcOp::ICmp: {
            int64_t a = slots[bc.a].i;
            int64_t b = slots[bc.b].i;
            bool r = false;
            switch (bc.pred) {
              case ir::CmpPred::EQ: r = a == b; break;
              case ir::CmpPred::NE: r = a != b; break;
              case ir::CmpPred::LT: r = a < b; break;
              case ir::CmpPred::LE: r = a <= b; break;
              case ir::CmpPred::GT: r = a > b; break;
              case ir::CmpPred::GE: r = a >= b; break;
            }
            slots[bc.dst] = RuntimeValue::makeInt(r);
            ++pc;
            break;
          }
          case BcOp::FCmp: {
            double a = slots[bc.a].f;
            double b = slots[bc.b].f;
            bool r = false;
            switch (bc.pred) {
              case ir::CmpPred::EQ: r = a == b; break;
              case ir::CmpPred::NE: r = a != b; break;
              case ir::CmpPred::LT: r = a < b; break;
              case ir::CmpPred::LE: r = a <= b; break;
              case ir::CmpPred::GT: r = a > b; break;
              case ir::CmpPred::GE: r = a >= b; break;
            }
            slots[bc.dst] = RuntimeValue::makeInt(r);
            ++pc;
            break;
          }
          case BcOp::Select:
            slots[bc.dst] =
                slots[bc.a].i != 0 ? slots[bc.b] : slots[bc.c];
            ++pc;
            break;
          case BcOp::Jmp:
            applyMoves(bc.g0);
            pc = bc.a;
            break;
          case BcOp::CondBr:
            if (slots[bc.a].i != 0) {
                applyMoves(bc.g0);
                pc = bc.b;
            } else {
                applyMoves(bc.g1);
                pc = bc.c;
            }
            break;
          case BcOp::Ret:
            return slots[bc.a];
          case BcOp::RetVoid:
            return RuntimeValue::makeVoid();
          case BcOp::Mov:
            slots[bc.dst] = slots[bc.a];
            ++pc;
            break;
          case BcOp::TruncI32:
            slots[bc.dst] = RuntimeValue::makeInt(
                static_cast<int32_t>(slots[bc.a].i));
            ++pc;
            break;
          case BcOp::TruncI1:
            slots[bc.dst] = RuntimeValue::makeInt(slots[bc.a].i & 1);
            ++pc;
            break;
          case BcOp::SIToFP: {
            double v = static_cast<double>(slots[bc.a].i);
            slots[bc.dst] =
                RuntimeValue::makeFP(bc.round ? roundToFloatPrecision(v) : v);
            ++pc;
            break;
          }
          case BcOp::FPToSI:
            slots[bc.dst] = RuntimeValue::makeInt(
                static_cast<int64_t>(slots[bc.a].f));
            ++pc;
            break;
          case BcOp::FPTrunc:
            slots[bc.dst] =
                RuntimeValue::makeFP(roundToFloatPrecision(slots[bc.a].f));
            ++pc;
            break;
          case BcOp::Call: {
            std::vector<RuntimeValue> cargs;
            cargs.reserve(bc.extraEnd - bc.extraBegin);
            for (uint32_t k = bc.extraBegin; k < bc.extraEnd; ++k)
                cargs.push_back(slots[extra[k]]);
            RuntimeValue r =
                run(it, cf.callee(bc.imm), cargs, depth + 1);
            if (bc.dst != BcInst::kNoSlot)
                slots[bc.dst] = r;
            ++pc;
            break;
          }
          case BcOp::Trap:
            throw FatalError(cf.trapMessage(bc.imm));
        }
    }
}

} // namespace repro::interp
