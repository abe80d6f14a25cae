#include "interp/interpreter.h"

#include <unordered_map>

#include "interp/compiled.h"
#include "ir/printer.h"

namespace repro::interp {

using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;

uint64_t
Profile::countIn(const std::set<const ir::Instruction *> &set) const
{
    uint64_t total = 0;
    for (const auto &[inst, count] : counts) {
        if (set.count(inst))
            total += count;
    }
    return total;
}

void
Interpreter::registerNative(const std::string &name, NativeFn fn)
{
    natives_[name] = std::move(fn);
}

RuntimeValue
Interpreter::evalConstant(const ir::Constant *c) const
{
    if (c->isFP()) {
        return RuntimeValue::makeFP(
            roundIfFloat(c->type(), c->fpValue()));
    }
    return RuntimeValue::makeInt(c->intValue());
}

// Out of line so CompiledFunction is complete where the cache's
// unique_ptrs are constructed and destroyed.
Interpreter::Interpreter(ir::Module &module, Memory &mem)
    : module_(module), mem_(mem)
{}

Interpreter::~Interpreter() = default;

void
Interpreter::materializeGlobals()
{
    // Module order, so both engines lay out globals identically.
    for (const auto &g : module_.globals()) {
        if (!globalAddrs_.count(g.get())) {
            globalAddrs_[g.get()] =
                mem_.allocate(g->storedType()->sizeInBytes());
        }
    }
}

RuntimeValue
Interpreter::run(ir::Function *func,
                 const std::vector<RuntimeValue> &args)
{
    engine_ = Engine::Compiled;
    steps_ = 0;
    materializeGlobals();
    // Flush even when execution throws (step limit, memory trap), so
    // partial profiles match what the reference engine accumulates.
    try {
        RuntimeValue result = CompiledExec::run(*this, func, args, 0);
        if (profiling_)
            flushProfileBuffers();
        return result;
    } catch (...) {
        if (profiling_)
            flushProfileBuffers();
        throw;
    }
}

RuntimeValue
Interpreter::runReference(ir::Function *func,
                          const std::vector<RuntimeValue> &args)
{
    engine_ = Engine::Reference;
    steps_ = 0;
    materializeGlobals();
    return runFunction(func, args, 0);
}

RuntimeValue
Interpreter::call(ir::Function *func,
                  const std::vector<RuntimeValue> &args)
{
    if (engine_ == Engine::Reference)
        return runFunction(func, args, 1);
    return CompiledExec::run(*this, func, args, 1);
}

const CompiledFunction &
Interpreter::compiledFor(ir::Function *func)
{
    auto &slot = compiled_[func];
    if (!slot) {
        // Last line of defense: bytecode lowering assumes well-formed
        // SSA (operand registers resolve by dominance), so a malformed
        // function must fail loudly here, not execute garbage.
        if (verify_ == ir::VerifyMode::Boundaries)
            ir::verifyOrThrow(func, "pre-bytecode");
        slot = std::make_unique<CompiledFunction>(*func);
    }
    return *slot;
}

uint64_t *
Interpreter::profileBufferFor(const CompiledFunction &cf)
{
    auto &buf = profileBuffers_[&cf];
    if (buf.empty())
        buf.resize(cf.numProfiled(), 0);
    return buf.data();
}

void
Interpreter::flushProfileBuffers()
{
    for (auto &[cf, buf] : profileBuffers_) {
        const auto &insts = cf->profInstructions();
        for (size_t i = 0; i < buf.size(); ++i) {
            if (buf[i] != 0) {
                profile_.counts[insts[i]] += buf[i];
                buf[i] = 0;
            }
        }
    }
}

void
Interpreter::clearProfile()
{
    profile_ = Profile();
    profileBuffers_.clear();
}

namespace {

/** Typed memory access dispatch. */
RuntimeValue
loadTyped(Memory &mem, Type *type, uint64_t addr)
{
    switch (type->kind()) {
      case Type::Kind::I1:
        return RuntimeValue::makeInt(mem.load<uint8_t>(addr) != 0);
      case Type::Kind::I32:
        return RuntimeValue::makeInt(mem.load<int32_t>(addr));
      case Type::Kind::I64:
        return RuntimeValue::makeInt(mem.load<int64_t>(addr));
      case Type::Kind::Float:
        return RuntimeValue::makeFP(mem.load<float>(addr));
      case Type::Kind::Double:
        return RuntimeValue::makeFP(mem.load<double>(addr));
      case Type::Kind::Pointer:
        return RuntimeValue::makeInt(
            static_cast<int64_t>(mem.load<uint64_t>(addr)));
      default:
        throw repro::FatalError("load of unsupported type " +
                                type->str());
    }
}

void
storeTyped(Memory &mem, Type *type, uint64_t addr, RuntimeValue v)
{
    switch (type->kind()) {
      case Type::Kind::I1:
        mem.store<uint8_t>(addr, v.i != 0);
        break;
      case Type::Kind::I32:
        mem.store<int32_t>(addr, static_cast<int32_t>(v.i));
        break;
      case Type::Kind::I64:
        mem.store<int64_t>(addr, v.i);
        break;
      case Type::Kind::Float:
        mem.store<float>(addr, static_cast<float>(v.f));
        break;
      case Type::Kind::Double:
        mem.store<double>(addr, v.f);
        break;
      case Type::Kind::Pointer:
        mem.store<uint64_t>(addr, static_cast<uint64_t>(v.i));
        break;
      default:
        throw repro::FatalError("store of unsupported type " +
                                type->str());
    }
}

} // namespace

RuntimeValue
Interpreter::runFunction(ir::Function *func,
                         const std::vector<RuntimeValue> &args, int depth)
{
    if (depth > 64)
        throw FatalError("interpreter: call depth exceeded");
    if (func->isDeclaration()) {
        auto it = natives_.find(func->name());
        if (it == natives_.end()) {
            throw FatalError("interpreter: no native handler for @" +
                             func->name());
        }
        return it->second(args, *this);
    }
    reproAssert(args.size() == func->numArgs(),
                "interpreter: wrong argument count");

    std::unordered_map<const Value *, RuntimeValue> env;
    for (size_t i = 0; i < args.size(); ++i)
        env[func->arg(i)] = args[i];

    auto eval = [&](Value *v) -> RuntimeValue {
        if (v->isConstant())
            return evalConstant(static_cast<ir::Constant *>(v));
        if (v->isGlobal()) {
            auto *g = static_cast<ir::GlobalVariable *>(v);
            return RuntimeValue::makeInt(
                static_cast<int64_t>(globalAddrs_.at(g)));
        }
        auto it = env.find(v);
        if (it == env.end()) {
            throw FatalError("interpreter: use of undefined value " +
                             v->handle());
        }
        return it->second;
    };

    ir::BasicBlock *block = func->entry();
    ir::BasicBlock *prev = nullptr;
    size_t index = 0;

    while (true) {
        Instruction *inst = block->insts()[index].get();
        ++index;
        if (++steps_ > stepLimit_)
            throw FatalError("interpreter: step limit exceeded");
        if (profiling_) {
            ++profile_.counts[inst];
            ++profile_.totalSteps;
        }

        switch (inst->opcode()) {
          case Opcode::Phi: {
            // Evaluate the whole phi group against the predecessor
            // atomically. Every member costs one dynamic instruction:
            // the generic accounting above charged the first phi, so
            // charge the rest here (skipping them skews the per-loop
            // counts Figures 16-19 report).
            std::vector<std::pair<Instruction *, RuntimeValue>> vals;
            size_t i = index - 1;
            while (i < block->size() &&
                   block->insts()[i]->is(Opcode::Phi)) {
                Instruction *phi = block->insts()[i].get();
                if (i != index - 1) {
                    if (++steps_ > stepLimit_) {
                        throw FatalError(
                            "interpreter: step limit exceeded");
                    }
                    if (profiling_) {
                        ++profile_.counts[phi];
                        ++profile_.totalSteps;
                    }
                }
                Value *in = phi->incomingFor(prev);
                if (!in) {
                    throw FatalError(
                        "interpreter: phi without incoming for pred");
                }
                vals.emplace_back(phi, eval(in));
                ++i;
            }
            for (auto &[phi, v] : vals)
                env[phi] = v;
            index = i;
            break;
          }
          case Opcode::Add:
            env[inst] = RuntimeValue::makeInt(eval(inst->operand(0)).i +
                                              eval(inst->operand(1)).i);
            break;
          case Opcode::Sub:
            env[inst] = RuntimeValue::makeInt(eval(inst->operand(0)).i -
                                              eval(inst->operand(1)).i);
            break;
          case Opcode::Mul:
            env[inst] = RuntimeValue::makeInt(eval(inst->operand(0)).i *
                                              eval(inst->operand(1)).i);
            break;
          case Opcode::SDiv: {
            int64_t d = eval(inst->operand(1)).i;
            if (d == 0)
                throw FatalError("interpreter: division by zero");
            env[inst] =
                RuntimeValue::makeInt(eval(inst->operand(0)).i / d);
            break;
          }
          case Opcode::SRem: {
            int64_t d = eval(inst->operand(1)).i;
            if (d == 0)
                throw FatalError("interpreter: remainder by zero");
            env[inst] =
                RuntimeValue::makeInt(eval(inst->operand(0)).i % d);
            break;
          }
          case Opcode::And:
            env[inst] = RuntimeValue::makeInt(eval(inst->operand(0)).i &
                                              eval(inst->operand(1)).i);
            break;
          case Opcode::Or:
            env[inst] = RuntimeValue::makeInt(eval(inst->operand(0)).i |
                                              eval(inst->operand(1)).i);
            break;
          case Opcode::Xor:
            env[inst] = RuntimeValue::makeInt(eval(inst->operand(0)).i ^
                                              eval(inst->operand(1)).i);
            break;
          case Opcode::Shl:
            // Shift the bits: shifting a negative int64_t is undefined
            // before C++20.
            env[inst] = RuntimeValue::makeInt(static_cast<int64_t>(
                static_cast<uint64_t>(eval(inst->operand(0)).i)
                << (eval(inst->operand(1)).i & 63)));
            break;
          case Opcode::AShr:
            env[inst] = RuntimeValue::makeInt(
                eval(inst->operand(0)).i >>
                (eval(inst->operand(1)).i & 63));
            break;
          case Opcode::FAdd:
            env[inst] = RuntimeValue::makeFP(roundIfFloat(
                inst->type(), eval(inst->operand(0)).f +
                                  eval(inst->operand(1)).f));
            break;
          case Opcode::FSub:
            env[inst] = RuntimeValue::makeFP(roundIfFloat(
                inst->type(), eval(inst->operand(0)).f -
                                  eval(inst->operand(1)).f));
            break;
          case Opcode::FMul:
            env[inst] = RuntimeValue::makeFP(roundIfFloat(
                inst->type(), eval(inst->operand(0)).f *
                                  eval(inst->operand(1)).f));
            break;
          case Opcode::FDiv:
            env[inst] = RuntimeValue::makeFP(roundIfFloat(
                inst->type(), eval(inst->operand(0)).f /
                                  eval(inst->operand(1)).f));
            break;
          case Opcode::Alloca: {
            uint64_t addr =
                mem_.allocate(inst->accessType()->sizeInBytes());
            env[inst] =
                RuntimeValue::makeInt(static_cast<int64_t>(addr));
            break;
          }
          case Opcode::Load: {
            uint64_t addr = static_cast<uint64_t>(
                eval(inst->operand(0)).i);
            env[inst] = loadTyped(mem_, inst->type(), addr);
            break;
          }
          case Opcode::Store: {
            uint64_t addr = static_cast<uint64_t>(
                eval(inst->operand(1)).i);
            storeTyped(mem_, inst->operand(0)->type(), addr,
                       eval(inst->operand(0)));
            break;
          }
          case Opcode::GEP: {
            uint64_t addr =
                static_cast<uint64_t>(eval(inst->operand(0)).i);
            Type *cur = inst->accessType();
            addr += static_cast<uint64_t>(eval(inst->operand(1)).i) *
                    cur->sizeInBytes();
            for (size_t k = 2; k < inst->numOperands(); ++k) {
                cur = cur->element();
                addr +=
                    static_cast<uint64_t>(eval(inst->operand(k)).i) *
                    cur->sizeInBytes();
            }
            env[inst] =
                RuntimeValue::makeInt(static_cast<int64_t>(addr));
            break;
          }
          case Opcode::ICmp: {
            int64_t a = eval(inst->operand(0)).i;
            int64_t b = eval(inst->operand(1)).i;
            bool r = false;
            switch (inst->cmpPred()) {
              case ir::CmpPred::EQ: r = a == b; break;
              case ir::CmpPred::NE: r = a != b; break;
              case ir::CmpPred::LT: r = a < b; break;
              case ir::CmpPred::LE: r = a <= b; break;
              case ir::CmpPred::GT: r = a > b; break;
              case ir::CmpPred::GE: r = a >= b; break;
            }
            env[inst] = RuntimeValue::makeInt(r);
            break;
          }
          case Opcode::FCmp: {
            double a = eval(inst->operand(0)).f;
            double b = eval(inst->operand(1)).f;
            bool r = false;
            switch (inst->cmpPred()) {
              case ir::CmpPred::EQ: r = a == b; break;
              case ir::CmpPred::NE: r = a != b; break;
              case ir::CmpPred::LT: r = a < b; break;
              case ir::CmpPred::LE: r = a <= b; break;
              case ir::CmpPred::GT: r = a > b; break;
              case ir::CmpPred::GE: r = a >= b; break;
            }
            env[inst] = RuntimeValue::makeInt(r);
            break;
          }
          case Opcode::Select:
            env[inst] = eval(inst->operand(0)).i != 0
                            ? eval(inst->operand(1))
                            : eval(inst->operand(2));
            break;
          case Opcode::Br: {
            ir::BasicBlock *next;
            if (inst->isConditionalBranch()) {
                next = eval(inst->operand(0)).i != 0
                           ? inst->blockTargets()[0]
                           : inst->blockTargets()[1];
            } else {
                next = inst->blockTargets()[0];
            }
            prev = block;
            block = next;
            index = 0;
            break;
          }
          case Opcode::Ret:
            if (inst->numOperands() == 0)
                return RuntimeValue::makeVoid();
            return eval(inst->operand(0));
          case Opcode::SExt:
          case Opcode::ZExt:
          case Opcode::Trunc: {
            int64_t v = eval(inst->operand(0)).i;
            if (inst->opcode() == Opcode::Trunc &&
                inst->type()->kind() == Type::Kind::I32) {
                v = static_cast<int32_t>(v);
            }
            if (inst->opcode() == Opcode::Trunc &&
                inst->type()->kind() == Type::Kind::I1) {
                v = v & 1;
            }
            env[inst] = RuntimeValue::makeInt(v);
            break;
          }
          case Opcode::SIToFP:
            env[inst] = RuntimeValue::makeFP(roundIfFloat(
                inst->type(),
                static_cast<double>(eval(inst->operand(0)).i)));
            break;
          case Opcode::FPToSI:
            env[inst] = RuntimeValue::makeInt(
                static_cast<int64_t>(eval(inst->operand(0)).f));
            break;
          case Opcode::FPExt:
            env[inst] = eval(inst->operand(0));
            break;
          case Opcode::FPTrunc:
            env[inst] = RuntimeValue::makeFP(static_cast<float>(
                eval(inst->operand(0)).f));
            break;
          case Opcode::Call: {
            std::vector<RuntimeValue> callArgs;
            callArgs.reserve(inst->numOperands());
            for (size_t k = 0; k < inst->numOperands(); ++k)
                callArgs.push_back(eval(inst->operand(k)));
            RuntimeValue r =
                runFunction(inst->callee(), callArgs, depth + 1);
            if (!inst->type()->isVoid())
                env[inst] = r;
            break;
          }
        }
    }
}

} // namespace repro::interp
