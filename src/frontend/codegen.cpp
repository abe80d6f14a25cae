#include "frontend/codegen.h"

#include <map>
#include <set>
#include <vector>

#include "ir/irbuilder.h"

namespace repro::frontend {

using ir::BasicBlock;
using ir::CmpPred;
using ir::IRBuilder;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

/** Code generator for one translation unit. */
class CodeGen
{
  public:
    CodeGen(const TranslationUnit &unit, ir::Module &module,
            DiagEngine &diags)
        : unit_(unit), module_(module), builder_(module), diags_(diags)
    {}

    bool
    run()
    {
        try {
            declareBuiltins();
            for (const auto &g : unit_.globals) {
                module_.createGlobal(g.name,
                                     irTypeOf(g.type, false));
            }
            // Declare all functions first so calls resolve in any
            // order.
            for (const auto &f : unit_.functions) {
                if (module_.functionByName(f->name))
                    continue;
                std::vector<Type *> params;
                for (const auto &p : f->params)
                    params.push_back(irTypeOf(p.type, true));
                ir::Function *func = module_.createFunction(
                    f->name, irTypeOf(f->returnType, true), params);
                for (size_t i = 0; i < f->params.size(); ++i)
                    func->arg(i)->setName(f->params[i].name);
            }
            for (const auto &f : unit_.functions) {
                if (f->body)
                    genFunction(*f);
            }
        } catch (const FatalError &) {
            return false;
        }
        return !diags_.hasErrors();
    }

  private:
    [[noreturn]] void
    fail(SourceLoc loc, const std::string &msg)
    {
        diags_.error(loc, msg);
        throw FatalError("MiniC codegen error");
    }

    void
    declareBuiltins()
    {
        Type *d = module_.types().doubleTy();
        for (const char *name :
             {"sqrt", "fabs", "exp", "log", "sin", "cos", "floor"}) {
            if (!module_.functionByName(name))
                module_.createFunction(name, d, {d});
        }
        if (!module_.functionByName("pow")) {
            module_.createFunction("pow", d, {d, d});
        }
        if (!module_.functionByName("fmax")) {
            module_.createFunction("fmax", d, {d, d});
            module_.createFunction("fmin", d, {d, d});
        }
    }

    Type *
    scalarType(BaseType base)
    {
        switch (base) {
          case BaseType::Void: return module_.types().voidTy();
          case BaseType::Int: return module_.types().i32Ty();
          case BaseType::Long: return module_.types().i64Ty();
          case BaseType::Float: return module_.types().floatTy();
          case BaseType::Double: return module_.types().doubleTy();
        }
        return module_.types().voidTy();
    }

    /**
     * IR type of a MiniC type. With @p decay, an array with an unsized
     * or sized first dimension becomes a pointer (parameter passing).
     */
    Type *
    irTypeOf(const TypeSpec &spec, bool decay)
    {
        Type *t = scalarType(spec.base);
        for (int i = 0; i < spec.pointerDepth; ++i)
            t = module_.types().pointerTo(t);
        if (spec.dims.empty())
            return t;
        // Build the array from the innermost dimension outwards.
        size_t first = 0;
        if (decay)
            first = 1;
        Type *arr = t;
        for (size_t i = spec.dims.size(); i > first; --i) {
            arr = module_.types().arrayOf(
                arr, static_cast<uint64_t>(spec.dims[i - 1]));
        }
        if (decay)
            return module_.types().pointerTo(arr);
        return arr;
    }

    // Value conversion ------------------------------------------------------

    Value *
    convert(Value *v, Type *to, SourceLoc loc)
    {
        Type *from = v->type();
        if (from == to)
            return v;
        auto &types = module_.types();
        if (from->isInteger() && to->isInteger()) {
            if (from->sizeInBytes() < to->sizeInBytes())
                return builder_.cast(Opcode::SExt, v, to);
            return builder_.cast(Opcode::Trunc, v, to);
        }
        if (from->isInteger() && to->isFloatingPoint())
            return builder_.cast(Opcode::SIToFP, v, to);
        if (from->isFloatingPoint() && to->isInteger())
            return builder_.cast(Opcode::FPToSI, v, to);
        if (from->isFloatingPoint() && to->isFloatingPoint()) {
            if (from == types.floatTy())
                return builder_.cast(Opcode::FPExt, v, to);
            return builder_.cast(Opcode::FPTrunc, v, to);
        }
        fail(loc, "cannot convert " + from->str() + " to " + to->str());
    }

    /** Lower @p v to an i1 condition. */
    Value *
    toBool(Value *v, SourceLoc loc)
    {
        if (v->type()->isI1())
            return v;
        if (v->type()->isInteger()) {
            return builder_.icmp(CmpPred::NE, v,
                                 module_.intConst(v->type(), 0));
        }
        if (v->type()->isFloatingPoint()) {
            return builder_.fcmp(CmpPred::NE, v,
                                 module_.fpConst(v->type(), 0.0));
        }
        if (v->type()->isPointer()) {
            return builder_.icmp(
                CmpPred::NE,
                builder_.cast(Opcode::SExt, v,
                              module_.types().i64Ty()),
                builder_.i64(0));
        }
        fail(loc, "cannot use value of type " + v->type()->str() +
                      " as a condition");
    }

    /** Widen an i1 to i32 when used as an arithmetic value. */
    Value *
    fromBool(Value *v)
    {
        if (v->type()->isI1()) {
            return builder_.cast(Opcode::ZExt, v,
                                 module_.types().i32Ty());
        }
        return v;
    }

    // Variables ---------------------------------------------------------------

    /** Address of the storage of the variable @p e names. */
    Value *
    variable(const Expr &e)
    {
        auto it = locals_.find(e.name);
        if (it != locals_.end())
            return it->second;
        auto git = globals_.find(e.name);
        if (git != globals_.end())
            return git->second;
        fail(e.loc, "unknown variable '" + e.name + "'");
    }

    // Function generation ------------------------------------------------------

    void
    genFunction(const FunctionDecl &decl)
    {
        func_ = module_.functionByName(decl.name);
        locals_.clear();
        breakTargets_.clear();
        continueTargets_.clear();

        BasicBlock *entry = func_->createBlock("entry");
        builder_.setInsertPoint(entry);

        // Globals become symbols on first function (idempotent).
        globals_.clear();
        for (const auto &g : unit_.globals)
            globals_[g.name] = module_.globalByName(g.name);

        // Spill parameters into allocas (promoted again by mem2reg).
        for (size_t i = 0; i < decl.params.size(); ++i) {
            const ParamDecl &p = decl.params[i];
            ir::Argument *arg = func_->arg(i);
            ir::Instruction *slot = builder_.alloca_(
                arg->type(), p.name + ".addr");
            builder_.store(arg, slot);
            locals_[p.name] = slot;
        }

        genStmt(*decl.body);

        // Guarantee a terminator on the last block.
        if (!builder_.insertBlock()->terminator()) {
            if (func_->returnType()->isVoid()) {
                builder_.retVoid();
            } else if (func_->returnType()->isFloatingPoint()) {
                builder_.ret(module_.fpConst(func_->returnType(), 0.0));
            } else {
                builder_.ret(module_.intConst(func_->returnType(), 0));
            }
        }
    }

    // Statements ---------------------------------------------------------------

    void
    genStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Block:
            for (const auto &s : stmt.body) {
                if (builder_.insertBlock()->terminator())
                    break; // unreachable code after return/break
                genStmt(*s);
            }
            break;
          case Stmt::Kind::Empty:
            break;
          case Stmt::Kind::Decl: {
            Type *t = irTypeOf(stmt.declType, false);
            ir::Instruction *slot =
                builder_.alloca_(t, stmt.declName + ".addr");
            locals_[stmt.declName] = slot;
            if (stmt.init) {
                Value *v = genExpr(*stmt.init);
                builder_.store(convert(v, t, stmt.loc), slot);
            }
            break;
          }
          case Stmt::Kind::ExprStmt:
            genExpr(*stmt.expr);
            break;
          case Stmt::Kind::Return: {
            if (stmt.expr) {
                Value *v = genExpr(*stmt.expr);
                if (v->type()->isVoid() && func_->returnType()->isVoid()) {
                    fail(stmt.loc, "void function '" + func_->name() +
                                       "' should not return a value");
                }
                builder_.ret(
                    convert(v, func_->returnType(), stmt.loc));
            } else if (func_->returnType()->isVoid()) {
                builder_.retVoid();
            } else {
                fail(stmt.loc, "non-void function '" + func_->name() +
                                   "' should return a value");
            }
            break;
          }
          case Stmt::Kind::If: {
            Value *cond = toBool(genExpr(*stmt.cond), stmt.loc);
            BasicBlock *then_bb =
                func_->createBlock(func_->uniqueName("if.then"));
            BasicBlock *end_bb =
                func_->createBlock(func_->uniqueName("if.end"));
            BasicBlock *else_bb = end_bb;
            if (!stmt.elseBody.empty()) {
                else_bb =
                    func_->createBlock(func_->uniqueName("if.else"));
            }
            builder_.condBr(cond, then_bb, else_bb);
            builder_.setInsertPoint(then_bb);
            for (const auto &s : stmt.body)
                genStmt(*s);
            if (!builder_.insertBlock()->terminator())
                builder_.br(end_bb);
            if (!stmt.elseBody.empty()) {
                builder_.setInsertPoint(else_bb);
                for (const auto &s : stmt.elseBody)
                    genStmt(*s);
                if (!builder_.insertBlock()->terminator())
                    builder_.br(end_bb);
            }
            builder_.setInsertPoint(end_bb);
            break;
          }
          case Stmt::Kind::While: {
            BasicBlock *cond_bb =
                func_->createBlock(func_->uniqueName("while.cond"));
            BasicBlock *body_bb =
                func_->createBlock(func_->uniqueName("while.body"));
            BasicBlock *end_bb =
                func_->createBlock(func_->uniqueName("while.end"));
            builder_.br(cond_bb);
            builder_.setInsertPoint(cond_bb);
            Value *cond = toBool(genExpr(*stmt.cond), stmt.loc);
            builder_.condBr(cond, body_bb, end_bb);
            builder_.setInsertPoint(body_bb);
            breakTargets_.push_back(end_bb);
            continueTargets_.push_back(cond_bb);
            for (const auto &s : stmt.body)
                genStmt(*s);
            breakTargets_.pop_back();
            continueTargets_.pop_back();
            if (!builder_.insertBlock()->terminator())
                builder_.br(cond_bb);
            builder_.setInsertPoint(end_bb);
            break;
          }
          case Stmt::Kind::DoWhile: {
            BasicBlock *body_bb =
                func_->createBlock(func_->uniqueName("do.body"));
            BasicBlock *cond_bb =
                func_->createBlock(func_->uniqueName("do.cond"));
            BasicBlock *end_bb =
                func_->createBlock(func_->uniqueName("do.end"));
            builder_.br(body_bb);
            builder_.setInsertPoint(body_bb);
            breakTargets_.push_back(end_bb);
            continueTargets_.push_back(cond_bb);
            for (const auto &s : stmt.body)
                genStmt(*s);
            breakTargets_.pop_back();
            continueTargets_.pop_back();
            if (!builder_.insertBlock()->terminator())
                builder_.br(cond_bb);
            builder_.setInsertPoint(cond_bb);
            Value *cond = toBool(genExpr(*stmt.cond), stmt.loc);
            builder_.condBr(cond, body_bb, end_bb);
            builder_.setInsertPoint(end_bb);
            break;
          }
          case Stmt::Kind::For: {
            if (stmt.initStmt)
                genStmt(*stmt.initStmt);
            BasicBlock *cond_bb =
                func_->createBlock(func_->uniqueName("for.cond"));
            BasicBlock *body_bb =
                func_->createBlock(func_->uniqueName("for.body"));
            BasicBlock *inc_bb =
                func_->createBlock(func_->uniqueName("for.inc"));
            BasicBlock *end_bb =
                func_->createBlock(func_->uniqueName("for.end"));
            builder_.br(cond_bb);
            builder_.setInsertPoint(cond_bb);
            if (stmt.cond) {
                Value *cond = toBool(genExpr(*stmt.cond), stmt.loc);
                builder_.condBr(cond, body_bb, end_bb);
            } else {
                builder_.br(body_bb);
            }
            builder_.setInsertPoint(body_bb);
            breakTargets_.push_back(end_bb);
            continueTargets_.push_back(inc_bb);
            for (const auto &s : stmt.body)
                genStmt(*s);
            breakTargets_.pop_back();
            continueTargets_.pop_back();
            if (!builder_.insertBlock()->terminator())
                builder_.br(inc_bb);
            builder_.setInsertPoint(inc_bb);
            if (stmt.incExpr)
                genExpr(*stmt.incExpr);
            builder_.br(cond_bb);
            builder_.setInsertPoint(end_bb);
            break;
          }
          case Stmt::Kind::Break:
            if (breakTargets_.empty())
                fail(stmt.loc, "break outside of loop");
            builder_.br(breakTargets_.back());
            break;
          case Stmt::Kind::Continue:
            if (continueTargets_.empty())
                fail(stmt.loc, "continue outside of loop");
            builder_.br(continueTargets_.back());
            break;
        }
    }

    // Expressions ---------------------------------------------------------------

    static bool
    isLValue(const Expr &e)
    {
        return e.kind == Expr::Kind::VarRef || e.kind == Expr::Kind::Index ||
               (e.kind == Expr::Kind::Unary && e.op == "*");
    }

    /** @p v, which @p e subscripts or dereferences, if it is a pointer. */
    Value *
    pointer(Value *v, const Expr &e)
    {
        if (!v->type()->isPointer()) {
            fail(e.loc, std::string(e.kind == Expr::Kind::Index
                                        ? "subscripted"
                                        : "dereferenced") +
                            " value of type " + v->type()->str() +
                            " is not a pointer or array");
        }
        return v;
    }

    /**
     * Rvalue of the lvalue @p e stored at @p addr: an array decays to a
     * pointer to its first element, anything else is loaded.
     */
    Value *
    rvalue(const Expr &e, Value *addr)
    {
        if (addr->type()->element()->isArray())
            return builder_.gep(addr, {builder_.i64(0), builder_.i64(0)});
        return builder_.load(addr,
                             e.kind == Expr::Kind::VarRef ? e.name : "");
    }

    /**
     * A located error unless operator @p e takes operands of type @p t:
     * `%`, the bitwise operators and the shifts take integers, the
     * other arithmetic operators integers or floating point.
     */
    void
    checkOperands(const Expr &e, Type *t)
    {
        static const std::set<std::string> integer_only = {
            "%", "&", "|", "^", "<<", ">>", "~", "%="};
        if (t->isInteger() ||
            (t->isFloatingPoint() && !integer_only.count(e.op)))
            return;
        fail(e.loc, "invalid operand type " + t->str() + " for '" + e.op +
                        "'");
    }

    /** Address of an lvalue expression. */
    Value *
    genLValue(const Expr &e)
    {
        switch (e.kind) {
          case Expr::Kind::VarRef:
            return variable(e);
          case Expr::Kind::Index: {
            const Expr &base = *e.children[0];
            Value *idx = fromBool(genExpr(*e.children[1]));
            if (idx->type() == module_.types().i32Ty()) {
                idx = builder_.cast(Opcode::SExt, idx,
                                    module_.types().i64Ty());
            }
            // An array is indexed in place, anything else as a pointer.
            Value *array = nullptr;
            Value *ptr = nullptr;
            if (isLValue(base)) {
                Value *addr = genLValue(base);
                if (addr->type()->element()->isArray())
                    array = addr;
                else
                    ptr = pointer(rvalue(base, addr), e);
            } else {
                ptr = pointer(genExpr(base), e);
            }
            if (!idx->type()->isInteger())
                fail(e.loc, "array subscript is not an integer");
            if (array)
                return builder_.gep(array, {builder_.i64(0), idx});
            return builder_.gep(ptr, {idx});
          }
          case Expr::Kind::Unary:
            if (e.op == "*")
                return pointer(genExpr(*e.children[0]), e);
            break;
          default:
            break;
        }
        fail(e.loc, "expression is not an lvalue");
    }

    /** Rvalue of an expression. */
    Value *
    genExpr(const Expr &e)
    {
        switch (e.kind) {
          case Expr::Kind::IntLit: {
            Type *t = e.intValue > 0x7fffffffLL
                          ? module_.types().i64Ty()
                          : module_.types().i32Ty();
            return module_.intConst(t, e.intValue);
          }
          case Expr::Kind::FloatLit: {
            Type *t = e.isFloat32 ? module_.types().floatTy()
                                  : module_.types().doubleTy();
            return module_.fpConst(t, e.floatValue);
          }
          case Expr::Kind::VarRef:
          case Expr::Kind::Index:
            return rvalue(e, genLValue(e));
          case Expr::Kind::Unary:
            if (e.op == "*")
                return rvalue(e, genLValue(e));
            return genUnary(e);
          case Expr::Kind::Cast: {
            Value *v = fromBool(genExpr(*e.children[0]));
            if (e.castType.pointerDepth > 0)
                return v; // the IR has no pointer-to-pointer cast
            return convert(v, irTypeOf(e.castType, true), e.loc);
          }
          case Expr::Kind::Binary:
            return genBinary(e);
          case Expr::Kind::Assign:
            return genAssign(e);
          case Expr::Kind::PostIncDec: {
            Value *addr = genLValue(*e.children[0]);
            Value *old = builder_.load(addr);
            if (old->type()->isPointer()) {
                Value *step = builder_.i64(e.op == "++" ? 1 : -1);
                builder_.store(builder_.gep(old, {step}), addr);
                return old;
            }
            checkOperands(e, old->type());
            Value *one =
                old->type()->isFloatingPoint()
                    ? static_cast<Value *>(
                          module_.fpConst(old->type(), 1.0))
                    : module_.intConst(old->type(), 1);
            Opcode op;
            if (old->type()->isFloatingPoint()) {
                op = e.op == "++" ? Opcode::FAdd : Opcode::FSub;
            } else {
                op = e.op == "++" ? Opcode::Add : Opcode::Sub;
            }
            builder_.store(builder_.binary(op, old, one), addr);
            return old;
          }
          case Expr::Kind::Ternary: {
            // MiniC evaluates both arms and selects; kernels written
            // in MiniC keep ternary arms side-effect free.
            Value *cond = toBool(genExpr(*e.children[0]), e.loc);
            Value *a = genExpr(*e.children[1]);
            Value *b = genExpr(*e.children[2]);
            a = fromBool(a);
            // A pointer arm gives the result type, else the wider arm.
            Type *t = a->type()->isPointer()   ? a->type()
                      : b->type()->isPointer() ? b->type()
                                               : promoteIR(a->type(),
                                                           b->type());
            // Two pointers select as addresses, whatever they point to.
            if (!a->type()->isPointer() || !b->type()->isPointer()) {
                a = convert(a, t, e.loc);
                b = convert(fromBool(b), t, e.loc);
            }
            return builder_.select(cond, a, b);
          }
          case Expr::Kind::Call:
            return genCall(e);
        }
        fail(e.loc, "unsupported expression");
    }

    Value *
    genUnary(const Expr &e)
    {
        if (e.op == "!") {
            Value *v = toBool(genExpr(*e.children[0]), e.loc);
            return builder_.icmp(CmpPred::EQ, v, builder_.i1(false));
        }
        if (e.op == "+")
            return genExpr(*e.children[0]);
        if (e.op == "-") {
            Value *v = fromBool(genExpr(*e.children[0]));
            checkOperands(e, v->type());
            if (v->type()->isFloatingPoint()) {
                return builder_.fsub(module_.fpConst(v->type(), 0.0),
                                     v);
            }
            return builder_.sub(module_.intConst(v->type(), 0), v);
        }
        if (e.op == "~") {
            Value *v = fromBool(genExpr(*e.children[0]));
            checkOperands(e, v->type());
            return builder_.binary(Opcode::Xor, v,
                                   module_.intConst(v->type(), -1));
        }
        fail(e.loc, "unsupported unary operator '" + e.op + "'");
    }

    Value *
    genBinary(const Expr &e)
    {
        if (e.op == "&&" || e.op == "||")
            return genLogical(e);

        Value *lhs = fromBool(genExpr(*e.children[0]));
        Value *rhs = fromBool(genExpr(*e.children[1]));

        // Pointer arithmetic: p + i lowers to gep.
        if (lhs->type()->isPointer() && rhs->type()->isInteger() &&
            (e.op == "+" || e.op == "-")) {
            if (rhs->type() == module_.types().i32Ty()) {
                rhs = builder_.cast(Opcode::SExt, rhs,
                                    module_.types().i64Ty());
            }
            if (e.op == "-") {
                rhs = builder_.sub(builder_.i64(0), rhs);
            }
            return builder_.gep(lhs, {rhs});
        }

        Type *common = promoteIR(lhs->type(), rhs->type());
        // Two pointers compare as addresses, whatever they point to.
        if (!lhs->type()->isPointer() || !rhs->type()->isPointer()) {
            lhs = convert(lhs, common, e.loc);
            rhs = convert(rhs, common, e.loc);
        }

        bool is_fp = common->isFloatingPoint();
        if (e.op == "==" || e.op == "!=" || e.op == "<" ||
            e.op == "<=" || e.op == ">" || e.op == ">=") {
            CmpPred pred;
            if (e.op == "==")
                pred = CmpPred::EQ;
            else if (e.op == "!=")
                pred = CmpPred::NE;
            else if (e.op == "<")
                pred = CmpPred::LT;
            else if (e.op == "<=")
                pred = CmpPred::LE;
            else if (e.op == ">")
                pred = CmpPred::GT;
            else
                pred = CmpPred::GE;
            return is_fp ? builder_.fcmp(pred, lhs, rhs)
                         : builder_.icmp(pred, lhs, rhs);
        }

        checkOperands(e, common);
        Opcode op;
        if (e.op == "+")
            op = is_fp ? Opcode::FAdd : Opcode::Add;
        else if (e.op == "-")
            op = is_fp ? Opcode::FSub : Opcode::Sub;
        else if (e.op == "*")
            op = is_fp ? Opcode::FMul : Opcode::Mul;
        else if (e.op == "/")
            op = is_fp ? Opcode::FDiv : Opcode::SDiv;
        else if (e.op == "%")
            op = Opcode::SRem;
        else if (e.op == "&")
            op = Opcode::And;
        else if (e.op == "|")
            op = Opcode::Or;
        else if (e.op == "^")
            op = Opcode::Xor;
        else if (e.op == "<<")
            op = Opcode::Shl;
        else if (e.op == ">>")
            op = Opcode::AShr;
        else
            fail(e.loc, "unsupported binary operator '" + e.op + "'");
        return builder_.binary(op, lhs, rhs);
    }

    Type *
    promoteIR(Type *a, Type *b)
    {
        auto rank = [this](Type *t) {
            if (t == module_.types().doubleTy())
                return 5;
            if (t == module_.types().floatTy())
                return 4;
            if (t == module_.types().i64Ty())
                return 3;
            if (t == module_.types().i32Ty())
                return 2;
            return 1;
        };
        return rank(a) >= rank(b) ? a : b;
    }

    Value *
    genLogical(const Expr &e)
    {
        // Short circuit with control flow, merged through a phi.
        BasicBlock *rhs_bb =
            func_->createBlock(func_->uniqueName("logic.rhs"));
        BasicBlock *end_bb =
            func_->createBlock(func_->uniqueName("logic.end"));
        Value *lhs = toBool(genExpr(*e.children[0]), e.loc);
        BasicBlock *lhs_end = builder_.insertBlock();
        if (e.op == "&&")
            builder_.condBr(lhs, rhs_bb, end_bb);
        else
            builder_.condBr(lhs, end_bb, rhs_bb);
        builder_.setInsertPoint(rhs_bb);
        Value *rhs = toBool(genExpr(*e.children[1]), e.loc);
        BasicBlock *rhs_end = builder_.insertBlock();
        builder_.br(end_bb);
        builder_.setInsertPoint(end_bb);
        ir::Instruction *phi = builder_.phi(module_.types().i1Ty());
        phi->addIncoming(builder_.i1(e.op == "||"), lhs_end);
        phi->addIncoming(rhs, rhs_end);
        return phi;
    }

    Value *
    genAssign(const Expr &e)
    {
        const Expr &lhs = *e.children[0];
        Value *addr = genLValue(lhs);
        Type *elem = addr->type()->element();
        Value *rhs = fromBool(genExpr(*e.children[1]));
        Value *result;
        if (e.op == "=") {
            result = convert(rhs, elem, e.loc);
        } else {
            Value *old = builder_.load(addr);
            Type *common = promoteIR(old->type(), rhs->type());
            Value *a = convert(old, common, e.loc);
            Value *b = convert(rhs, common, e.loc);
            checkOperands(e, common);
            bool is_fp = common->isFloatingPoint();
            Opcode op;
            if (e.op == "+=")
                op = is_fp ? Opcode::FAdd : Opcode::Add;
            else if (e.op == "-=")
                op = is_fp ? Opcode::FSub : Opcode::Sub;
            else if (e.op == "*=")
                op = is_fp ? Opcode::FMul : Opcode::Mul;
            else if (e.op == "/=")
                op = is_fp ? Opcode::FDiv : Opcode::SDiv;
            else if (e.op == "%=")
                op = Opcode::SRem;
            else
                fail(e.loc, "unsupported assignment '" + e.op + "'");
            result = convert(builder_.binary(op, a, b), elem, e.loc);
        }
        builder_.store(result, addr);
        return result;
    }
    Value *
    genCall(const Expr &e)
    {
        ir::Function *callee = module_.functionByName(e.name);
        if (!callee) {
            fail(e.loc, "call to unknown function '" + e.name + "'");
        }
        const auto &params = callee->functionType()->params();
        if (params.size() != e.children.size()) {
            fail(e.loc, "wrong number of arguments to '" + e.name +
                            "'");
        }
        std::vector<Value *> args;
        for (size_t i = 0; i < params.size(); ++i) {
            Value *v = fromBool(genExpr(*e.children[i]));
            args.push_back(convert(v, params[i], e.loc));
        }
        return builder_.call(callee, args);
    }

    const TranslationUnit &unit_;
    ir::Module &module_;
    IRBuilder builder_;
    DiagEngine &diags_;

    ir::Function *func_ = nullptr;
    /** Storage address of each variable in scope, by name. */
    std::map<std::string, Value *> locals_;
    std::map<std::string, Value *> globals_;
    std::vector<BasicBlock *> breakTargets_;
    std::vector<BasicBlock *> continueTargets_;
};

} // namespace

bool
generateIR(const TranslationUnit &unit, ir::Module &module,
           DiagEngine &diags)
{
    CodeGen gen(unit, module, diags);
    return gen.run();
}

} // namespace repro::frontend
